"""Blow-down and asymptotic-cone diagnostics on spheres of radius R.

A point of (boundary ∩ S_R) is a zero of the defining function F on S_R,
so the body's shell points are found on the sphere itself, with no ray
cast. F is sampled on great-circle arcs of S_R about the center c: the
whole circle in 2D, and in 3D one meridian from pole to pole per azimuth,
in the vertical half-plane through c at that azimuth. The arcs are built
once per dimension and azimuth count and cached; the whole scan is one
``defining`` call on a batch held coordinate-major, one contiguous block
per coordinate, where F's sums over coordinates run as whole-row adds.
Each sign change of F <= 0 between neighbouring samples brackets one
crossing. All brackets are bisected together, one
``defining`` call per step, in the angle from the bracket's inside sample
along the arc, so the crossing is resolved to rounding relative to the
bracket rather than to the arc's absolute angle.
The cone/sphere intersection is R times the cone's closed-form unit boundary
rays. The symmetric Hausdorff distance between the two sample sets is the
reported shell distance (one-sided values are exposed for verbose output),
read off the matrix of their pairwise distances, which ``cdist`` builds in
numpy one coordinate at a time.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bodies import ConeDescriptor
from .bodies import ray_hits_batch  # noqa: F401  (perfbench/tracer.py wraps it by name)
from .errors import EmptyShellIntersection

_N_AZIMUTH = 720
_N_SCAN_2D = 2048  # samples on the circle
_N_SCAN_MERIDIAN = 192  # samples on each meridian, both poles included
_N_POLISH = 56  # bisection steps: a pi/191 bracket halved down to rounding


@dataclass(frozen=True)
class ShellDistance:
    """Distances between the boundary and the cone on the sphere S_R."""

    R: float
    d_asym: float
    d_blowdown: float
    err: float
    d_body_to_cone: float
    d_cone_to_body: float


@functools.lru_cache(maxsize=2)  # a 2D and a 3D grid; 6.6 MB in 3D at 720 azimuths
def _arcs(dim, n_azimuth):
    """Unit samples u, unit tangents t = du/da and the sample step on great circles.

    u = cos(a) e1 + sin(a) e2 on an even grid of a, in arrays of shape
    (arcs, samples, dim), each a view of a coordinate-major (dim, arcs,
    samples) array, so that the scan's points and its ``defining`` call
    run one contiguous row per coordinate. The 2D arc is the whole circle
    and ends on its first sample; the 3D arcs are the meridians at azimuth
    2 pi k / n_azimuth, from a = -pi/2 to pi/2. The arrays depend on the
    arguments alone, so they are cached, and read-only.
    """
    if dim == 2:
        step = 2.0 * math.pi / _N_SCAN_2D
        a = step * np.arange(_N_SCAN_2D + 1)
        a[-1] = 0.0  # closed on itself
        e1, e2 = np.eye(2)[:, :, None, None]
    else:
        step = math.pi / (_N_SCAN_MERIDIAN - 1)
        a = step * np.arange(_N_SCAN_MERIDIAN) - 0.5 * math.pi
        phi = 2.0 * math.pi * np.arange(n_azimuth) / n_azimuth
        e1 = np.stack([np.cos(phi), np.sin(phi), np.zeros(n_azimuth)])[:, :, None]
        e2 = np.array([0.0, 0.0, 1.0])[:, None, None]
    c, s = np.cos(a), np.sin(a)
    U, T = c * e1 + s * e2, c * e2 - s * e1
    U.flags.writeable = False  # cached: no caller may write into them
    T.flags.writeable = False
    return np.moveaxis(U, 0, -1), np.moveaxis(T, 0, -1), step


def _check_azimuths(n_azimuth):
    if not (isinstance(n_azimuth, (int, np.integer)) and n_azimuth >= 1):
        raise ValueError(f"n_azimuth must be an integer >= 1, got {n_azimuth!r}")


def body_shell_points(body, R, center=None, n_azimuth=_N_AZIMUTH):
    """Sample the boundary points at distance R from center (default origin)."""
    _check_azimuths(n_azimuth)
    R = float(R)
    if not (math.isfinite(R) and R > 0.0):
        raise ValueError(f"sphere radius must be finite and positive, got {R}")
    dim = body.ambient_dim
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    U, T, step = _arcs(dim, n_azimuth)
    inside = body.defining(center + R * U) <= 0.0
    arc, j = np.nonzero(inside[:, :-1] != inside[:, 1:])
    if len(j) == 0:
        raise EmptyShellIntersection(f"boundary does not meet the sphere of radius {R}")
    # each bracket runs from its inside sample u0 along the tangent t0
    # towards its outside neighbour: p(d) = c + R (cos(d) u0 + sin(d) t0)
    first_in = inside[arc, j][:, None]
    u0 = np.where(first_in, U[arc, j], U[arc, j + 1])
    t0 = np.where(first_in, T[arc, j], -T[arc, j + 1])

    def on_sphere(d):
        return center + R * (np.cos(d)[:, None] * u0 + np.sin(d)[:, None] * t0)

    lo, hi = np.zeros(len(j)), np.full(len(j), step)
    for _ in range(_N_POLISH):
        mid = 0.5 * (lo + hi)
        mid_in = body.defining(on_sphere(mid)) <= 0.0
        lo, hi = np.where(mid_in, mid, lo), np.where(mid_in, hi, mid)
    return on_sphere(lo)


def cone_shell_points(cone: ConeDescriptor, R, n_azimuth=_N_AZIMUTH):
    """Closed-form samples of (boundary of cone) ∩ S_R: R times its boundary rays."""
    _check_azimuths(n_azimuth)
    if cone.dim == 0:
        raise EmptyShellIntersection("trivial cone has no shell points")
    return R * cone.boundary_rays(n_azimuth)


def cdist(A, B):
    """Euclidean distances between the rows of A and the rows of B, one row per
    point of A, each sum of squares taken coordinate by coordinate in order."""
    d = np.zeros((len(A), len(B)))
    for a, b in zip(np.transpose(A), np.transpose(B)):
        diff = np.subtract.outer(a, b)
        diff *= diff
        d += diff
    return np.sqrt(d, out=d)


def _hausdorff(A, B):
    d = cdist(A, B)
    d_ab = float(d.min(axis=1).max())
    d_ba = float(d.min(axis=0).max())
    return max(d_ab, d_ba), d_ab, d_ba


def shell_distance(body, cone, R, n_azimuth=_N_AZIMUTH) -> ShellDistance:
    """Hausdorff distance between boundary and cone samples on S_R."""
    R = float(R)
    if R < 10.0 * (float(np.linalg.norm(body.translation)) + 1.0):
        raise ValueError("R must be at least 10*(translation magnitude + 1)")
    A = body_shell_points(body, R, n_azimuth=n_azimuth)
    B = cone_shell_points(cone, R, n_azimuth=n_azimuth)
    d, d_ab, d_ba = _hausdorff(A, B)
    if body.ambient_dim == 2:
        err = 1e-9 * R
    else:
        err = R * (2.0 * math.pi / n_azimuth)  # azimuthal sampling resolution
    return ShellDistance(R, d, d / R, err, d_ab, d_ba)


def blowdown_check(body, R, n_azimuth=_N_AZIMUTH) -> float:
    """Hausdorff distance of (1/R)(boundary - x0) to the recession cone at S_1."""
    R = float(R)
    x0 = body.interior_point()
    cone = body.recession_cone()
    A = body_shell_points(body, R, center=x0, n_azimuth=n_azimuth)
    B = cone_shell_points(cone, R, n_azimuth=n_azimuth)
    d, _, _ = _hausdorff(A - x0, B)
    return d / R


def trend_verdict(distances) -> str:
    """Asymptotic / not_asymptotic / inconclusive from a d(R) sequence."""
    d = [float(x) for x in distances]
    if len(d) < 3:
        raise ValueError("need at least 3 radii")
    decreasing = all(b < a for a, b in zip(d, d[1:]))
    if decreasing and d[-1] < 0.1 * d[0]:
        return "asymptotic"
    if all(b >= a for a, b in zip(d[-3:], d[-2:])):
        return "not_asymptotic"
    return "inconclusive"


def asymptotic_diagnostic(body, radii, n_azimuth=_N_AZIMUTH) -> str:
    """Fit the trend of d_asym(R) against the body's own recession cone."""
    radii = [float(r) for r in radii]
    if len(radii) < 4 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be >= 4 increasing values")
    if radii[-1] < 100.0 * radii[0]:
        raise ValueError("radii must span at least two decades")
    cone = body.recession_cone()
    d = [shell_distance(body, cone, R, n_azimuth=n_azimuth).d_asym for R in radii]
    return trend_verdict(d)
