"""Blow-down and asymptotic-cone diagnostics on spheres of radius R.

The boundary/sphere intersection is sampled by ray casting from an interior
anchor: a coarse angular scan brackets the crossings of ||hit|| = R, and all
brackets are then polished simultaneously by direction bisection, each step
starting the root-finder from the previous step's hit distances.  In 3D the
scan runs over blocks of azimuths, a few thousand rays per root-finder call.
The cone/sphere intersection is R times the cone's closed-form unit boundary
rays.  The
symmetric Hausdorff distance between the two sample sets is the reported
shell distance (one-sided values are exposed for verbose output).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .bodies import ConeDescriptor, ray_hits_batch
from .errors import EmptyShellIntersection

_N_AZIMUTH = 720
_N_SCAN_2D = 2048
_N_SCAN_SLICE = 192
_N_POLISH = 48
_AZIMUTH_BLOCK = 16  # azimuths per 3D scan call: 16 x 192 rays bound its memory


@dataclass(frozen=True)
class ShellDistance:
    """Distances between the boundary and the cone on the sphere S_R."""

    R: float
    d_asym: float
    d_blowdown: float
    err: float
    d_body_to_cone: float
    d_cone_to_body: float

    def csv_row(self):
        return [self.R, self.d_asym, self.d_blowdown, self.err]


def _radius_gap(body, cone, anchor, center, R, dirs, guess=None):
    """||boundary hit - center|| - R per direction, and the hit distances.

    Both are +inf along recessive rays.
    """
    g = np.full(len(dirs), np.inf)
    t = np.full(len(dirs), np.inf)
    free = ~np.asarray(cone.contains(dirs))
    if free.any():
        t[free] = ray_hits_batch(body, anchor, dirs[free],
                                 guess=None if guess is None else guess[free])
        hits = anchor + t[free, None] * dirs[free]
        g[free] = np.linalg.norm(hits - center, axis=-1) - R
    return g, t


def _collect_brackets(dirs, g, t, wrap):
    """Adjacent directions along the scan axis where the sign of g flips.

    dirs has shape (..., n, dim) and g, t shape (..., n); inf counts as
    positive. Returns the (negative, positive) direction pairs and the hit
    distances of the negative ones, in row-major order.
    """
    finite = np.isfinite(g)
    sign = np.where(finite, g > 0, True)
    flip = (sign != np.roll(sign, -1, axis=-1)) & (finite | np.roll(finite, -1, axis=-1))
    if not wrap:
        flip[..., -1] = False
    *rows, j = np.nonzero(flip)
    a = (*rows, j)
    b = (*rows, (j + 1) % g.shape[-1])
    a_pos = sign[a]
    neg = np.where(a_pos[:, None], dirs[b], dirs[a])
    pos = np.where(a_pos[:, None], dirs[a], dirs[b])
    return neg, pos, np.where(a_pos, t[b], t[a])


def _polish_brackets(body, cone, anchor, center, R, neg, pos, t_neg):
    """Bisect each (negative, positive) direction bracket down to the shell.

    Each step starts the root-finder at the previous step's hit distances.
    """
    guess = t_neg
    for _ in range(_N_POLISH):
        mid = neg + pos
        mid /= np.linalg.norm(mid, axis=-1, keepdims=True)
        g, t = _radius_gap(body, cone, anchor, center, R, mid,
                           np.where(np.isfinite(guess), guess, t_neg))
        take_pos = np.where(np.isfinite(g), g > 0, True)
        pos = np.where(take_pos[:, None], mid, pos)
        neg = np.where(take_pos[:, None], neg, mid)
        t_neg = np.where(take_pos, t_neg, t)
        guess = t
    return anchor + t_neg[:, None] * neg


def _scan_3d(body, cone, anchor, center, R, n_azimuth):
    """Brackets of the shell crossing in each azimuth plane, scanned in blocks."""
    psi = math.pi * ((np.arange(_N_SCAN_SLICE) + 0.5) / _N_SCAN_SLICE - 0.5)
    phi = 2.0 * math.pi * np.arange(n_azimuth) / n_azimuth
    # (azimuth, slice, xyz) directions: cos(psi) * (cos phi, sin phi, 0) + sin(psi) * e3
    w = np.stack([np.cos(phi), np.sin(phi), np.zeros(n_azimuth)], axis=-1)
    e3 = np.array([0.0, 0.0, 1.0])
    cos_psi, sin_psi = np.cos(psi)[:, None], np.sin(psi)[:, None] * e3
    found = []
    for k in range(0, n_azimuth, _AZIMUTH_BLOCK):
        dirs = cos_psi * w[k:k + _AZIMUTH_BLOCK, None, :] + sin_psi
        flat = dirs.reshape(-1, 3)
        g, t = _radius_gap(body, cone, anchor, center, R, flat)
        found.append(_collect_brackets(dirs, g.reshape(dirs.shape[:2]),
                                       t.reshape(dirs.shape[:2]), wrap=False))
    return tuple(np.concatenate(parts) for parts in zip(*found))


def body_shell_points(body, R, center=None, n_azimuth=_N_AZIMUTH):
    """Sample the boundary points at distance R from center (default origin)."""
    dim = body.ambient_dim
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    anchor = body.interior_point()
    cone = body.recession_cone()
    if dim == 2:
        theta = 2.0 * math.pi * np.arange(_N_SCAN_2D) / _N_SCAN_2D
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        g, t = _radius_gap(body, cone, anchor, center, R, dirs)
        neg, pos, t_neg = _collect_brackets(dirs, g, t, wrap=True)
    else:
        neg, pos, t_neg = _scan_3d(body, cone, anchor, center, R, n_azimuth)
    if len(neg) == 0:
        raise EmptyShellIntersection(f"boundary does not meet the sphere of radius {R}")
    return _polish_brackets(body, cone, anchor, center, R, neg, pos, t_neg)


def cone_shell_points(cone: ConeDescriptor, R, n_azimuth=_N_AZIMUTH):
    """Closed-form samples of (boundary of cone) ∩ S_R: R times its boundary rays."""
    if cone.dim == 0:
        raise EmptyShellIntersection("trivial cone has no shell points")
    return R * cone.boundary_rays(n_azimuth)


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
