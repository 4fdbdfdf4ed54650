"""Blow-down and asymptotic-cone diagnostics on spheres of radius R.

A point of (boundary ∩ S_R) is a zero of the defining function F on S_R,
so the body's shell points are found on the sphere itself, with no ray
cast. Every scan is about the origin: ``blowdown_check`` moves the body
by -x0 rather than the sphere by x0. F is sampled on great-circle arcs of
S_R: the whole circle in 2D, and in 3D one meridian from pole to pole per
azimuth, in the vertical half-plane at that azimuth. The arcs are built
once (in 3D once per azimuth count) and cached; the scan makes one
``defining`` call per chunk of whole arcs, at most ``_SCAN_POINTS`` points
(the whole 2D circle in one), each on a batch held coordinate-major, one
contiguous block per coordinate, where F's sums over coordinates run as
whole-row adds. F is pointwise, so the chunks change no value; they keep
each temporary of the scan under glibc's 128 KB mmap threshold, so that it
is served from the heap rather than mapped, and faulted in, anew each scan.
Each sign change of F <= 0 between neighbouring samples brackets one
crossing; the changes are read off one flat index of the (arcs, samples -
1) mask, divided by samples - 1 into (arc, sample), in np.nonzero's order.
The scan's F values at both ends of a bracket start its solve. All
brackets are solved together by Chandrupatla's bracketed inverse-quadratic
method (T. R. Chandrupatla, "A new hybrid quadratic/bisection algorithm
for finding the zero of a nonlinear function without using derivatives",
Adv. Eng. Software 28 (1997) 145-149), one ``defining`` call per round
over the brackets still open, in the angle d from the bracket's inside
sample along the arc, so the crossing is resolved to rounding relative to
the bracket rather than to the arc's absolute angle. A round takes the
inverse-quadratic step through the last three points where Chandrupatla's
test allows it and bisects otherwise, and also whenever the last two
rounds together did not halve the bracket, so any three rounds at least
halve it. A bracket stops once it is narrower than 2^-55 + 4 eps d
radians, or F is exactly 0 at its new point: R times that width is under
0.4 ulp(R), below the rounding of forming the point R (cos d u0 + sin d
t0) itself, so a narrower bracket would not move the point. It gives its
inside end, where F <= 0, as does a bracket still open at the cap of
112 rounds, twice the 56 steps of a bisection.
The cone/sphere intersection is R times the cone's closed-form unit boundary
rays. The symmetric Hausdorff distance between the two sample sets is the
reported shell distance (one-sided values are exposed for verbose output),
read off the matrix of their pairwise distances, which ``cdist`` builds in
numpy one coordinate at a time. A radius at which the scan or the distances
would overflow (from about 1e154, where coordinates are squared) is a
ValueError naming it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .bodies import ConeDescriptor
from .bodies import ray_hits_batch  # noqa: F401  (perfbench/tracer.py wraps it by name)
from .errors import EmptyShellIntersection

_N_AZIMUTH = 720
_N_SCAN_2D = 2048  # samples on the circle
_N_SCAN_MERIDIAN = 192  # samples on each meridian, both poles included
# points per scan call: 21 meridians, 32 KB per coordinate row
_SCAN_POINTS = 4096
# crossing solver (_crossings): a bracket of angle d is done once narrower
# than _POLISH_ABS + _POLISH_REL * d radians (R times that is under 0.4
# ulp(R)); a cap on its rounds, twice the 56 steps of the bisection this
# solver replaced, where 49 take a pi/191 bracket down to the stop
_POLISH_ABS = 2.0 ** -55
_POLISH_REL = 4.0 * np.finfo(float).eps
_N_POLISH = 112
# rows of the solver state: x1, F(x1), x2, F(x2), x3, F(x3), the next
# point, the widths of the last two rounds, then u0 and t0 coordinate-major
_X1, _F1, _X2, _F2, _X3, _F3, _XN, _W, _U = 0, 1, 2, 3, 4, 5, 6, 7, 9


@dataclass(frozen=True)
class ShellDistance:
    """Distances between the boundary and the cone on the sphere S_R."""

    R: float
    d_asym: float
    d_blowdown: float
    err: float
    d_body_to_cone: float
    d_cone_to_body: float


def _arcs(dim, n_azimuth):
    """``_grid``, keyed on the dimension alone in 2D, where the one circle
    does not depend on n_azimuth."""
    return _grid(dim, n_azimuth if dim == 3 else None)


@functools.lru_cache(maxsize=2)  # a 2D and a 3D grid; 6.6 MB in 3D at 720 azimuths
def _grid(dim, n_azimuth):
    """Unit samples u, unit tangents t = du/da and the sample step on great circles.

    u = cos(a) e1 + sin(a) e2 on an even grid of a, exactly e1 or e2 (up to
    sign) at the multiples of pi/2, not 6.1e-17 off, in arrays of shape
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
    # every other |cos| and |sin| of the grid is at least sin(step)
    c[np.abs(c) < step / 4.0] = 0.0
    s[np.abs(s) < step / 4.0] = 0.0
    U, T = c * e1 + s * e2, c * e2 - s * e1
    U.flags.writeable = False  # cached: no caller may write into them
    T.flags.writeable = False
    return np.moveaxis(U, 0, -1), np.moveaxis(T, 0, -1), step


def _on_sphere(R, f, *args):
    """f(*args), a step of the scan on S_R, with a float overflow (in F or
    in the distances) raised as a ValueError naming R; an overflow that F
    itself expects, as exp's, stays inf."""
    try:
        with np.errstate(over="raise"):
            return f(*args)
    except FloatingPointError:
        raise ValueError(f"sphere radius {R} overflows the shell scan") from None


def _check_azimuths(n_azimuth):
    if not (isinstance(n_azimuth, (int, np.integer)) and n_azimuth >= 1):
        raise ValueError(f"n_azimuth must be an integer >= 1, got {n_azimuth!r}")


def body_shell_points(body, R, n_azimuth=_N_AZIMUTH):
    """Sample the boundary points at distance R from the origin."""
    _check_azimuths(n_azimuth)
    R = float(R)
    if not (math.isfinite(R) and R > 0.0):
        raise ValueError(f"sphere radius must be finite and positive, got {R}")
    U, T, step = _arcs(body.ambient_dim, n_azimuth)
    f = _on_sphere(R, _scan, body.defining, R, U)
    inside = f <= 0.0
    arc, j = _sign_changes(inside)
    if len(j) == 0:
        raise EmptyShellIntersection(f"boundary does not meet the sphere of radius {R}")
    # each bracket runs from its inside sample u0 along the tangent t0
    # towards its outside neighbour: p(d) = R (cos(d) u0 + sin(d) t0)
    first_in = inside[arc, j]
    i_in, i_out = np.where(first_in, j, j + 1), np.where(first_in, j + 1, j)
    u0 = U[arc, i_in]
    t0 = np.where(first_in[:, None], T[arc, j], -T[arc, j + 1])
    d = _crossings(body.defining, R, u0, t0, f[arc, i_in], f[arc, i_out], step)
    return R * (np.cos(d)[:, None] * u0 + np.sin(d)[:, None] * t0)


def _scan(F, R, U):
    """F at the samples R U of the arcs, one call per chunk of whole arcs, at
    most ``_SCAN_POINTS`` points each."""
    k = max(1, _SCAN_POINTS // U.shape[1])  # arcs per scan call
    return np.concatenate([F(R * U[i:i + k]) for i in range(0, len(U), k)])


def _sign_changes(inside):
    """(arc, j) of each sign change, between samples j and j + 1 of an arc,
    in np.nonzero's order, read off one flat index of the changes."""
    flat = np.flatnonzero(inside[:, :-1] != inside[:, 1:])
    return np.divmod(flat, inside.shape[1] - 1)


def _crossings(F, R, u0, t0, f_in, f_out, step):
    """The angle d in [0, step] of each bracket's crossing, by Chandrupatla's
    bracketed inverse-quadratic method, all brackets in lockstep.

    Bracket i has F = f_in[i] <= 0 at d = 0 and f_out[i] > 0 (or NaN) at
    d = step, on p(d) = R (cos(d) u0[i] + sin(d) t0[i]). Each round makes
    one coordinate-major ``defining`` call over the open brackets.
    A bracket stops once narrower than 2^-55 + 4 eps d radians, where R
    times its width is under 0.4 ulp(R), the most that forming p(d) can
    resolve. Returns each final bracket's inside end, where F <= 0.
    """
    n, dim = u0.shape
    S = np.empty((_U + 2 * dim, n))
    S[_X1], S[_F1], S[_X2], S[_F2] = 0.0, f_in, step, f_out
    S[_XN], S[_W:_W + 2] = 0.5 * step, step
    S[_U:] = np.concatenate([u0.T, t0.T])
    half_abs, half_rel = 0.5 * _POLISH_ABS, 0.5 * _POLISH_REL
    d = np.zeros(n)
    open_ = np.arange(n)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for k in range(_N_POLISH):
            x = S[_XN]
            p = np.cos(x) * S[_U:_U + dim]
            p += np.sin(x) * S[_U + dim:]
            p *= R
            fx = F(p.T)
            inside = fx <= 0.0
            # x becomes x1; the end on its side is dropped to x3 (x1 itself,
            # or x2, which x1 then replaces)
            flip = inside != (S[_F1] <= 0.0)
            S[_X3:_X3 + 2] = np.where(flip, S[_X2:_X2 + 2], S[_X1:_X1 + 2])
            np.copyto(S[_X2:_X2 + 2], S[_X1:_X1 + 2], where=flip)
            S[_X1], S[_F1] = x, fx
            # (x1 - x2, f1 - f2) and (x3 - x2, f3 - f2)
            d12 = S[_X1:_X1 + 2] - S[_X2:_X2 + 2]
            d32 = S[_X3:_X3 + 2] - S[_X2:_X2 + 2]
            q = d12 / d32
            xi, phi = q[0], q[1]
            w = np.abs(d12[0])
            # half the stopping width, as a fraction of the bracket
            tl = (half_abs + half_rel * S[_X1]) / w
            done = tl > 0.5
            done |= fx == 0.0
            # the inverse-quadratic step t = (x - x1) / (x2 - x1) through
            # (x1, x2, x3), where Chandrupatla's test phi^2 < xi and
            # (1 - phi)^2 < 1 - xi holds and the bracket halved over the last
            # two rounds; a bisection otherwise, and where F is inf or NaN
            # (the test then fails)
            om = 1.0 - q
            a = fx / d12[1]  # f1 / (f1 - f2)
            b = S[_F3] / d32[1]  # f3 / (f3 - f2)
            t = a * (b - (b - 1.0) * phi * om[0] / (xi * om[1]))
            ok = phi * phi < xi
            ok &= om[1] * om[1] < om[0]
            ok &= w + w <= S[_W + k % 2]
            S[_W + k % 2] = w
            t = np.where(ok, t, 0.5)
            # at least half the stopping width from either end
            S[_XN] = S[_X1] - np.minimum(np.maximum(t, tl), 1.0 - tl) * d12[0]
            if np.count_nonzero(done):
                d[open_[done]] = np.where(inside, S[_X1], S[_X2])[done]
                keep = ~done
                open_, S = open_[keep], S.compress(keep, axis=1)
                if open_.size == 0:
                    return d
        # the round cap: the inside end of each bracket still open
        d[open_] = np.where(S[_F1] <= 0.0, S[_X1], S[_X2])
    return d


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
    if cone.ambient_dim != body.ambient_dim:
        raise ValueError(f"a cone in {cone.ambient_dim} dimensions cannot be compared "
                         f"with a body in {body.ambient_dim}")
    R = float(R)
    least = 10.0 * (float(np.linalg.norm(body.translation)) + 1.0)
    if R < least:
        raise ValueError(f"R must be at least 10*(translation magnitude + 1) = {least}, "
                         f"got {R}")
    A = body_shell_points(body, R, n_azimuth=n_azimuth)
    B = cone_shell_points(cone, R, n_azimuth=n_azimuth)
    d, d_ab, d_ba = _on_sphere(R, _hausdorff, A, B)
    if body.ambient_dim == 2:
        err = 1e-9 * R
    else:
        err = R * (2.0 * math.pi / n_azimuth)  # azimuthal sampling resolution
    return ShellDistance(R, d, d / R, err, d_ab, d_ba)


def blowdown_check(body, R, n_azimuth=_N_AZIMUTH) -> float:
    """Hausdorff distance of (1/R)(boundary - x0) to the recession cone at S_1,
    scanned about the origin on the body moved by -x0 (x0 its interior point)."""
    R = float(R)
    moved = replace(body, translation=body.translation - body.interior_point())
    A = body_shell_points(moved, R, n_azimuth=n_azimuth)
    B = cone_shell_points(body.recession_cone(), R, n_azimuth=n_azimuth)
    d, _, _ = _on_sphere(R, _hausdorff, A, B)
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
