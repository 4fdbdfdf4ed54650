"""Blow-down and asymptotic-cone diagnostics on spheres of radius R.

A point of (boundary ∩ S_R) is a zero of the defining function F on S_R,
so the body's shell points are found on the sphere itself, with no ray
cast. Every scan is about the origin: ``blowdown_check`` moves the body
by -x0 rather than the sphere by x0. The arcs of S_R searched are the whole
circle in 2D, and in 3D one meridian from pole to pole per azimuth, in the
vertical half-plane at that azimuth.

A 3D body whose kind has a quadric form that is unbounded (the elliptic
paraboloid, the hyperboloid sheet and the circular cone), moved at most
along e_d, as ``blowdown_check`` moves it, takes a closed form: there F
changes sign once on each meridian, where the form, restricted to the
meridian, is a quadratic in sin a with a root on the upper nappe. The root
gives (cos a, sin a) without an angle, which could not resolve a crossing
near the pole, and two ``defining`` calls close the bracket about it: a
ladder of probes 2^-52 rad apart, then the one step that changes sign split
into 16. A ladder that does not show exactly one sign change sends the
whole call to the scan below. The scan serves every other body: 2D bodies,
kinds without a form (the superellipsoid and the exp, cosh and quartic
epigraphs), bounded quadrics, and quadrics moved off their axis, where the
meridian's equation is a quartic. The 2D circle's crossings are the same
quadratic's roots, with both signs of cos a, but a closed form there moves
the planar shells by rounding, which 2D's error estimate cannot yet bound,
so 2D keeps the scan.

The scan samples F on the arcs. The arcs are built once (in 3D once per
azimuth count) and cached; the scan makes one ``defining`` call per
chunk of whole arcs, at most ``_SCAN_POINTS`` points (the whole 2D
circle in one), each on a batch held coordinate-major, one contiguous
block per coordinate, where F's sums over coordinates run as whole-row
adds. F is pointwise, so the chunks change no value; they keep each
temporary of the scan under glibc's 128 KB mmap threshold, so that it is
served from the heap rather than mapped, and faulted in, anew each scan.
Each sign change of F <= 0 between neighbouring samples brackets one
crossing; the changes are read off one flat index of the (arcs,
samples - 1) mask, divided by samples - 1 into (arc, sample), in
np.nonzero's order. The scan's F values at both ends of a bracket start
its solve. All brackets are solved together by Chandrupatla's bracketed
inverse-quadratic method (T. R. Chandrupatla, Adv. Eng. Software 28 (1997)
145-149) in the angle d from the bracket's inside sample along the arc, so
the crossing is resolved to rounding relative to the bracket rather than
to the arc's absolute angle. A round takes the inverse-quadratic step
through the last three points where Chandrupatla's test allows it and
bisects otherwise, and also whenever the last two rounds together did not
halve the bracket, so any three rounds at least halve it. A bracket stops
once narrower than 2^-55 + 4 eps d radians, where R times its width is
under 0.4 ulp(R), below the rounding of forming its point R (cos d u0 +
sin d t0), or once F is 0 at its newest point, and gives its inside end,
where F <= 0. Its arithmetic does not depend on the rest of the batch, so
its crossing solved alone is bitwise the one solved with its scan.

The cone/sphere intersection is R times the cone's closed-form unit boundary
rays. The symmetric Hausdorff distance between the two sample sets is the
reported shell distance (one-sided values are exposed for verbose output),
read off the matrix of their pairwise distances, which ``cdist`` builds in
numpy one coordinate at a time. A radius at which F or the distances would
overflow (from about 1e154, where coordinates are squared) is a ValueError
naming it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .bodies import ConeDescriptor, _two_product, ray_quadratic
from .bodies import ray_hits_batch  # noqa: F401  (perfbench/tracer.py wraps it by name)
from .errors import EmptyShellIntersection

_N_AZIMUTH = 720
_N_SCAN_2D = 2048  # samples on the circle
_N_SCAN_MERIDIAN = 192  # samples on each meridian, both poles included
# points per scan call: 21 meridians, 32 KB per coordinate row
_SCAN_POINTS = 4096
# crossing solver (_crossings): a bracket of angle d is done once narrower
# than _POLISH_ABS + _POLISH_REL * d radians (R times that is under 0.4
# ulp(R)); a cap on its rounds, over twice the 49 halvings that take a
# pi/191 bracket to the stop
_POLISH_ABS = 2.0 ** -55
_POLISH_REL = 4.0 * np.finfo(float).eps
_N_POLISH = 112
# the closed-form path (_form_crossings): a ladder of angles 2^-52 rad apart
# about each meridian's crossing, and the 16ths of one of its steps
_LADDER = 2.0 ** -52 * np.arange(-5.0, 6.0)
_SPLIT = 2.0 ** -56 * np.arange(1.0, 17.0)


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
        e1 = np.stack([*_azimuths(n_azimuth), np.zeros(n_azimuth)])[:, :, None]
        e2 = np.array([0.0, 0.0, 1.0])[:, None, None]
    c, s = np.cos(a), np.sin(a)
    # every other |cos| and |sin| of the grid is at least sin(step)
    c[np.abs(c) < step / 4.0] = 0.0
    s[np.abs(s) < step / 4.0] = 0.0
    U, T = c * e1 + s * e2, c * e2 - s * e1
    U.flags.writeable = False  # cached: no caller may write into them
    T.flags.writeable = False
    return np.moveaxis(U, 0, -1), np.moveaxis(T, 0, -1), step


def _azimuths(n_azimuth):
    """cos and sin of the meridians' azimuths 2 pi k / n_azimuth."""
    phi = 2.0 * math.pi * np.arange(n_azimuth) / n_azimuth
    return np.cos(phi), np.sin(phi)


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
    """Refuse anything but an integer >= 1; a bool is an int to isinstance."""
    if not (isinstance(n_azimuth, (int, np.integer)) and not isinstance(n_azimuth, bool)
            and n_azimuth >= 1):
        raise ValueError(f"n_azimuth must be an integer >= 1, got {n_azimuth!r}")


def _check_radius(R):
    """R as a float, refusing anything but a finite R > 0."""
    R = float(R)
    if not (math.isfinite(R) and R > 0.0):
        raise ValueError(f"sphere radius must be finite and positive, got {R}")
    return R


def body_shell_points(body, R, n_azimuth=_N_AZIMUTH):
    """Sample the boundary points at distance R from the origin: one per
    meridian from the closed form where it serves the body, else the scan's."""
    _check_azimuths(n_azimuth)
    R = _check_radius(R)
    bases = _meridian_bases(body, R, n_azimuth)
    if bases is not None:
        points = _on_sphere(R, _form_crossings, body.defining, R, *bases)
        if points is not None:
            return points
    return _scanned_points(body, R, n_azimuth)


def _scanned_points(body, R, n_azimuth):
    """``body_shell_points`` by the grid scan and ``_crossings``."""
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


def _meridian_bases(body, R, n_azimuth):
    """Each meridian's crossing u0 and the unit tangent t0 there, towards the
    north pole (two (3, n_azimuth) arrays), from the body's quadric form;
    None unless the body is in 3D, moved at most along e_d by b with |b| <
    R, and its kind has a form Q = sum q_i y_i^2 + e y_d + k that is
    unbounded (q_d <= 0 < q_1, q_2 and k >= 0) and negative at the north
    pole.

    Then on the meridian at azimuth psi, where u = c e_psi + s e_d, F <= 0
    exactly where Q <= 0 and y_d >= 0, and with sigma = 1 - s, Q / R^2 is the
    concave quadratic (q_d - q_psi) sigma^2 + (2 q_psi - (2 q_d eta + e /
    R)) sigma + Q_N / R^2, eta = (R - b) / R and Q_N = Q at the north pole,
    with q_psi = q_1 cos^2 psi + q_2 sin^2 psi. It is negative at sigma = 0
    and positive where y_d = 0, so F changes sign once on the meridian, at
    the smallest positive root, taken without cancellation; c^2 = sigma (2
    - sigma) is formed from it directly, not as 1 - s^2, which near the
    pole would lose the digits of c.
    """
    b = float(body.translation[-1])
    if body.ambient_dim != 3 or np.any(body.translation[:-1]) or not -R < b < R:
        return None
    # e_psi, one column per meridian, then e_d: along them from the body's
    # own origin the form is q_psi x^2 + k and q_d x^2 + e x + k
    E = np.zeros((3, n_azimuth + 1))
    E[0, :-1], E[1, :-1] = _azimuths(n_azimuth)
    E[2, -1] = 1.0
    abc = ray_quadratic(body, np.repeat(body.translation[:, None], n_azimuth + 1, axis=1), E)
    if abc is None:
        return None
    q, (q_d, e, k) = abc[0][:-1], (float(x[-1]) for x in abc)
    eta = (R - b) / R
    C = q_d * eta * eta + (e * eta + k / R) / R
    if not (q_d <= 0.0 and q.min() > 0.0 and k >= 0.0 and C < 0.0):
        return None
    B = 2.0 * q - (2.0 * q_d * eta + e / R)
    with np.errstate(invalid="ignore"):  # NaN where rounding leaves no root: no ladder takes it
        sigma = -2.0 * C / (B + np.sqrt(B * B - 4.0 * (q_d - q) * C))
        c = np.sqrt(sigma * (2.0 - sigma))
    s = 1.0 - sigma
    e_psi = E[:, :-1]
    u0, t0 = c * e_psi, -s * e_psi
    u0[2], t0[2] = s, c
    return u0, t0


def _form_crossings(F, R, u0, t0):
    """The shell point of each meridian from its closed-form crossing u0
    along its tangent t0 ((3, meridians) arrays), in two coordinate-major
    ``defining`` calls; None unless each meridian's ladder shows exactly one
    sign change of F <= 0, from outside to inside.

    The points are p(d) = R (u0 + d t0), at these angles d, where cos d is
    1 and sin d is d to rounding; each coordinate is rounded once, from R
    u0 split exactly into two floats (a second rounding widens the points'
    spread about the crossing, by about a third). The first call is the
    ladder of ``_LADDER``'s angles, 2^-52 rad apart, about d = 0; the second
    splits the one step that changes sign into 16, to 2^-56 rad, under the
    2^-55 rad stop of ``_crossings``. Each meridian returns its first inside
    point, where F <= 0, as a (meridians, 3) array. A meridian's arithmetic
    does not depend on the others: solved alone, it gives the same point
    bitwise.
    """
    hi, lo = _two_product(R, u0)
    Rt0 = R * t0

    def points(d):  # (3, angles, meridians) at the angles d, one row of them an angle
        p = d * Rt0[:, None]
        p += lo[:, None]
        p += hi[:, None]
        return p

    def inside(d):
        p = points(d)
        return (F(p.reshape(3, -1).T) <= 0.0).reshape(p.shape[1:])

    ins = inside(_LADDER[:, None])
    if ins[0].any() or not ins[-1].all() or (ins[:-1] > ins[1:]).any():
        return None
    # the step before each meridian's first inside rung, split; its end, the
    # rung, reads inside
    d_out = _LADDER[ins.argmax(axis=0) - 1]
    ins = inside(d_out + _SPLIT[:-1, None])
    first = np.where(ins.any(axis=0), ins.argmax(axis=0), len(_SPLIT) - 1)
    return points(d_out + _SPLIT[first])[:, 0].T


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
    """The angle d in [0, step] of each bracket's crossing, all brackets in
    lockstep by Chandrupatla's method (see the module docstring).

    Bracket i has F = f_in[i] <= 0 at d = 0 and f_out[i] > 0 (or NaN) at d =
    step on p(d) = R (cos(d) u0[i] + sin(d) t0[i]). A round makes one
    coordinate-major ``defining`` call at the open brackets' points; a closed
    bracket takes its newest point again, so its state stays as it is.
    Returns each bracket's inside end, where F <= 0, once it stops or at the
    cap of ``_N_POLISH`` rounds.
    """
    n = len(f_in)
    u0, t0 = np.ascontiguousarray(u0.T), np.ascontiguousarray(t0.T)
    # (x, F) pairs: the next point xn and the newest x1; in ends, the far
    # end x2, where F has the other sign, and x3, the point last dropped
    xnfn = np.stack((np.full(n, 0.5 * step), f_in))
    x1f1 = np.stack((np.zeros(n), f_in))
    ends = np.stack((np.stack((np.full(n, step), f_out)), x1f1))
    x2f2, x3f3 = ends[0], ends[1]
    side, open_ = f_in <= 0.0, np.ones(n, bool)  # side: F(x1) <= 0
    older = old = step  # the bracket's widths in the last two rounds
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for _ in range(_N_POLISH):
            xn, fn = xnfn[0], xnfn[1]
            p = np.cos(xn) * u0
            p += np.sin(xn) * t0
            p *= R
            fn[open_] = F(p.compress(open_, axis=1).T)
            # xn becomes x1; x1 drops to x3, or if F changed sign, x2 drops and x1 takes its place
            inside = fn <= 0.0
            flip, side = inside != side, inside
            x3f3[...] = x1f1
            np.copyto(ends, ends[::-1], where=flip)
            x1f1, x1, f1 = xnfn, xn, fn
            d12, d32 = x1f1 - x2f2, x3f3 - x2f2
            q = d12 / d32
            xi, phi = q[0], q[1]
            w = np.abs(d12[0])
            tl = (0.5 * _POLISH_ABS + 0.5 * _POLISH_REL * x1) / w  # half the stop, per width
            closed = (tl > 0.5) | (f1 == 0.0)
            if np.count_nonzero(closed) == n:
                break
            # the inverse-quadratic step t = (x - x1) / (x2 - x1) through
            # (x1, x2, x3) where Chandrupatla's test holds (it fails where F
            # is inf or NaN) and the last two rounds halved the bracket
            om_xi, om_phi = 1.0 - xi, 1.0 - phi
            b = x3f3[1] / d32[1]
            y = f1 / d12[1] * (b - (b - 1.0) * phi * om_xi / (xi * om_phi))
            ok = (phi * phi < xi) & (om_phi * om_phi < om_xi) & (w + w <= older)
            older, old = old, w
            # at least half the stop from either end
            t = np.minimum(np.maximum(np.where(ok, y, 0.5), tl), 1.0 - tl)
            open_ = ~closed
            xnfn = x1f1.copy()
            np.subtract(x1, t * d12[0], out=xnfn[0], where=open_)
    return np.where(side, x1f1[0], x2f2[0])


def cone_shell_points(cone: ConeDescriptor, R, n_azimuth=_N_AZIMUTH):
    """Closed-form samples of (boundary of cone) ∩ S_R: R times its boundary
    rays. R must be finite and positive, as for ``body_shell_points``."""
    _check_azimuths(n_azimuth)
    R = _check_radius(R)
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
    """Asymptotic / not_asymptotic / inconclusive from a d(R) sequence of
    finite distances >= 0; a ValueError names the first other entry."""
    d = [float(x) for x in distances]
    for i, x in enumerate(d):
        if not 0.0 <= x < math.inf:
            raise ValueError(f"distance {i} must be finite and non-negative, got {x}")
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
