"""Cut-volume functional V(a), its finite-difference gradient, and the
constancy scans for the parallel-cut / homothety-cut characterizations.

V(a) is the volume of the body on the <= side of the hyperplane {<a,x> = 1},
computed by Fubini slicing perpendicular to a. On a 3D body whose kind has
a form (the ellipsoid, the paraboloid, the hyperboloid sheet and the cone)
each bounded section is an ellipse, whose area is a polynomial of degree
at most 2 in the level, so a cut volume is a cubic in its upper level and
2-node Gauss-Legendre gives it exactly, from two levels. Elsewhere (the
superellipsoid and every 2D body) the section measure is integrated over
the levels s = c + h x (3 - x^2) / 2, x in [-1, 1], by ``quad``, an
adaptive form of QUADPACK's Gauss-Kronrod rules that runs several
integrals in lockstep, the open panels of all of them in three flat
arrays.  The map keeps a measure polynomial in the level a polynomial, and
3D bodies take the 15-point rule, 2D ones the 21-point rule.  Either way
the volumes of one call share their section batches: the two levels of
every quadric cut are one batch, and each ``quad`` round sections the
levels of every open panel of every integral in one batch, so a volume
that one panel meets costs one batch of 15 levels in 3D, 21 in 2D.  A
gradient's 2d + 1 volumes, or a constancy scan's volumes at all its
anchors, share their batches, each volume bitwise as
``halfspace_cut_volume`` gives it; a gradient's first batch also sections
its cut plane, for its measure, centroid and diameter, as one more level of
the same kernel call.  The cut normals are set up once (``_plane_setup``,
for their level ranges), and the section kernel reads that set-up.
``section_measure`` is defined at every finite level, 0 where the plane
misses or grazes the body, so the integrand catches no section error.
Unboundedness of a cut is decided analytically from the recession cone,
with the margin by which the section kernel calls a section unbounded,
never by runaway integration.
Floating cuts are the parallel and homothety cuts (a tangent plane shifted
by k e_d or scaled by k about 0), sampled by normal instead of by abscissa.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bodies import INF, _check_units, _graph_contacts, has_form
from .centroids import _check_count
from .errors import DegenerateCut, NotApexCentered, NotGraphLike, OriginInsideBody
from .sections import (
    DEFAULT_RTOL,
    _check_levels,
    _check_measures,
    _rtols,
    _plane_setup,
    _sections,
    section_measure,
)
from .sections import section_diameter, section_stats  # noqa: F401  (perfbench/tracer.py wraps them by name)

_MAX_PANELS = 200  # open panels past which quad stops refining
# the largest shift (in body scales) or factor of a moved tangent cut: its
# volumes grow as up to the d-th power of it, so at 1e30 a 3D one is about
# 1e90 scale^3, far from overflow; past 1e150 they overflow, or the cut's
# boundary search fails
_MAX_MOVE = 1e30
# 2-node Gauss-Legendre on [lo, hi]: its nodes lie 1 - 1/sqrt(3) half-widths
# in from the ends (the nearest double; formed from the nearer end, each
# node keeps the digits of that end)
_GAUSS_END = 0.4226497308103742

# QUADPACK's Gauss-Kronrod tables (Piessens et al., QUADPACK, 1983), each
# given by its abscissae x_1 > ... > x_n = 0 on [-1, 1] with the weights there
# of its Kronrod rule and of its Gauss rule on the even-numbered x_2, x_4, ...
# dqk21: numpy's 10 Gauss nodes are QUADPACK's bit for bit; its Gauss weights
# are a few ulp off, so the weights are QUADPACK's own.
_XGK = np.zeros(11)
_XGK[0:10:2] = (0.995657163025808080735527280689003, 0.930157491355708226001207180059508,
                0.780817726586416897063717578345042, 0.562757134668604683339000099272694,
                0.294392862701460198131126603103866)
_XGK[1:10:2] = -np.polynomial.legendre.leggauss(10)[0][:5]
_WGK = np.array([0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                 0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                 0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                 0.123491976262065851077208745524776, 0.134709217311473325928054001771707,
                 0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
                 0.149445554002916905664936468389821])
_WG = np.zeros(11)
_WG[1:10:2] = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
               0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
               0.295524224714752870173892994651338)
# dqk15: numpy's largest of the 7 Gauss nodes is an ulp above QUADPACK's, so
# the whole table is QUADPACK's own.
_XGK15 = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                   0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                   0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
                   0.207784955007898467600689403773245, 0.0])
_WGK15 = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                   0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                   0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                   0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG15 = np.zeros(8)
_WG15[1::2] = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
               0.381830050505118944950369775488975, 0.417959183673469387755102040816327)


def _mirror(v, sign=1.0):
    """A table over all 2n - 1 nodes in increasing order from its n entries at x_1, ..., x_n."""
    return np.concatenate((sign * v[:-1], v[::-1]))


# (nodes, Kronrod weights, Gauss weights) of each rule, as ``quad`` takes it
DQK21 = _mirror(_XGK, -1.0), _mirror(_WGK), _mirror(_WG)
DQK15 = _mirror(_XGK15, -1.0), _mirror(_WGK15), _mirror(_WG15)


def quad(f, a, b, epsabs, epsrel, rule=DQK21):
    """Integrals of f over the intervals [a_k, b_k], k < K, by adaptive
    bisection with a Gauss-Kronrod rule, all K in lockstep.

    a, b and epsrel are numbers or arrays of K; returns the K integrals.
    f(x, k) maps a 1-D array of points x, point i in the interval of
    integral k[i], to the integrands' values there.  The open panels of all
    integrals are three flat arrays, lo, hi and their integral k, integral
    k's panels one block in ascending k, and each round evaluates the nodes
    of all of them in one call.  rule is the table (nodes, Kronrod weights,
    Gauss weights) on [-1, 1], ``DQK21`` or ``DQK15``, and each panel is
    scored with QUADPACK's error estimate for it (Piessens et al.,
    QUADPACK, 1983).  Each integral stops on its own once its panels'
    scores sum to within max(epsabs, epsrel_k |integral|), QUADPACK's own
    test; until then its panels within their share of that bound by width
    close, and the others are bisected, left halves before right halves.
    Past ``_MAX_PANELS`` open panels of one integral its sum so far is
    taken, with one RuntimeWarning a round.  A round after which every
    integral has stopped returns at once, with no split bookkeeping.
    """
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    K = len(a)
    nodes, kronrod_w, gauss_w = rule
    lo, hi, k = a, b, np.arange(K)
    # each integral's sum and error over its closed panels; its result once it stops
    total, total_err = np.zeros(K), np.zeros(K)
    while k.size:
        centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fx = f((centre[:, None] + half[:, None] * nodes).ravel(), np.repeat(k, nodes.size))
        fx = fx.reshape(k.size, -1)
        # einsum's row sums, unlike a matrix product's, do not depend on the row count
        kronrod = np.einsum("ij,j->i", fx, kronrod_w)
        result = kronrod * half
        resabs = np.einsum("ij,j->i", np.abs(fx), kronrod_w) * half
        resasc = np.einsum("ij,j->i", np.abs(fx - 0.5 * kronrod[:, None]), kronrod_w) * half
        err = np.abs((kronrod - np.einsum("ij,j->i", fx, gauss_w)) * half)
        ratio = 200.0 * err / np.where(resasc > 0.0, resasc, 1.0)
        err = np.where(resasc > 0.0, resasc * np.minimum(1.0, ratio ** 1.5), err)
        err = np.maximum(err, 50.0 * np.finfo(float).eps * resabs)
        out = total + np.bincount(k, result, K)
        tol = np.fmax(epsabs, epsrel * np.abs(out))
        short = err > tol[k] * (hi - lo) / (b - a)[k]
        n_short = np.bincount(k, short, K)
        done = (total_err + np.bincount(k, err, K) <= tol) | (n_short == 0)
        if np.any(~done & (2 * n_short > _MAX_PANELS)):
            warnings.warn(f"quad: more than {_MAX_PANELS} panels short of the tolerance; "
                          "returning the sum so far", RuntimeWarning, stacklevel=2)
            done |= 2 * n_short > _MAX_PANELS
        if done.all():
            return out
        total = np.where(done, out, total + np.bincount(k, np.where(short, 0.0, result), K))
        total_err += np.bincount(k, np.where(short, 0.0, err), K)
        split = short & ~done[k]
        order = np.argsort(np.tile(k[split], 2), kind="stable")
        lo = np.concatenate((lo[split], centre[split]))[order]
        hi = np.concatenate((centre[split], hi[split]))[order]
        k = np.tile(k[split], 2)[order]
    return total


@dataclass(frozen=True)
class CutVolumeResult:
    """V(a), finite-difference gradient, and the centroid-identity residuals."""

    a: np.ndarray
    V: float
    grad: np.ndarray
    lam: float  # <a, grad V>
    identity_residual: float  # ||x(a) - grad/lam||
    moment_residual: float  # ||grad + measure * x(a) / ||a|| ||
    err_estimate: float
    section_measure: float
    section_centroid: np.ndarray
    section_diameter: float


def _level_ranges(body, U, T):
    """The levels that body ∩ {<u,x> <= t} spans, for each row u of an (n, d)
    array of unit normals and entry t of T, in one pass: the ``PlaneSetup``
    of U, whose support levels (lo, hi) = (-h(-u), h(u)) the section kernel
    checks its levels on, and the ranges (lo, s_hi) of the cuts, s_hi =
    min(t, hi), with fixed the volume itself where it needs no integral
    (NaN elsewhere): +inf when the cut contains a recession direction, 0
    when the halfspace misses the interior.  Returns (setup, s_hi, fixed).
    """
    # as the section kernel decides it, a cone that meets the planes within
    # rounding meets them; then, or where the cone is not positive on u,
    # some recession direction stays in the halfspace: infinite volume
    setup = _plane_setup(body, U)
    lo = setup.lo
    s_hi = np.minimum(T, setup.hi)
    fixed = np.where(s_hi <= lo + 1e-12 * body.scale, 0.0, np.nan)
    meets = setup.meets | ~setup.up
    if np.count_nonzero(meets):
        fixed[meets] = np.where(T <= lo, 0.0, INF)[meets]
    return setup, s_hi, fixed


def _cut_volumes(body, ranges, rtols, plane=None):
    """Volumes of the cuts of body over the level ranges (setup, s_hi, fixed)
    of ``_level_ranges`` (where fixed is a number, the volume itself), each
    to its own rtols[k], with the sections of all of them in shared
    batches, every one on the cut normals' own ``PlaneSetup``.

    On a 3D body whose kind has a form (``has_form``) the section measure
    is a polynomial of degree at most 2 in the level, so 2-node
    Gauss-Legendre gives each volume exactly: one batch sections the two
    levels of every cut, each formed as an offset from its nearer end. The
    rule rests on the body, not on how each area is found, so a level whose
    closed form F refuses takes the polar rule in the same batch.
    Elsewhere the integrals run in one lockstep ``quad``, whose every round
    sections the levels of all of them in one batch.

    Returns the volumes and, for plane = (i, t, rtol), the section {<u,x> =
    t} of the normal u of row i: its measure, centroid, diameter and
    whether its anchor is inside the body, from the first batch, in which
    it rides as one more level.
    """
    setup, s_hi, volumes = ranges
    rtols = _rtols(rtols, len(volumes))
    volumes = volumes.copy()
    todo = np.flatnonzero(np.isnan(volumes))
    if not todo.size:
        return volumes, None
    cuts = setup.rows(todo)
    rtols, s_lo, s_hi = rtols[todo], cuts.lo, s_hi[todo]
    section = None

    def measures(k, levels):
        """The section measures of the cuts k at levels, with the plane's
        section in the first call."""
        nonlocal plane, section
        if plane is None:
            return section_measure(body, cuts.rows(k), levels, rtol=rtols[k])
        i, t, rtol = plane
        planes = setup.rows(np.append(todo, i))
        extra = np.arange(k.size + 1) == k.size
        mu, centroid, _, _, _, diam, inside = _sections(
            body, planes.normals, np.append(k, len(todo)), np.append(levels, t),
            np.append(rtols[k], rtol), extra, extra, setup=planes)
        section, plane = (float(mu[-1]), centroid[-1], float(diam[0]), inside[-1]), None
        return mu[:-1]

    h = 0.5 * (s_hi - s_lo)
    if body.ambient_dim == 3 and has_form(body):
        offset = _GAUSS_END * h
        mu = measures(np.repeat(np.arange(len(todo)), 2),
                      np.stack((s_lo + offset, s_hi - offset), axis=1).ravel())
        volumes[todo] = h * (mu[0::2] + mu[1::2])
        return volumes, section

    # levels s = c + h x (3 - x^2) / 2 over x in [-1, 1]: s - s_lo and s_hi - s
    # go as (1 -+ x)^2 at the ends, which removes a 2D chord's square root
    # there, and a measure polynomial in s stays a polynomial in x
    c = 0.5 * (s_lo + s_hi)

    def g(x, k):
        return measures(k, c[k] + h[k] * (0.5 * x * (3.0 - x * x))) * (
            1.5 * h[k] * (1.0 - x) * (1.0 + x))

    # a 3D measure goes to 0 linearly at a curved support level, where the
    # 15-point rule meets it; a 2D chord goes as the square root, which the
    # map removes only to branch points near the ends (sqrt(4 - x^2) on the
    # disk), where the 15-point estimate falls short
    volumes[todo] = quad(g, np.full(len(todo), -1.0), np.ones(len(todo)),
                         epsabs=1e-14 * body.scale ** body.ambient_dim, epsrel=rtols,
                         rule=DQK15 if body.ambient_dim == 3 else DQK21)
    return volumes, section


def halfspace_cut_volume(body, u, t, rtol=DEFAULT_RTOL) -> float:
    """Volume of body ∩ {<u,x> <= t} for a unit normal u.

    +inf when the cut contains a recession direction; 0 when the halfspace
    misses the interior.
    """
    t = float(t)
    if math.isnan(t):
        raise ValueError("hyperplane level must be a number")
    U = np.array(_check_units(np.asarray(u, dtype=float)[None]))
    return _volume(body, U, np.array([t]), rtol)


def _volume(body, U, T, rtol):
    """The volume of one cut of a checked plane, as a number."""
    return float(_cut_volumes(body, _level_ranges(body, U, T), [rtol])[0][0])


def _cut_planes(A):
    """Unit normals and levels of the hyperplanes {<a,x> = 1}, one per row a
    of A."""
    nrm = np.sqrt(np.vecdot(A, A))
    # written so that a NaN fails the test too
    if not (nrm.min() > 0.0 and nrm.max() < INF):
        raise ValueError("cut parameter must be finite and nonzero")
    return _check_units(A / nrm[:, None]), 1.0 / nrm


def cut_volume(body, a, rtol=DEFAULT_RTOL) -> float:
    """V(a) = volume of body on the <= side of {<a,x> = 1}."""
    return _volume(body, *_cut_planes(np.asarray(a, dtype=float)[None]), rtol)


def cut_gradient(body, a, rtol=DEFAULT_RTOL) -> CutVolumeResult:
    """Central-difference gradient of V plus the centroid-identity residuals.

    V(a) and the 2d perturbed volumes V(a +- step e_j) share their section
    batches (one batch of two levels each on a 3D quadric, the rounds of one
    lockstep ``quad`` elsewhere), and each volume comes out bitwise as
    ``cut_volume`` gives it. Its first batch also sections the cut plane,
    with its centroid and diameter, bitwise as ``section_stats`` and
    ``section_diameter`` give them. Which cuts are empty or unbounded is read off the recession cone,
    and a plane outside ``admissible_levels`` is refused (``LevelOutOfRange``),
    before any integration; a plane that grazes the body or whose measure is
    below the threshold raises ``DegenerateSection`` after V(a)'s own error.
    """
    a = np.asarray(a, dtype=float)
    _rtols(rtol, 1)  # before the step, which it sets
    if bool(body.contains(np.zeros(body.ambient_dim))):
        raise OriginInsideBody("translate the body so that 0 is outside first")
    # the difference quotient amplifies quadrature noise by 1/step, so the
    # perturbed volumes are computed tighter than the requested tolerance
    fd_rtol = min(rtol, 1e-10)
    nrm = float(np.linalg.norm(a))
    if not (0.0 < nrm < INF):
        raise ValueError("cut parameter must be finite and nonzero")
    step = max(1.0, nrm) * fd_rtol ** (1.0 / 3.0)
    dim = body.ambient_dim
    # a, then a + step e_j and a - step e_j for each j
    E = step * np.eye(dim)
    U, T = _cut_planes(np.vstack([a, np.stack([a + E, a - E], axis=1).reshape(-1, dim)]))
    ranges = _level_ranges(body, U, T)
    setup, _, fixed = ranges
    if not math.isnan(fixed[0]):
        raise DegenerateCut(f"V(a) = {float(fixed[0])} is not finite positive")
    if np.any(fixed[1:] == INF):
        raise DegenerateCut("perturbed cut became unbounded; reduce the step")
    _check_levels(body, T[:1], float(setup.lo[0]), float(setup.hi[0]))
    volumes, section = _cut_volumes(body, ranges, [rtol] + [fd_rtol] * (2 * dim),
                                    plane=(0, float(T[0]), rtol))
    V0 = float(volumes[0])
    if not V0 > 0.0:  # every level of the cut grazed the body
        raise DegenerateCut(f"V(a) = {V0} is not finite positive")
    measure, centroid, diam, inside = section
    _check_measures(body, measure, inside)
    grad = (volumes[1::2] - volumes[2::2]) / (2.0 * step)
    lam = float(a @ grad)
    identity_residual = float(np.linalg.norm(centroid - grad / lam))
    # growing a shrinks the cut, so the gradient points against the moment
    moment_residual = float(np.linalg.norm(grad + measure * centroid / nrm))
    err = fd_rtol * V0 / step + step ** 2
    return CutVolumeResult(
        a=a,
        V=V0,
        grad=grad,
        lam=lam,
        identity_residual=identity_residual,
        moment_residual=moment_residual,
        err_estimate=err,
        section_measure=measure,
        section_centroid=centroid,
        section_diameter=diam,
    )


def _check_move(name, value, body, shift):
    """Refuse a moved tangent cut's shift (shift True) or factor outside (0,
    ``_MAX_MOVE`` body scales] or (1, ``_MAX_MOVE``], before any arithmetic."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    floor, cap = (0.0, _MAX_MOVE * body.scale) if shift else (1.0, _MAX_MOVE)
    if not floor < value <= cap:
        raise ValueError(f"{name} must be > {floor:g} and at most {cap:g}, got {value!r}")


def _moved_tangent_cuts(body, normals, levels, mode, k, rtol):
    """Volumes of body ∩ {<n,x> <= t} for the tangent planes {<n,x> = s},
    one per row n of normals (inner unit normals) and entry s of levels,
    each moved by k: t = s + k n_d for mode "translate" (shift by k e_d),
    t = k s for "scale" (about the origin).  Their sections share their
    batches (see ``_cut_volumes``), each volume bitwise as
    ``halfspace_cut_volume`` gives it; an empty cut is 0 and an unbounded
    one inf.
    """
    T = levels + k * normals[:, -1] if mode == "translate" else k * levels
    U = _check_units(normals)
    volumes = _cut_volumes(body, _level_ranges(body, U, T), rtol)[0]
    return volumes.tolist()


def parallel_cut_scan(body, k, anchors, rtol=DEFAULT_RTOL):
    """Volumes between vertically shifted tangent planes and the surface.

    Constant across anchors exactly for elliptic paraboloids.  A body is
    graph-like here when its recession cone is a ray.
    """
    _check_move("shift k", k, body, True)
    if body.recession_cone().dim != 1:
        raise NotGraphLike("parallel cuts need a graph-like body whose recession cone is a ray")
    points, normals = _graph_contacts(body, anchors)
    return _moved_tangent_cuts(body, normals, np.vecdot(normals, points), "translate", k, rtol)


def homothety_cut_scan(body, k, anchors, rtol=DEFAULT_RTOL):
    """Volumes between homothetically scaled tangent planes and the surface.

    Constant across anchors exactly for hyperboloid sheets (apex-centered).
    The body must be a graph (else ``NotGraphLike``) with translation 0
    (else ``NotApexCentered``), and each tangent plane must separate 0 from
    the surface (else ``DegenerateCut``).
    """
    _check_move("homothety factor k", k, body, False)
    points, normals = _graph_contacts(body, anchors)
    if float(np.linalg.norm(body.translation)) > 0.0:
        raise NotApexCentered("body must keep its asymptotic-cone apex at 0")
    levels = np.vecdot(normals, points)
    if np.any(levels <= 1e-12 * body.scale):
        raise DegenerateCut("tangent plane does not separate the apex from the surface")
    return _moved_tangent_cuts(body, normals, levels, "scale", k, rtol)


def floating_constancy(body, mode, lam, n_normals=12, seed=0, rtol=DEFAULT_RTOL):
    """Spread of cut volumes beyond support hyperplanes of a shifted/scaled copy.

    mode "translate": copy is body + lam * e_last (lam > 0).
    mode "scale":     copy is lam * body (lam > 1).

    The first n_normals (a whole number >= 1) sampled normals whose cap is
    finite and positive give the values, in sampling order; as many caps as
    values are missing are integrated together (see ``_cut_volumes``), each
    bitwise as ``halfspace_cut_volume`` gives it.
    """
    _check_count(n_normals, "n_normals")
    if mode not in ("translate", "scale"):
        raise ValueError("mode must be 'translate' or 'scale'")
    _check_move("lam", lam, body, mode == "translate")
    _rtols(rtol, 1)  # before the draws, some of which may integrate nothing
    rng = np.random.default_rng(seed)
    values = []
    attempts = 0
    while len(values) < n_normals and attempts < 100 * n_normals:
        # draw, in order, as many contacts as values are missing, and
        # integrate the caps beyond the copy's support hyperplanes there
        normals, points = [], []
        while len(normals) < n_normals - len(values) and attempts < 100 * n_normals:
            attempts += 1
            u = rng.normal(size=body.ambient_dim)
            u[-1] = -abs(u[-1]) - 0.3 * np.linalg.norm(u[:-1])  # bias downward
            u /= np.linalg.norm(u)
            _, x, on = body.gauss_map(u[None])
            if on[0]:
                normals.append(-u)
                points.append(x[0])
        normals, points = (np.reshape(v, (-1, body.ambient_dim)) for v in (normals, points))
        # an empty or unbounded cap, or one whose every level grazed the body, gives no value
        levels = np.vecdot(normals, points)
        values += [v for v in _moved_tangent_cuts(body, normals, levels, mode, lam, rtol)
                   if 0.0 < v < INF]
    if len(values) < n_normals:
        raise DegenerateCut("could not sample enough admissible normals")
    return dict(_spread(values), values=values)


def _spread(values):
    """min, max, mean and rel_spread = (max - min) / mean of nonempty cut volumes."""
    v = np.array(values)
    mean = float(v.mean())
    return {"min": float(v.min()), "max": float(v.max()), "mean": mean,
            "rel_spread": float((v.max() - v.min()) / mean)}
