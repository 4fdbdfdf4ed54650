"""Cut-volume functional V(a), its finite-difference gradient, and the
constancy scans for the parallel-cut / homothety-cut characterizations.

V(a) is the volume of the body on the <= side of the hyperplane {<a,x> = 1},
computed by Fubini slicing perpendicular to a: the section measure is
integrated over the levels, cosine-substituted, by ``quad``, an adaptive
form of QUADPACK's 21-point Gauss-Kronrod rule that runs several integrals
in lockstep, the open panels of all of them in three flat arrays.  Each of
its rounds sections the 21 levels of every open panel of every integral in
one batch, so a volume that one panel meets costs one batch of 21 levels,
and a gradient's 2d + 1 volumes, or a constancy scan's volumes at all its
anchors, share their rounds and batches, each volume bitwise as
``halfspace_cut_volume`` gives it; a gradient's first round also sections
its cut plane, for its measure, centroid and diameter, as one more level of
the same kernel call, or the plane raises its own error.  A level that
grazes the body scores 0 in the section kernel.
Unboundedness of a cut is decided analytically from the recession cone,
never by runaway integration.
Floating cuts are the parallel and homothety cuts (a tangent plane shifted
by k e_d or scaled by k about 0), sampled by normal instead of by abscissa.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bodies import INF, _graph_contact
from .errors import (
    DegenerateCut,
    DegenerateSection,
    LevelOutOfRange,
    NotApexCentered,
    NotGraphLike,
    OriginInsideBody,
)
from .sections import (
    DEFAULT_RTOL,
    _check_levels,
    _check_measures,
    _plane,
    _rtols,
    _sections,
    section_measure,
)
from .sections import section_diameter, section_stats  # noqa: F401  (perfbench/tracer.py wraps them by name)

_MAX_PANELS = 200  # open panels past which quad stops refining

# QUADPACK's dqk21 table: the abscissae x_1 > ... > x_10 > x_11 = 0 of the
# 21-point Kronrod rule on [-1, 1], with its weights and those of the 10-point
# Gauss rule on x_2, x_4, ..., x_10. numpy's Gauss nodes are QUADPACK's bit for
# bit; its Gauss weights are a few ulp off, so the weights are QUADPACK's own.
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


def _mirror(v, sign=1.0):
    """A table over the 21 nodes in increasing order from its 11 entries at x_1, ..., x_11."""
    return np.concatenate((sign * v[:10], v[::-1]))


_NODES, _KRONROD, _GAUSS = _mirror(_XGK, -1.0), _mirror(_WGK), _mirror(_WG)


def quad(f, a, b, epsabs, epsrel):
    """Integrals of f over the intervals [a_k, b_k], k < K, by adaptive
    bisection with the 21-point rule, all K in lockstep.

    a, b and epsrel are numbers or arrays of K; returns the K integrals.
    f(x, k) maps a 1-D array of points x, point i in the interval of
    integral k[i], to the integrands' values there.  The open panels of all
    integrals are three flat arrays, lo, hi and their integral k, integral
    k's panels one block in ascending k, and each round evaluates the nodes
    of all of them in one call.  Each panel is scored with QUADPACK's dqk21
    error estimate (Piessens et al., QUADPACK, 1983).  Each integral stops
    on its own once its panels' scores sum to within max(epsabs, epsrel_k
    |integral|), QUADPACK's own test; until then its panels within their
    share of that bound by width close, and the others are bisected, left
    halves before right halves.  Past ``_MAX_PANELS`` open panels of one
    integral its sum so far is taken, with one RuntimeWarning a round.
    """
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    K = len(a)
    lo, hi, k = a, b, np.arange(K)
    # each integral's sum and error over its closed panels; its result once it stops
    total, total_err = np.zeros(K), np.zeros(K)
    while k.size:
        centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fx = f((centre[:, None] + half[:, None] * _NODES).ravel(), np.repeat(k, _NODES.size))
        fx = fx.reshape(k.size, -1)
        # einsum's row sums, unlike a matrix product's, do not depend on the row count
        kronrod = np.einsum("ij,j->i", fx, _KRONROD)
        result = kronrod * half
        resabs = np.einsum("ij,j->i", np.abs(fx), _KRONROD) * half
        resasc = np.einsum("ij,j->i", np.abs(fx - 0.5 * kronrod[:, None]), _KRONROD) * half
        err = np.abs((kronrod - np.einsum("ij,j->i", fx, _GAUSS)) * half)
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


def _level_range(body, u, t):
    """Levels (s_lo, s_hi) that body ∩ {<u,x> <= t} spans, u a unit normal,
    or the volume itself where it needs no integral: +inf when the cut
    contains a recession direction, 0 when the halfspace misses the interior.
    """
    s_lo = -body.support(-u)
    if not body.recession_cone().positive_on(u):
        # some recession direction stays in the halfspace: infinite volume
        return 0.0 if t <= s_lo else INF
    s_hi = min(t, body.support(u))
    if s_hi <= s_lo + 1e-12 * body.scale:
        return 0.0
    return s_lo, s_hi


def _cut_volumes(body, normals, ranges, rtols, plane=None):
    """Volumes of the cuts of body with unit normals normals[k] over the level
    ranges ranges[k] (from ``_level_range``; a number is the volume itself),
    each to its own rtols[k]: the integrals in one lockstep ``quad``, whose
    every round sections the levels of all of them in one batch.

    Returns the volumes and, for plane = (u, t, rtol), that section's
    measure, centroid, diameter and whether its anchor is inside the body,
    from the first round's batch, in which it rides as one more level.
    """
    rtols = _rtols(rtols, len(ranges))
    volumes = np.array([math.nan if isinstance(r, tuple) else r for r in ranges])
    todo = np.flatnonzero(np.isnan(volumes))
    normals, rtols = np.asarray(normals)[todo], rtols[todo]
    s_lo, s_hi = np.array([ranges[k] for k in todo]).reshape(-1, 2).T
    # cosine substitution removes the sqrt behaviour at the boundary levels
    c = 0.5 * (s_lo + s_hi)
    h = 0.5 * (s_hi - s_lo)
    section = None

    def g(phi, k):
        nonlocal plane, section
        levels = c[k] - h[k] * np.cos(phi)
        if plane is not None:
            u, t, rtol = plane
            extra = np.arange(k.size + 1) == k.size
            measures, centroid, _, _, _, diam, inside = _sections(
                body, np.vstack((normals, u)), np.append(k, len(normals)), np.append(levels, t),
                np.append(rtols[k], rtol), extra, extra)
            section, plane = (float(measures[-1]), centroid[-1], float(diam[0]), inside[-1]), None
            measures = measures[:-1]
        else:
            try:
                measures = section_measure(body, normals[k], levels, rtol=rtols[k])
            except DegenerateSection:  # a level grazes the body: the kernel scores it 0
                measures = _sections(body, normals, k, levels, rtols[k], False)[0]
        return measures * h[k] * np.sin(phi)

    volumes[todo] = quad(g, np.zeros(len(todo)), np.full(len(todo), math.pi),
                         epsabs=1e-14 * body.scale ** body.ambient_dim, epsrel=rtols)
    return volumes, section


def halfspace_cut_volume(body, u, t, rtol=DEFAULT_RTOL) -> float:
    """Volume of body ∩ {<u,x> <= t} for a unit normal u.

    +inf when the cut contains a recession direction; 0 when the halfspace
    misses the interior.
    """
    u, t = _plane(u, t)
    return float(_cut_volumes(body, [u], [_level_range(body, u, t)], [rtol])[0][0])


def _cut_plane(a):
    """Unit normal and level of the hyperplane {<a,x> = 1}."""
    nrm = float(np.linalg.norm(a))
    if not (0.0 < nrm < INF):
        raise ValueError("cut parameter must be finite and nonzero")
    return _plane(a / nrm, 1.0 / nrm)


def cut_volume(body, a, rtol=DEFAULT_RTOL) -> float:
    """V(a) = volume of body on the <= side of {<a,x> = 1}."""
    return halfspace_cut_volume(body, *_cut_plane(np.asarray(a, dtype=float)), rtol=rtol)


def cut_gradient(body, a, rtol=DEFAULT_RTOL) -> CutVolumeResult:
    """Central-difference gradient of V plus the centroid-identity residuals.

    V(a) and the 2d perturbed volumes V(a +- step e_j) are one lockstep
    ``quad``: each of its rounds sections the levels of all of them in one
    batch, and each volume comes out bitwise as ``cut_volume`` gives it.
    Its first round also sections the cut plane, with its centroid and
    diameter, bitwise as ``section_stats`` and ``section_diameter`` give
    them, and the plane raises their errors after V(a)'s own: a level
    outside ``admissible_levels`` (which does not ride), then a level that
    grazes the body or a measure below the threshold. Which cuts are empty
    or unbounded is read off the recession cone before any integration.
    """
    a = np.asarray(a, dtype=float)
    _rtols(rtol, 1)  # before the step, which it sets
    if bool(body.contains(np.zeros(body.ambient_dim))):
        raise OriginInsideBody("translate the body so that 0 is outside first")
    planes = [_cut_plane(a)]
    ranges = [_level_range(body, *planes[0])]
    if not isinstance(ranges[0], tuple):
        raise DegenerateCut(f"V(a) = {ranges[0]} is not finite positive")
    nrm = float(np.linalg.norm(a))
    # the difference quotient amplifies quadrature noise by 1/step, so the
    # perturbed volumes are computed tighter than the requested tolerance
    fd_rtol = min(rtol, 1e-10)
    step = max(1.0, nrm) * fd_rtol ** (1.0 / 3.0)
    dim = body.ambient_dim
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = step
        for p in (a + e, a - e):
            planes.append(_cut_plane(p))
            ranges.append(_level_range(body, *planes[-1]))
        if INF in ranges[-2:]:
            raise DegenerateCut("perturbed cut became unbounded; reduce the step")
    u, t = planes[0]
    refused = None
    try:
        _check_levels(body, u, np.array([t]))
    except LevelOutOfRange as e:
        refused = e
    volumes, section = _cut_volumes(body, [u for u, _ in planes], ranges,
                                    [rtol] + [fd_rtol] * (2 * dim),
                                    plane=None if refused else (u, t, rtol))
    V0 = float(volumes[0])
    if not V0 > 0.0:  # every level of the cut grazed the body
        raise DegenerateCut(f"V(a) = {V0} is not finite positive")
    if refused is not None:
        raise refused
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


def _check_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _moved_tangent_cuts(body, contacts, mode, k, rtol):
    """Volumes of body ∩ {<n,x> <= t} for the tangent planes {<n,x> = <n,p>}
    at the contacts (p, n), n the inner unit normal, each moved by k:
    t = <n,p> + k n_d for mode "translate" (shift by k e_d), t = k <n,p> for
    "scale" (about the origin).  One lockstep ``quad`` integrates them all,
    each volume bitwise as ``halfspace_cut_volume`` gives it; an empty cut
    is 0 and an unbounded one inf.
    """
    planes = []
    for point, normal in contacts:
        s = float(normal @ point)
        planes.append(_plane(normal, s + k * normal[-1] if mode == "translate" else k * s))
    ranges = [_level_range(body, u, t) for u, t in planes]
    volumes = _cut_volumes(body, [u for u, _ in planes], ranges, rtol)[0]
    return [float(v) for v in volumes]


def parallel_cut_scan(body, k, anchors, rtol=DEFAULT_RTOL):
    """Volumes between vertically shifted tangent planes and the surface.

    Constant across anchors exactly for elliptic paraboloids.  A body is
    graph-like here when its recession cone is a ray.
    """
    _check_finite("shift k", k)
    if k <= 0:
        raise ValueError("shift k must be positive")
    if body.recession_cone().dim != 1:
        raise NotGraphLike("parallel cuts need a graph-like body whose recession cone is a ray")
    contacts = [_graph_contact(body, anchor) for anchor in anchors]
    return _moved_tangent_cuts(body, contacts, "translate", k, rtol)


def homothety_cut_scan(body, k, anchors, rtol=DEFAULT_RTOL):
    """Volumes between homothetically scaled tangent planes and the surface.

    Constant across anchors exactly for hyperboloid sheets (apex-centered).
    The body must be a graph (else ``NotGraphLike``) with translation 0
    (else ``NotApexCentered``), and each tangent plane must separate 0 from
    the surface (else ``DegenerateCut``).
    """
    _check_finite("homothety factor k", k)
    if k <= 1.0:
        raise ValueError("homothety factor k must exceed 1")
    contacts = [_graph_contact(body, anchor) for anchor in anchors]
    if float(np.linalg.norm(body.translation)) > 0.0:
        raise NotApexCentered("body must keep its asymptotic-cone apex at 0")
    for point, normal in contacts:
        if float(normal @ point) <= 1e-12 * body.scale:
            raise DegenerateCut("tangent plane does not separate the apex from the surface")
    return _moved_tangent_cuts(body, contacts, "scale", k, rtol)


def floating_constancy(body, mode, lam, n_normals=12, seed=0, rtol=DEFAULT_RTOL):
    """Spread of cut volumes beyond support hyperplanes of a shifted/scaled copy.

    mode "translate": copy is body + lam * e_last (lam > 0).
    mode "scale":     copy is lam * body (lam > 1).

    The first n_normals sampled normals whose cap is finite and positive
    give the values, in sampling order; as many caps as values are missing
    are integrated in one lockstep ``quad``, each bitwise as
    ``halfspace_cut_volume`` gives it.
    """
    if n_normals < 1:
        raise ValueError(f"n_normals must be at least 1, got {n_normals}")
    _check_finite("lam", lam)
    if mode == "translate":
        if lam <= 0:
            raise ValueError("translate mode needs lam > 0")
    elif mode == "scale":
        if lam <= 1:
            raise ValueError("scale mode needs lam > 1")
    else:
        raise ValueError("mode must be 'translate' or 'scale'")
    _rtols(rtol, 1)  # before the draws, some of which may integrate nothing
    rng = np.random.default_rng(seed)
    values = []
    attempts = 0
    while len(values) < n_normals and attempts < 100 * n_normals:
        # draw, in order, as many contacts as values are missing, and
        # integrate the caps beyond the copy's support hyperplanes there
        contacts = []
        while len(contacts) < n_normals - len(values) and attempts < 100 * n_normals:
            attempts += 1
            u = rng.normal(size=body.ambient_dim)
            u[-1] = -abs(u[-1]) - 0.3 * np.linalg.norm(u[:-1])  # bias downward
            u /= np.linalg.norm(u)
            if body.support_attained(u):
                contacts.append((body.inverse_gauss(u), -u))
        # an empty or unbounded cap, or one whose every level grazed the body, gives no value
        values += [v for v in _moved_tangent_cuts(body, contacts, mode, lam, rtol) if 0.0 < v < INF]
    if len(values) < n_normals:
        raise DegenerateCut("could not sample enough admissible normals")
    return dict(_spread(values), values=values)


def _spread(values):
    """min, max, mean and rel_spread = (max - min) / mean of nonempty cut volumes."""
    v = np.array(values)
    mean = float(v.mean())
    return {"min": float(v.min()), "max": float(v.max()), "mean": mean,
            "rel_spread": float((v.max() - v.min()) / mean)}
