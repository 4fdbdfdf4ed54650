"""Hyperplane sections: boundedness, admissible levels, measure and centroid.

Every section, in 2D and 3D, starts from one anchor: the point where the
level meets the body's interior 'spine', then centred by one batch of
chords. In 2D the plane is a line and its chord is the section, with the
chord's midpoint as centroid. In 3D the anchor casts four chords, along
the plane's basis vectors and their diagonals. The bodies of the paper are
quadrics, whose bounded plane sections are ellipses: where the conic
through the eight hits is one, the anchor moves to its centre (the
section's centroid) and the first polar radii are guessed from it, to
rounding; elsewhere the anchor moves to the chords' mean midpoint. 3D
sections are integrated in polar coordinates around the centred anchor
with a fixed node-doubling refinement schedule, so results are
deterministic for a given tolerance. ``n_evals`` counts the points at
which the body's defining function was evaluated, in 2D and 3D.

One kernel does this for a whole array of levels at once, each with its
own normal and tolerance: one ray batch centres every level (two rays
each in 2D, eight in 3D), and each round of the polar rules is one batch over
the levels still short of their tolerance. Anchors and plane bases are
built once per distinct normal. The root-finder solves every ray on its
own, so each level comes out bitwise as it would alone. Each level asks
for its first moments (the centroid) and its diameter apart, so sections
that need them ride in the batches of sections that do not.
The kernel alone decides grazing: a level whose anchor is not strictly
inside the body scores measure 0 and False in its ``inside`` mask, and the
other levels of its batch come out as they would alone; ``section_stats``
and ``section_measure`` raise ``DegenerateSection`` from that mask.
``section_stats`` and ``section_measure`` take a number or a 1-D array of
levels; ``section_measure`` also takes one normal and one tolerance per
level, so that the sections of several cuts share their batches. Every
tolerance must lie in (0, 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import _HIT_RTOL, _check_unit, ray_hits_batch
from .errors import (
    DegenerateSection,
    LevelOutOfRange,
    NotInterior,
    UnboundedSection,
)

DEFAULT_RTOL = 1e-8
_MAX_POLAR_NODES = 16384
_FIRST_NODES = 64  # the first polar batch, per level
_DIAMETER_NODES = 2 * _FIRST_NODES  # its even nodes are those of the first batch
_SQRT_HALF = math.sqrt(0.5)
# the centring rays of a 3D section, (cos, sin) of the angles k pi/4 in its
# plane, k = 0..7: rays k and k + 4 are opposite
_OCTAGON = np.array([[1.0, _SQRT_HALF, 0.0, -_SQRT_HALF, -1.0, -_SQRT_HALF, 0.0, _SQRT_HALF],
                     [0.0, _SQRT_HALF, 1.0, _SQRT_HALF, 0.0, -_SQRT_HALF, -1.0, -_SQRT_HALF]])
_NEXT = np.arange(1, 9) % 8  # the next ray counterclockwise
_CONIC_RTOL = 1e-8  # residuals and margin within which centring hits fix a conic


@dataclass(frozen=True)
class SectionStats:
    """Measure and centroid of one bounded hyperplane section.

    For a 1-D array of levels every field but ``u`` holds one entry per
    level (``centroid`` one row).
    """

    u: np.ndarray
    t: float
    measure: float
    centroid: np.ndarray
    err_estimate: float
    n_evals: int  # points at which the defining function was evaluated
    converged: bool  # False when the polar rule stopped at its node cap short of rtol


def _plane(u, t):
    """Validated (unit normal, level) of a hyperplane {<u,x> = t}."""
    t = float(t)
    if math.isnan(t):
        raise ValueError("hyperplane level must be a number")
    return np.array(_check_unit(u)), t


def _planes(u, t):
    """Validated unit normals, the index of each level's normal among them,
    the levels as a 1-D array, and whether t was a number.

    u is one normal, or one normal per level as an (L, d) array; each run of
    equal rows then gives one normal (the levels of one cut come as a block).
    A NaN level is a ``ValueError`` and an infinite one ``LevelOutOfRange``
    naming it, before any arithmetic on it.
    """
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1 or ts.size == 0:
        raise ValueError("levels must be a number or a nonempty 1-D array")
    if not np.all(np.isfinite(ts)):
        if np.any(np.isnan(ts)):
            raise ValueError("hyperplane level must be a number")
        raise LevelOutOfRange(f"level {float(ts[np.isinf(ts)][0])} is not finite")
    u = np.asarray(u, dtype=float)
    if u.ndim == 2:
        if ts.shape != (len(u),):
            raise ValueError("an (L, d) array of normals needs a 1-D array of L levels")
        first = np.ones(len(u), dtype=bool)
        first[1:] = (u[1:] != u[:-1]).any(axis=1)
        normals, which = u[first], np.cumsum(first) - 1
    else:
        normals, which = u[None], np.zeros(ts.size, dtype=np.intp)
    normals = np.array([_check_unit(n) for n in normals])
    return normals, which, np.atleast_1d(ts), ts.ndim == 0


def section_bounded(body, u) -> bool:
    """True iff every section with normal u is bounded (recession criterion)."""
    u = _check_unit(u)
    return not body.recession_cone().meets_hyperplane(u)


def admissible_levels(body, u):
    """Open interval of levels t with 0 < measure < inf; endpoints may be inf."""
    u = _check_unit(u)
    if not section_bounded(body, u):
        raise UnboundedSection(f"sections normal to {u} are unbounded")
    lo = -body.support(-np.asarray(u))
    hi = body.support(u)
    return (lo, hi)


def _plane_basis(u):
    """Deterministic orthonormal basis of the hyperplane through 0 normal to u."""
    u = np.asarray(u, dtype=float)
    if u.shape[0] == 2:
        return (np.array([-u[1], u[0]]),)
    k = int(np.argmin(np.abs(u)))
    e = np.zeros(3)
    e[k] = 1.0
    e1 = e - u * float(u @ e)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    return (e1, e2)


def _section_anchors(body, u, ts):
    """Interior points of the section planes via the interior 'spine' of the body.

    The spine runs from the boundary point attaining the minimum level,
    through a deep interior point, and onward to either the maximum-level
    boundary point (bounded bodies) or along an interior recession direction.
    Points on it are interior by convexity and hit every level once.  When
    the minimum level is not attained (a cone's apex), the spine is the
    line through the interior point along the recession direction.  One row
    per level of the array ts.
    """
    cone = body.recession_cone()
    z0 = body.interior_point()
    s0 = float(u @ z0)
    out = np.empty((len(ts), len(u)))
    low = ts <= s0
    if low.any() and body.support_attained(-u):
        p_bot = body.inverse_gauss(-u)
        s_bot = float(u @ p_bot)
        lam = (ts[low] - s_bot) / (s0 - s_bot)
        out[low] = p_bot + lam[:, None] * (z0 - p_bot)
    else:
        low[:] = False
    high = ~low
    if not high.any():
        return out
    if cone.dim == 0:
        p_top = body.inverse_gauss(np.asarray(u))
        s_top = float(u @ p_top)
        lam = (ts[high] - s0) / (s_top - s0)
        out[high] = z0 + lam[:, None] * (p_top - z0)
    else:
        zdir = cone.interior_direction()
        out[high] = z0 + ((ts[high] - s0) / float(u @ zdir))[:, None] * zdir
    return out


def _polar_dirs(e1, e2, n_nodes, nodes=None):
    """Directions to the polar nodes 2*pi*k/n_nodes, k in nodes (default all),
    in the plane of each pair of basis rows e1, e2, built coordinate-major:
    (d, planes, nodes)."""
    k = np.arange(n_nodes) if nodes is None else nodes
    theta = 2.0 * math.pi * k / n_nodes
    return np.cos(theta) * e1.T[:, :, None] + np.sin(theta) * e2.T[:, :, None]


def _polar_radii(body, anchors, dirs, guess):
    """Radii along the directions dirs, (d, anchors, nodes), around each
    anchor: one ray batch, passed as a transposed view. Returns the radii
    and the oracle points, one row and one count per anchor."""
    r, n_evals = ray_hits_batch(body, anchors, dirs.reshape(len(dirs), -1).T, guess=guess)
    return r.reshape(len(anchors), -1), n_evals


def _ellipse_radii(form, n_nodes):
    """Radii at the polar nodes 2*pi*k/n_nodes of the ellipses
    a x^2 + b x y + c y^2 = 1 in the (e1, e2) coordinates of their planes,
    form = (a, b, c) of arrays (one row per entry)."""
    theta = 2.0 * math.pi * np.arange(n_nodes) / n_nodes
    cos, sin = np.cos(theta), np.sin(theta)
    a, b, c = (f[:, None] for f in form)
    return 1.0 / np.sqrt(a * (cos * cos) + b * (cos * sin) + c * (sin * sin))


def _refine_radii(r):
    """Guesses for the radii at the midpoints between n polar nodes, per row.

    Trigonometric interpolation: the radial function of a smooth section is
    analytic in the angle, so this is far better than a linear one.
    """
    g = (2.0 * np.fft.irfft(np.fft.rfft(r), 2 * r.shape[-1]))[:, 1::2]
    return np.where(g > 0.0, g, 0.5 * (r + np.roll(r, -1, axis=-1)))


def _polar_rule(r, moments):
    """Measure and first moments of the periodic trapezoid rule on the radii
    of each row of r; the moments of the rows in the mask moments, 0 for
    the others."""
    n = r.shape[-1]
    measure = np.sum(r ** 2, axis=-1) * math.pi / n
    theta = 2.0 * math.pi * np.arange(n) / n
    rows = r[moments]
    m = np.zeros((2, len(measure)))
    m[0, moments] = np.sum(rows ** 3 * np.cos(theta), axis=-1) * (2.0 * math.pi / n) / 3.0
    m[1, moments] = np.sum(rows ** 3 * np.sin(theta), axis=-1) * (2.0 * math.pi / n) / 3.0
    return measure, m[0], m[1]


def _widest(r):
    """Diameter estimate per row of polar radii: the max of opposite-radius sums."""
    n = r.shape[-1]
    return np.max(r[:, : n // 2] + r[:, n // 2:], axis=-1)


def _section_conics(r):
    """The conics Q(y) + L(y) = 1 through the centring hits r (one row of 8
    per level, at the angles of ``_OCTAGON`` around the anchor y = 0), and
    where each is its section's ellipse.

    An opposite pair (r+, r-) along a unit v gives Q(v) = 1/(r+ r-) and
    L(v) = (r- - r+)/(r+ r-). The pairs along e1 and e2 give Q's diagonal
    and L, the diagonal pairs Q's cross term and three residuals, which are
    at rounding level exactly where the section is a conic. Returns the
    centre (its e1 and e2 coordinates), the form (a, b, c) of the ellipse
    about it, and the mask of the levels where the conic is an ellipse, its
    residuals are within ``_CONIC_RTOL`` and its centre lies inside the
    octagon of the hits, which a convex section contains, by that margin.
    """
    rp, rm = r[:, :4].T, r[:, 4:].T
    q = 1.0 / (rp * rm)
    l = (rm - rp) * q
    a, c, d, e = q[0], q[2], l[0], l[2]
    b = q[1] - q[3]
    size = a + c  # an inverse squared length
    res = np.maximum(np.abs(q[1] + q[3] - size),
                     np.maximum(np.abs(l[1] - _SQRT_HALF * (d + e)),
                                np.abs(l[3] - _SQRT_HALF * (e - d))) * np.sqrt(size))
    det = 4.0 * a * c - b * b
    ok = (res <= _CONIC_RTOL * size) & (det > 0.0)
    det[~ok] = 1.0  # no centre: the caller replaces these levels
    x, y = (b * e - 2.0 * c * d) / det, (b * d - 2.0 * a * e) / det
    k = 1.0 - 0.5 * (d * x + e * y)  # the form's value on the conic, about its centre
    k[~ok] = 1.0
    # in the triangle (anchor, hit j, hit j + 1) the centre's weight on the
    # anchor is 1 + (w_j+1 - w_j) / (s r_j r_j+1), s = sin(pi/4): the centre
    # is inside the octagon where every such weight is positive
    # (here: above _CONIC_RTOL)
    w = (y[:, None] * _OCTAGON[0] - x[:, None] * _OCTAGON[1]) * r
    ok &= ((w[:, _NEXT] - w) > (_CONIC_RTOL - 1.0) * _SQRT_HALF * (r * r[:, _NEXT])).all(axis=1)
    return (x, y), (a / k, b / k, c / k), ok


def _centred_sections(body, normals, which, ts):
    """Anchor the sections {<u,x> = t}, t in ts and u = normals[which], on the
    spine and centre them in one ray batch.

    Each plane is first oriented so that the unbounded side of the level
    axis is +u, the way round the spine is built. A 2D anchor then moves to
    the midpoint of its chord along the plane's basis vector. A 3D anchor
    casts 8 rays, along +-e1, +-e2 and +-(e1 +- e2)/sqrt(2): where the conic
    through their hits is the section's ellipse (every bounded plane section
    of a quadric is one), the anchor moves to its centre, which is the
    section's centroid; elsewhere to the mean of the four chords' midpoints,
    and the guide ellipse has the e1 and e2 chords' half-lengths as
    semi-axes. Returns the centred anchors, the plane basis (one (L, d)
    array of rows per basis vector), the guide (in 2D the chords'
    half-lengths, in 3D the form (a, b, c) of the ellipse about each anchor
    that guesses its first polar radii, see ``_ellipse_radii``) and the
    oracle points spent per level. A cone positive on neither side means
    unbounded sections; an anchor that is not strictly inside means a level
    grazes the body.
    """
    cone = body.recession_cone()
    anchors, bases = np.empty((len(ts), normals.shape[1])), []
    for i, u in enumerate(normals):
        at = which == i
        s = ts[at]
        if not cone.positive_on(u):
            if not cone.positive_on(-u):
                raise UnboundedSection(f"sections normal to {u} are unbounded")
            u, s = -u, -s
        bases.append(_plane_basis(u))
        anchors[at] = _section_anchors(body, u, s)
    basis = np.stack(bases, axis=1)[:, which]
    # each ray's coefficients on the basis vectors: (cos, sin) in 3D, +-1 in 2D
    star = _OCTAGON if len(basis) == 2 else np.array([[1.0, -1.0]])
    dirs = sum(c * w.T[:, :, None] for c, w in zip(star, basis))
    try:
        r, n_evals = _polar_radii(body, anchors, dirs, None)
    except NotInterior as e:
        raise DegenerateSection("section anchor is not inside the body") from e
    if len(basis) == 1:
        half = 0.5 * (r[:, 0] + r[:, 1])
        return anchors + (0.5 * (r[:, 0] - r[:, 1]))[:, None] * basis[0], basis, half, n_evals
    (x, y), form, ok = _section_conics(r)
    if not ok.all():
        # the mean of the chords' midpoints, and the ellipse on the e1 and e2 chords
        no = ~ok
        mid = 0.5 * (r[no, :4] - r[no, 4:])
        x[no] = 0.25 * (mid[:, 0] + _SQRT_HALF * (mid[:, 1] - mid[:, 3]))
        y[no] = 0.25 * (mid[:, 2] + _SQRT_HALF * (mid[:, 1] + mid[:, 3]))
        form[0][no] = 4.0 / (r[no, 0] + r[no, 4]) ** 2
        form[1][no] = 0.0
        form[2][no] = 4.0 / (r[no, 2] + r[no, 6]) ** 2
    anchors = anchors + x[:, None] * basis[0] + y[:, None] * basis[1]
    return anchors, basis, form, n_evals


def _polar_sections(body, anchors, basis, guide, rtol, moments, wide):
    """Section integrals around centred anchors, with node-doubling refinement.

    Returns per level the measure, centroid, error estimate, oracle points
    spent beyond the centring chords, and whether the rule met its entry of
    the per-level tolerances rtol; then the diameters of the levels wide (an
    index array). moments is a mask of the levels whose centroid is
    wanted; the others keep the anchor as centroid and stop on the measure
    alone.  A 2D section is its centring chord: the anchor is its midpoint
    and centroid, and its length the measure and the diameter.  In 3D the
    polar rules are nested: the first batch of ``_FIRST_NODES`` rays per
    level is compared with its subrule at every other node, and each
    doubling casts only the new midpoint rays of the levels still short of
    rtol, started from guesses interpolated from the radii so far (the first
    batch from the guide ellipse of ``_centred_sections``).  A level still
    short at ``_MAX_POLAR_NODES`` stops there unconverged.  A level in wide
    adds the odd nodes of its ``_DIAMETER_NODES`` grid to the first batch,
    as one more group of rays from its anchor, and its diameter is taken on
    all of that grid, bitwise as ``section_diameter`` takes it; those rays'
    points are not counted in its oracle points.
    """
    if len(basis) == 1:
        measure = 2.0 * guide
        converged = np.ones(len(anchors), dtype=bool)
        return measure, anchors, 1e-12 * measure, 0, converged, measure[wide]
    e1, e2 = basis
    n, n_levels = _FIRST_NODES, len(anchors)
    dirs, guess, origins = _polar_dirs(e1, e2, n), _ellipse_radii(guide, n), anchors
    if len(wide):
        odd = np.arange(1, _DIAMETER_NODES, 2)
        dirs = np.concatenate((dirs, _polar_dirs(e1[wide], e2[wide], _DIAMETER_NODES, odd)), axis=1)
        wide_guess = _ellipse_radii([f[wide] for f in guide], _DIAMETER_NODES)[:, odd]
        guess = np.concatenate((guess, wide_guess))
        origins = np.concatenate((anchors, anchors[wide]))
    r, n_evals = _polar_radii(body, origins, dirs, guess)
    diameter = np.zeros(0)
    if len(wide):
        diameter = _widest(np.stack([r[wide], r[n_levels:]], axis=2).reshape(len(wide), -1))
    r, n_evals = r[:n_levels], n_evals[:n_levels]
    measure, err = np.empty(n_levels), np.empty(n_levels)
    centroid, converged = np.empty_like(anchors), np.zeros(n_levels, dtype=bool)
    prev = _polar_rule(r[:, ::2], moments)
    todo = np.arange(n_levels)  # levels still refining
    while True:
        mu, m1, m2 = _polar_rule(r, moments)
        gap = np.abs(mu - prev[0])
        # math.hypot level by level: np.hypot can differ from it in the last
        # bit, and the stopping test must not depend on the batch
        moment_gap = np.zeros(len(todo))
        moment_gap[moments] = [math.hypot(a, b) for a, b in zip((m1 - prev[1])[moments],
                                                                 (m2 - prev[2])[moments])]
        tol = rtol[todo]
        # the moments are lengths cubed: their floor is mu^(3/2), not mu
        met = (gap <= tol * np.maximum(mu, 1e-300)) & (
            moment_gap <= tol * np.maximum(np.abs(m1) + np.abs(m2), mu * np.sqrt(mu)))
        stop = met | (n >= _MAX_POLAR_NODES)
        if stop.any():
            j = todo[stop]
            measure[j], converged[j] = mu[stop], met[stop]
            centroid[j] = anchors[j] + (m1[stop, None] * e1[j] + m2[stop, None] * e2[j]) / mu[stop, None]
            # each radius is within _HIT_RTOL and the measure is quadratic in them
            err[j] = (gap[stop] + moment_gap[stop] / np.sqrt(np.maximum(mu[stop], 1e-300))
                      + 2.0 * _HIT_RTOL * mu[stop])
            keep = ~stop
            if not keep.any():
                return measure, centroid, err, n_evals, converged, diameter
            todo, r, mu, m1, m2 = todo[keep], r[keep], mu[keep], m1[keep], m2[keep]
            moments = moments[keep]
        prev = (mu, m1, m2)
        mid, k = _polar_radii(body, anchors[todo],
                              _polar_dirs(e1[todo], e2[todo], 2 * n, np.arange(1, 2 * n, 2)),
                              _refine_radii(r))
        n_evals[todo] += k
        r = np.stack([r, mid], axis=2).reshape(len(todo), -1)
        n *= 2


def _rtols(rtol, n):
    """rtol, a number or n numbers, as an array of n relative tolerances,
    each of which must lie in (0, 1)."""
    rtol = np.broadcast_to(np.asarray(rtol, dtype=float), (n,))
    # written so that a NaN fails the test too
    if not np.all((rtol > 0.0) & (rtol < 1.0)):
        raise ValueError("rtol must lie in (0, 1)")
    return rtol


def _sections(body, normals, which, ts, rtol, moments, diameter=False):
    """The section kernel: measure, centroid, error estimate, oracle points
    and convergence of every section {<u,x> = t}, t in the 1-D array ts and
    u = normals[which], to rtol, a number or one tolerance per level; then
    the diameters of the levels in the mask diameter, and the mask of the
    levels whose anchor lies inside the body.

    moments is the mask of the levels whose centroid is wanted; the centroid
    of any other level is its centred anchor, and its rule stops on the
    measure alone. Either mask may be one bool for every level.

    This is the one place that decides grazing: a level whose anchor is not
    strictly inside the body has measure 0, False in the inside mask and 0
    in every other entry. Where one does, each level is sectioned alone, and
    every other level comes out as its lone section, bitwise.
    """
    rtol = _rtols(rtol, ts.size)
    moments = np.broadcast_to(np.asarray(moments, dtype=bool), ts.shape)
    diameter = np.broadcast_to(diameter, ts.shape)
    try:
        anchors, basis, guide, n_evals = _centred_sections(body, normals, which, ts)
    except DegenerateSection:
        if ts.size == 1:
            return (np.zeros(1), np.zeros((1, normals.shape[1])), np.zeros(1), np.zeros(1, dtype=int),
                    np.zeros(1, dtype=bool), np.zeros(np.count_nonzero(diameter)), np.zeros(1, dtype=bool))
        alone = [_sections(body, normals, which[i:i + 1], ts[i:i + 1], rtol[i:i + 1],
                           moments[i:i + 1], diameter[i:i + 1]) for i in range(ts.size)]
        return tuple(np.concatenate(part) for part in zip(*alone))
    measure, centroid, err, k, converged, diam = _polar_sections(
        body, anchors, basis, guide, rtol, moments, np.flatnonzero(diameter))
    return measure, centroid, err, n_evals + k, converged, diam, np.ones(ts.size, dtype=bool)


def _check_levels(body, u, ts):
    """Raise unless every level of ts lies inside the admissible interval of
    the normal u by 1e-9 scale: ``LevelOutOfRange``, or ``UnboundedSection``
    where the sections are unbounded."""
    lo, hi = admissible_levels(body, u)
    buf = 1e-9 * body.scale
    outside = ~((lo + buf <= ts) & (ts <= hi - buf))
    if outside.any():
        raise LevelOutOfRange(
            f"level {float(ts[outside][0])} outside admissible interval ({lo}, {hi})")


def _check_inside(inside):
    """Raise ``DegenerateSection`` if any level grazes the body (see ``_sections``)."""
    if not np.all(inside):
        raise DegenerateSection("section anchor is not inside the body")


def _check_measures(body, measure, inside):
    """Raise ``DegenerateSection`` if any level grazes the body or its
    measure is below the threshold."""
    _check_inside(inside)
    if np.any(measure < 1e-12 * body.scale ** (body.ambient_dim - 1)):
        raise DegenerateSection("section measure below threshold")


def section_stats(body, u, t, rtol=DEFAULT_RTOL) -> SectionStats:
    """Measure and centroid of the section {<u,x> = t} of a convex body.

    For a 1-D array of levels t, the sections at all of them in one batch.
    """
    if np.ndim(u) != 1:
        raise ValueError("section_stats takes one normal for all its levels")
    normals, which, ts, scalar = _planes(u, t)
    u = normals[0]
    _check_levels(body, u, ts)
    measure, centroid, err, n_evals, converged, _, inside = _sections(
        body, normals, which, ts, rtol, True)
    _check_measures(body, measure, inside)
    if scalar:
        return SectionStats(u, float(ts[0]), float(measure[0]), centroid[0], float(err[0]),
                            int(n_evals[0]), bool(converged[0]))
    return SectionStats(u, ts, measure, centroid, err, n_evals, converged)


def section_measure(body, u, t, rtol=DEFAULT_RTOL):
    """Measure only (cheaper inner loop for volume slicing); an array of
    measures for a 1-D array of levels.

    u is one normal, or one normal per level as an (L, d) array, and rtol
    a number or one tolerance per level: the levels of several cuts in one
    batch. Unlike ``section_stats`` it does not check its levels against
    ``admissible_levels``: cut volumes integrate it up to the support
    levels, where a level that grazes the body raises ``DegenerateSection``.
    """
    normals, which, ts, scalar = _planes(u, t)
    measure, *_, inside = _sections(body, normals, which, ts, rtol, False)
    _check_inside(inside)
    return float(measure[0]) if scalar else measure


def section_diameter(body, u, t) -> float:
    """Diameter estimate of the section (max of opposite-radius sums) at
    one level, which must lie inside ``admissible_levels`` as for
    ``section_stats``."""
    normals, which, ts, scalar = _planes(u, t)
    if not scalar:
        raise ValueError("section_diameter takes one level")
    _check_levels(body, normals[0], ts)
    anchors, basis, guide, _ = _centred_sections(body, normals, which, ts)
    if len(basis) == 1:
        return float(2.0 * guide[0])
    n = _DIAMETER_NODES
    r = _polar_radii(body, anchors, _polar_dirs(*basis, n), _ellipse_radii(guide, n))[0]
    return float(_widest(r)[0])
