"""Hyperplane sections: boundedness, admissible levels, measure and centroid.

Every section, in 2D and 3D, starts from one anchor: the point where the
level meets the body's interior 'spine', then centred. In 2D the plane is
a line and its chord is the section, with the chord's midpoint as
centroid. The bodies of the paper are quadrics, whose bounded plane
sections are ellipses: on a body whose kind has a form Q, the centre of
a 3D section is the point of its plane where grad Q is parallel to the
normal, read off Q restricted to the plane with no oracle call, and that
ellipse guides the polar rule. Elsewhere (the superellipsoids) the anchor
casts four chords, along the plane's basis vectors and their diagonals,
and moves to their mean midpoint. 3D sections are integrated in polar
coordinates around the centred anchor, in the guide ellipse's own angle,
where a quadric's radii are all 1 to rounding, with a fixed
node-doubling refinement schedule, so results are deterministic for a
given tolerance. A 3D level centred from a form skips the rule once F
confirms that the boundary crosses each node of the rule's first batch
between the root-finder's inner probes (one ``defining`` call,
``_form_check``): its section is then the guide (g1, g2)'s ellipse, so
its measure is pi |g1 x g2|, its centroid the centred anchor and its
diameter the major axis 2 sigma_max[g1 g2], and it casts no ray. A level
F does not confirm takes the rule, and its diameter the longest chord on
a 128-node grid. ``n_evals`` counts the points at which the body's
defining function was evaluated, in 2D and 3D.

One kernel does this for a whole array of levels at once, each with its own
normal and tolerance: one ray batch centres every level that casts chords
(two rays each in 2D, eight in 3D), one ``defining`` call checks the spine
anchors of the others, one more checks the closed forms, and each round of
the polar rules is one batch over the levels still short of their
tolerance. One set-up per normal,
``_plane_setup`` (one cone-margin and one Gauss-map call, row-wise), gives
the support levels -h(-u), h(u) and the spine's ends; the kernel's level
check, ``admissible_levels`` and the cut volumes' level ranges all read it,
so they agree bitwise on which levels exist. A caller that has set its
normals up (the cut volumes, ``sccp_residual``) hands that ``PlaneSetup``
to the kernel in place of the normals, and the kernel does not set them up
again. The root-finder solves every ray on its own, so each level comes
out bitwise as it would alone. Each
level asks for its first moments (the centroid) and its diameter apart, so
sections that need them ride in the batches of sections that do not. The
kernel alone decides grazing (see ``_sections``): ``section_measure``
answers 0 at a grazing or empty level, so cut volumes integrate it up to the
support levels, while ``section_stats`` and ``section_diameter`` refuse it.
``section_stats`` and ``section_measure`` take a number or a 1-D array of
levels; ``section_measure`` also takes one normal and one tolerance per
level, so that the sections of several cuts share their batches. Every
tolerance must lie in (0, 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bodies import (
    _GUESS_PROBES,
    _HIT_RTOL,
    INF,
    _band,
    _check_unit,
    _check_units,
    ray_hits_batch,
    ray_quadratic,
)
from .errors import (
    DegenerateSection,
    LevelOutOfRange,
    NotInterior,
    UnboundedSection,
)

DEFAULT_RTOL = 1e-8
_MAX_POLAR_NODES = 16384
_FIRST_NODES = 16  # the first polar batch, per level
_DIAMETER_NODES = 128  # every 8th node is one of the first batch's
# F's check of a closed-form measure: the root-finder's inner pair of probes
# about a radius guessed at 1, (factor, levels, nodes)
_CHECK_PROBES = _GUESS_PROBES[1:3, :, None]
_SQRT_HALF = math.sqrt(0.5)
# the centring rays of a 3D section without a form, (cos, sin) of the
# angles k pi/4 in its plane, k = 0..7: rays k and k + 4 are opposite
_OCTAGON = np.array([[1.0, _SQRT_HALF, 0.0, -_SQRT_HALF, -1.0, -_SQRT_HALF, 0.0, _SQRT_HALF],
                     [0.0, _SQRT_HALF, 1.0, _SQRT_HALF, 0.0, -_SQRT_HALF, -1.0, -_SQRT_HALF]])
_TURN = np.array([-1.0, 1.0])  # (u0, u1) -> (-u1, u0), a 2D normal's basis vector
_EYE3 = np.eye(3)
_NEXT3, _PREV3 = np.array([1, 2, 0]), np.array([2, 0, 1])  # (u x a)_i = u_i+1 a_i+2 - u_i+2 a_i+1


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


def _planes(u, t):
    """Validated unit normals, the index of each level's normal among them,
    the levels as a 1-D array, whether t was a number, and the normals'
    ``PlaneSetup`` where u brought one (else None).

    u is one normal, or one normal per level as an (L, d) array; each run of
    equal rows then gives one normal (the levels of one cut come as a block).
    u may also be the ``PlaneSetup`` of such normals, one row or one a
    level, which a caller that has set them up hands on, so that the kernel
    reads it instead of setting them up again.
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
    setup = None
    if isinstance(u, PlaneSetup):
        setup, u = u, u.normals[0] if len(u.normals) == 1 else u.normals
    u = np.asarray(u, dtype=float)
    if u.ndim == 2:
        if ts.shape != (len(u),):
            raise ValueError("an (L, d) array of normals needs a 1-D array of L levels")
        first = np.ones(len(u), dtype=bool)
        first[1:] = (u[1:] != u[:-1]).any(axis=1)
        normals, which = _check_units(u[first]), np.cumsum(first) - 1
        if setup is not None:
            setup = setup.rows(first)
    else:
        normals, which = np.array(_check_unit(u))[None], np.zeros(ts.size, dtype=np.intp)
    return normals, which, np.atleast_1d(ts), ts.ndim == 0, setup


def section_bounded(body, u) -> bool:
    """True iff every section with normal u is bounded (recession criterion)."""
    u = _check_unit(u)
    return not body.recession_cone().meets_hyperplane(u)


def admissible_levels(body, u):
    """Open interval of levels t with 0 < measure < inf; endpoints may be inf."""
    setup = _bounded_setup(body, u)
    return float(setup.lo[0]), float(setup.hi[0])


def _bounded_setup(body, u):
    """The ``PlaneSetup`` of one unit normal u, raising ``UnboundedSection``
    where its sections are unbounded."""
    u = _check_unit(u)
    setup = _plane_setup(body, u[None])
    if setup.meets[0]:
        raise UnboundedSection(f"sections normal to {u} are unbounded")
    return setup


class PlaneSetup(NamedTuple):
    """What ``_plane_setup`` reads off the body for each row u of an (n, d)
    array of unit normals: whether the cone meets u-perp (within rounding:
    unbounded sections) and is positive on u, lo = -h(-u), hi = h(u), and
    the spine ends, the boundary points at -N and (bounded body) N as a (2
    or 1, n, d) array, N = u oriented so that the cone is positive on it,
    with whether those at -N are attained."""

    normals: np.ndarray
    meets: np.ndarray
    up: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    ends: np.ndarray
    on: np.ndarray

    def rows(self, i):
        """The set-up of the normals normals[i], i an index array or a mask:
        bitwise what ``_plane_setup`` gives them, as it works row by row."""
        normals, meets, up, lo, hi, ends, on = self
        return PlaneSetup(normals[i], meets[i], up[i], lo[i], hi[i], ends[:, i], on[i])


def _plane_setup(body, U):
    """The ``PlaneSetup`` of the rows of an (n, d) array U of unit normals:
    one cone-margin call, then one Gauss-map call on the rows -U, then U
    (where the cone is positive on u, h(u) is +inf, so an unbounded body
    takes only U's other rows).
    """
    cone = body.recession_cone()
    meets, up = cone.sides(U)
    n = len(U)
    if cone.dim == 0:
        h, X, on = body.gauss_map(np.concatenate([-U, U]))
        return PlaneSetup(U, meets, up, -h[:n], h[n:], X.reshape(2, n, -1), on[:n])
    hi = np.where(up, INF, np.nan)
    if np.count_nonzero(up) == n:
        h, X, on = body.gauss_map(-U)
    else:  # where the cone is not positive on u: h(u), and -N = u
        down = ~up
        h, X, on = body.gauss_map(np.concatenate([-U, U[down]]))
        hi[down], X[:n][down], on[:n][down] = h[n:], X[n:], on[n:]
    return PlaneSetup(U, meets, up, -h[:n], hi, X[None, :n], on[:n])


def _plane_basis(U):
    """Deterministic orthonormal bases of the hyperplanes through 0 normal to
    the rows of U: an (d - 1, n, d) array, one (n, d) array of rows per
    basis vector."""
    if U.shape[1] == 2:
        return (U[:, ::-1] * _TURN)[None]
    B = np.empty((2,) + U.shape)
    # e1 is e_k less its projection on u, k the first of u's smallest entries
    E = _EYE3.take(np.argmin(np.abs(U), axis=1), axis=0)
    e1 = np.subtract(E, U * np.vecdot(U, E)[:, None], out=B[0])
    e1 /= np.sqrt(np.vecdot(e1, e1))[:, None]
    # u x e1 from its scalar products, as np.cross forms them
    np.subtract(U.take(_NEXT3, axis=1) * e1.take(_PREV3, axis=1),
                U.take(_PREV3, axis=1) * e1.take(_NEXT3, axis=1), out=B[1])
    return B


def _section_frames(body, normals, which, ts, admissible=False, setup=None):
    """The spine anchors (one row per level) and plane bases (one (L, d)
    array per basis vector) of the sections {<u,x> = t}, t in ts and u =
    normals[which], every normal in one ``_plane_setup`` (or setup, the
    normals' own, when the caller has it); with admissible, first
    ``_check_levels`` on its support levels, the interval that
    ``admissible_levels`` reports.

    Each normal is oriented so that the unbounded side of the level axis is
    +u. Its spine runs from the boundary point attaining the minimum level
    (when attained; not at a cone's apex) through a deep interior point to
    the maximum-level boundary point, or on along an interior recession
    direction: points on it are interior by convexity and hit every level
    once. Its ends are the set-up's. A cone that meets a plane means
    unbounded sections.
    """
    _, meets, up, lo, hi, ends, on = _plane_setup(body, normals) if setup is None else setup
    if np.count_nonzero(meets):
        raise UnboundedSection(f"sections normal to {normals[meets.argmax()]} are unbounded")
    n = len(normals)
    # each level's normal; a lone normal's rows broadcast over the levels
    at = which if n > 1 else slice(None)
    if admissible:
        _check_levels(body, ts, lo[at], hi[at])
    N = normals
    if np.count_nonzero(up) < n:
        sign = np.where(up, 1.0, -1.0)
        N = normals * sign[:, None]
        ts = ts * sign[at]
    z0 = body.interior_point()
    s0 = np.vecdot(N, z0)
    s_ends = np.vecdot(N, ends)
    # a level at or below z0's on a normal whose minimum is attained lies
    # between the bottom end and z0, any other one beyond z0
    low = ts <= s0[at]
    low &= on[at]
    p_bot = ends[0, at]
    anchors = p_bot + ((ts - s_ends[0, at]) / (s0 - s_ends[0])[at])[:, None] * (z0 - p_bot)
    if ends.shape[0] == 2:  # a bounded body's top ends
        top = z0 + ((ts - s0[at]) / (s_ends[1] - s0)[at])[:, None] * (ends[1, at] - z0)
    else:
        zdir = body.recession_cone().interior_direction()
        top = z0 + ((ts - s0[at]) / np.vecdot(N, zdir)[at])[:, None] * zdir
    np.copyto(anchors, top, where=~low[:, None])
    return anchors, _plane_basis(N)[:, which]


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


def _refine_radii(r):
    """Guesses for the radii at the midpoints between n polar nodes, per row.

    Trigonometric interpolation: the radial function of a smooth section is
    analytic in the angle, so this is far better than a linear one.
    """
    g = (2.0 * np.fft.irfft(np.fft.rfft(r), 2 * r.shape[-1]))[:, 1::2]
    return np.where(g > 0.0, g, 0.5 * (r + np.roll(r, -1, axis=-1)))


def _polar_rule(r, moments, jac, axes):
    """Measure and first moments of the periodic trapezoid rule on the radii
    of each row of r, cast along cos t g1 + sin t g2: axes[i, j] holds
    <g_i, e_j> per row, (2, 2, rows), and jac is |g1 x g2|.
    The moments, in (e1, e2), of the rows in the mask moments, 0 for the
    others."""
    n = r.shape[-1]
    measure = jac * np.add.reduce(r ** 2, axis=-1) * math.pi / n
    theta = 2.0 * math.pi * np.arange(n) / n
    rows = r[moments]
    c = np.add.reduce(rows ** 3 * np.cos(theta), axis=-1) * (2.0 * math.pi / n) / 3.0
    s = np.add.reduce(rows ** 3 * np.sin(theta), axis=-1) * (2.0 * math.pi / n) / 3.0
    m = np.zeros((2, len(measure)))
    m[:, moments] = jac[moments] * (c * axes[0][:, moments] + s * axes[1][:, moments])
    return measure, m[0], m[1]


def _widest(r, dirs):
    """Diameter estimate per row of radii r along dirs, (d, rows, nodes):
    the longest chord through opposite nodes."""
    h = r.shape[-1] // 2
    return np.max((r[:, :h] + r[:, h:]) * np.linalg.norm(dirs[:, :, :h], axis=0), axis=-1)


def _centred_sections(body, normals, which, ts, admissible=False, setup=None):
    """Anchor the sections {<u,x> = t}, t in ts and u = normals[which], on the
    spine and centre them.

    The spine anchors and plane bases come from ``_section_frames`` (which
    with admissible first checks the levels, and reads setup, the normals'
    ``PlaneSetup``, where given), each plane oriented so that the unbounded
    side of the level axis is +u. A 2D anchor then moves to
    the midpoint of its chord along the plane's basis vector. In 3D, on a
    body whose kind has a form Q, the anchor moves to the centre of Q's
    ellipse in the plane, which is the section's centroid: about the anchor
    a, Q(a + x e1 + y e2) = z^T M z + beta^T z + c with z = (x, y), read off
    Q along e1, e2 and e1 + e2, so the centre is z* = -M^-1 beta / 2 and the
    section is z^T M z <= kappa about it, with kappa = -c + beta^T M^-1
    beta / 4 = -Q(z*). A level where F at the spine anchors or kappa does
    not read the anchor strictly inside grazes the body. Any other 3D
    anchor casts 8 rays in one batch, along +-e1, +-e2 and +-(e1 +-
    e2)/sqrt(2), and moves to the mean of the four chords' midpoints, with
    the e1 and e2 chords' half-lengths as the guide's semi-axes. Returns the
    centred anchors, the spine anchors, the plane basis (one (L, d) array of
    rows per basis vector), the guide (in 2D one row of the chords'
    half-lengths, in 3D one (L, d) array of rows per vector g1 =
    e1/sqrt(a), g2 = (e2 - (b/2a) e1) / sqrt(c - b^2/4a) of the Cholesky
    factor of its ellipse a x^2 + b x y + c y^2 = 1 about the anchor, which
    map the unit circle onto it),
    the oracle points spent per level, and whether the sections were
    centred from a form (then each is the guide's ellipse to rounding). A
    cone that meets the plane means unbounded sections; an anchor that is
    not strictly inside means a level grazes the body.
    """
    spine, basis = _section_frames(body, normals, which, ts, admissible, setup)
    abc = None
    if len(basis) == 2:
        Y = np.ascontiguousarray(spine.T)  # coordinate-major, as F takes batches
        abc = ray_quadratic(body, np.tile(Y, 3), np.concatenate([*basis, basis[0] + basis[1]]).T)
    if abc is not None:
        if not (body.defining(Y.T) < 0.0).all():
            raise DegenerateSection("section anchor is not inside the body")
        # M = [[a1, m], [m, a2]], beta = (b1, b2)
        (a1, a2, a12), (b1, b2, _), (c, _, _) = (v.reshape(3, -1) for v in abc)
        m = 0.5 * (a12 - a1 - a2)
        det = a1 * a2 - m * m
        x, y = 0.5 * (m * b2 - a2 * b1) / det, 0.5 * (m * b1 - a1 * b2) / det
        kappa = -c - 0.5 * (b1 * x + b2 * y)
        if not (kappa > 0.0).all():
            raise DegenerateSection("section anchor is not inside the body")
        form, n_evals = (a1 / kappa, 2.0 * m / kappa, a2 / kappa), np.ones(len(spine), dtype=int)
    else:
        # each ray's coefficients on the basis vectors: (cos, sin) in 3D, +-1 in 2D
        star = _OCTAGON if len(basis) == 2 else np.array([[1.0, -1.0]])
        dirs = sum(c * w.T[:, :, None] for c, w in zip(star, basis))
        try:
            r, n_evals = _polar_radii(body, spine, dirs, None)
        except NotInterior as e:
            raise DegenerateSection("section anchor is not inside the body") from e
        if len(basis) == 1:
            half, mid = 0.5 * (r[:, 0] + r[:, 1]), 0.5 * (r[:, 0] - r[:, 1])
            return spine + mid[:, None] * basis[0], spine, basis, half[None], n_evals, False
        mid = 0.5 * (r[:, :4] - r[:, 4:])
        x = 0.25 * (mid[:, 0] + _SQRT_HALF * (mid[:, 1] - mid[:, 3]))
        y = 0.25 * (mid[:, 2] + _SQRT_HALF * (mid[:, 1] + mid[:, 3]))
        form = (4.0 / (r[:, 0] + r[:, 4]) ** 2, np.zeros(len(r)), 4.0 / (r[:, 2] + r[:, 6]) ** 2)
    anchors = spine + x[:, None] * basis[0] + y[:, None] * basis[1]
    a, b, c = form
    g1 = basis[0] / np.sqrt(a)[:, None]
    g2 = (basis[1] - (0.5 * b / a)[:, None] * basis[0]) / np.sqrt(c - 0.25 * b * b / a)[:, None]
    return anchors, spine, basis, np.array((g1, g2)), n_evals, abc is not None


def _guide_axes(basis, guide):
    """axes[i, j] = <g_i, e_j>, (2, 2, L), and jac = |g1 x g2|, one entry per
    level of the plane basis (e1, e2) and the guide (g1, g2)."""
    axes = np.add.reduce(guide[:, None] * basis, axis=-1)
    return axes, np.abs(axes[0, 0] * axes[1, 1] - axes[0, 1] * axes[1, 0])


def _major_axes(guide):
    """The major axis of each guide's ellipse, 2 sigma_max[g1 g2], one entry
    per level of the guide (g1, g2): twice the root of the larger eigenvalue
    of [[p, s], [s, r]], with p = |g1|^2, r = |g2|^2 and s = <g1, g2>."""
    g1, g2 = guide
    p, r, s = np.vecdot(g1, g1), np.vecdot(g2, g2), np.vecdot(g1, g2)
    return 2.0 * np.sqrt(0.5 * (p + r) + np.hypot(0.5 * (p - r), s))


def _form_check(body, anchors, guide):
    """Whether F confirms that each form-centred 3D section, about its anchor
    with guide (g1, g2), is the guide's ellipse, and the oracle points spent
    per level.

    One ``defining`` call takes F at the root-finder's inner pair of probes,
    1 -+ 2^-41, along each of the ``_FIRST_NODES`` directions of the first
    polar batch, formed as the root-finder forms them. A level passes where
    every node ends there by the root-finder's own stop rule: the pair
    brackets F = 0 (inside, then outside), or F at either probe is within
    its rounding band 4 eps T (``bodies._band``).
    """
    dirs = _polar_dirs(guide[0], guide[1], _FIRST_NODES)
    pts = _CHECK_PROBES * dirs[:, None]  # (d, probes, levels, nodes)
    pts += anchors.T[:, None, :, None]
    f = body.defining(pts.reshape(len(dirs), -1).T).reshape(2, -1)
    ok = (f[0] <= 0.0) & (f[1] > 0.0)
    if np.count_nonzero(ok) < ok.size:
        band = np.empty_like(f)
        _band(body, f, _CHECK_PROBES.reshape(2, 1), np.repeat(anchors[:, -1], _FIRST_NODES),
              dirs[-1].ravel(), band)
        ok |= np.abs(f[0]) <= band[0]
        ok |= np.abs(f[1]) <= band[1]
    return ok.reshape(len(anchors), -1).all(axis=1), 2 * _FIRST_NODES


def _polar_sections(body, anchors, basis, guide, rtol, moments, wide):
    """Section integrals around centred anchors, with node-doubling refinement.

    Returns per level the measure, centroid, error estimate, oracle points
    spent beyond the centring, and whether the rule met its entry of
    the per-level tolerances rtol; then the diameters of the levels wide (an
    index array). moments is a mask of the levels whose centroid is
    wanted; the others keep the anchor as centroid and stop on the measure
    alone.  A 2D section is its centring chord: the anchor is its midpoint
    and centroid, and its length the measure and the diameter.  In 3D node
    t casts its ray along cos t g1 + sin t g2 (the guide of
    ``_centred_sections``) with guess 1, a quadric's hits to rounding; the
    sums are scaled by |g1 x g2| and the moments mapped back to (e1, e2)
    before their gap is tested. The rules are nested: the first batch of
    ``_FIRST_NODES`` rays per level is compared with its subrule at every
    other node, and each doubling casts only the new midpoint rays of the
    levels still short of rtol, guessed by interpolating the radii so far.
    A level still short at ``_MAX_POLAR_NODES`` stops there unconverged.
    A level in wide adds the other nodes of its ``_DIAMETER_NODES`` grid
    (the first batch holds every 8th) as more groups of rays from its
    anchor in the same batch, whose points are not counted, and its
    diameter is taken on that grid, bitwise as ``section_diameter`` takes
    it. The grid is built only when wide is not empty: a batch with no
    diameter level casts its first batch alone.
    """
    if len(basis) == 1:
        measure = 2.0 * guide[0]
        converged = np.ones(len(anchors), dtype=bool)
        return measure, anchors, 1e-12 * measure, 0, converged, measure[wide]
    (e1, e2), (g1, g2) = basis, guide
    axes, jac = _guide_axes(basis, guide)
    n, n_levels = _FIRST_NODES, len(anchors)
    dirs, origins, diameter = _polar_dirs(g1, g2, n), anchors, np.zeros(0)
    if wide.size:
        # the first batch holds every step-th node of the diameter grid, and
        # the levels in wide cast its other nodes in step - 1 more groups of rays
        step = _DIAMETER_NODES // n
        grid = _polar_dirs(g1[wide], g2[wide], _DIAMETER_NODES)
        rest = np.flatnonzero(np.arange(_DIAMETER_NODES) % step)
        dirs = np.concatenate((dirs, grid[:, :, rest].reshape(len(grid), len(wide) * (step - 1), n)),
                              axis=1)
        origins = np.concatenate((anchors, np.repeat(anchors[wide], step - 1, axis=0)))
    r, n_evals = _polar_radii(body, origins, dirs, np.ones(dirs[0].size))
    if wide.size:
        full = np.empty((len(wide), _DIAMETER_NODES))
        full[:, ::step], full[:, rest] = r[wide], r[n_levels:].reshape(len(wide), len(rest))
        diameter = _widest(full, grid)
        r, n_evals = r[:n_levels], n_evals[:n_levels]
    measure, err = np.empty(n_levels), np.empty(n_levels)
    centroid, converged = np.empty_like(anchors), np.zeros(n_levels, dtype=bool)
    prev = _polar_rule(r[:, ::2], moments, jac, axes)
    todo = np.arange(n_levels)  # levels still refining
    while True:
        mu, m1, m2 = _polar_rule(r, moments, jac[todo], axes[:, :, todo])
        gap = np.abs(mu - prev[0])
        # math.hypot level by level: np.hypot can differ from it in the last
        # bit, and the stopping test must not depend on the batch
        moment_gap = np.zeros(len(todo))
        moment_gap[moments] = list(map(math.hypot, (m1 - prev[1])[moments].tolist(),
                                       (m2 - prev[2])[moments].tolist()))
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
                              _polar_dirs(g1[todo], g2[todo], 2 * n, np.arange(1, 2 * n, 2)),
                              _refine_radii(r))
        n_evals[todo] += k
        r = np.stack([r, mid], axis=2).reshape(len(todo), -1)
        n *= 2


def _rtols(rtol, n):
    """rtol, a number or n numbers, as an array of n relative tolerances,
    each of which must lie in (0, 1)."""
    rtol = np.full(n, rtol, dtype=float)
    # written so that a NaN fails the test too
    if not ((rtol > 0.0) & (rtol < 1.0)).all():
        raise ValueError("rtol must lie in (0, 1)")
    return rtol


def _sections(body, normals, which, ts, rtol, moments, diameter=False, admissible=False,
              setup=None):
    """The section kernel: measure, centroid, error estimate, oracle points
    and convergence of every section {<u,x> = t}, t in the 1-D array ts and
    u = normals[which], to rtol, a number or one tolerance per level; then
    the diameters of the levels in the mask diameter, and the mask of the
    levels whose anchor lies inside the body. With admissible, a level
    outside its normal's admissible interval by 1e-9 scale first raises
    ``LevelOutOfRange``. setup is the normals' ``PlaneSetup`` where the
    caller has it (else the kernel sets them up).

    moments is the mask of the levels whose centroid is wanted; the centroid
    of any other level is its centred anchor, and its rule stops on the
    measure alone. Either mask may be one bool for every level. A 3D level
    centred from its kind's form takes the closed form when ``_form_check``
    passes it: measure pi |g1 x g2|, centroid the centred anchor, diameter
    ``_major_axes``', err 2 ``_HIT_RTOL`` times the measure (the polar
    rule's bound on radii that are 1 to rounding) and 1 + 2 ``_FIRST_NODES``
    oracle points; any other level takes the polar rule, and one that fails
    the check counts the check's points too. Either way each level is
    bitwise its lone call's.

    This is the one place that decides grazing: a level whose spine anchor
    is not strictly inside the body has measure 0, False in the inside mask
    and 0 in every other entry. Where one does, each level is sectioned
    alone, and every other level comes out as its lone section, bitwise.
    Near a support level a centred anchor can round outside the body, which
    refuses the first polar batch: then each level whose centred anchor F
    does not read inside is integrated about its spine anchor instead (the
    points of the refused batch are not counted).
    """
    rtol = _rtols(rtol, ts.size)
    moments = np.full(ts.shape, moments, dtype=bool)
    diameter = np.full(ts.shape, diameter, dtype=bool)
    try:
        anchors, spine, basis, guide, n_evals, formed = _centred_sections(body, normals, which, ts,
                                                                          admissible, setup)
    except DegenerateSection:
        if ts.size == 1:
            return (np.zeros(1), np.zeros((1, normals.shape[1])), np.zeros(1), np.zeros(1, dtype=int),
                    np.zeros(1, dtype=bool), np.zeros(np.count_nonzero(diameter)), np.zeros(1, dtype=bool))
        alone = [_sections(body, normals, which[i:i + 1], ts[i:i + 1], rtol[i:i + 1],
                           moments[i:i + 1], diameter[i:i + 1], setup=setup) for i in range(ts.size)]
        return tuple(np.concatenate(part) for part in zip(*alone))
    polar = None  # the mask of the levels left to the polar rule, if not all
    diam = np.zeros(0)
    if formed:
        closed, k = _form_check(body, anchors, guide)
        n_evals += k
        # every radius is 1 to rounding: the polar rule's measure is jac pi,
        # its centroid the anchor, its error bound its hits', and the
        # diameter is the guide ellipse's major axis
        measure = _guide_axes(basis, guide)[1] * math.pi
        err, converged = 2.0 * _HIT_RTOL * measure, np.ones(ts.size, dtype=bool)
        if np.count_nonzero(diameter):
            diam = _major_axes(guide[:, diameter])
        polar = ~closed
        if not np.count_nonzero(polar):
            return measure, anchors, err, n_evals, converged, diam, converged.copy()
    sel = slice(None) if polar is None else polar
    sub = anchors[sel], basis[:, sel], guide[:, sel], rtol[sel], moments[sel]
    wide = np.flatnonzero(diameter[sel])
    try:
        out = _polar_sections(body, *sub, wide)
    except NotInterior:
        centred = sub[0]
        outside = ~(body.defining(centred) < 0.0)
        centred[outside] = spine[sel][outside]
        out = _polar_sections(body, *sub, wide)
        n_evals[sel] += 1  # F at the centred anchors
    if polar is None:
        measure, anchors, err, k, converged, diam = out
    else:
        measure[polar], anchors[polar], err[polar], k, converged[polar], diam[polar[diameter]] = out
    n_evals[sel] += k
    return measure, anchors, err, n_evals, converged, diam, np.ones(ts.size, dtype=bool)


def _check_levels(body, ts, lo, hi):
    """Raise ``LevelOutOfRange`` unless every level of ts lies inside the
    admissible interval (lo, hi) of its normal by 1e-9 scale (lo and hi one
    number each, or one per level)."""
    buf = 1e-9 * body.scale
    outside = ~((lo + buf <= ts) & (ts <= hi - buf))
    if outside.any():
        i = outside.argmax()
        lo, hi = (float(np.broadcast_to(v, ts.shape)[i]) for v in (lo, hi))
        raise LevelOutOfRange(f"level {float(ts[i])} outside admissible interval ({lo}, {hi})")


def _check_measures(body, measure, inside):
    """Raise ``DegenerateSection`` if any level grazes the body or its
    measure is below the threshold."""
    if not np.all(inside):
        raise DegenerateSection("section anchor is not inside the body")
    if np.any(measure < 1e-12 * body.scale ** (body.ambient_dim - 1)):
        raise DegenerateSection("section measure below threshold")


def section_stats(body, u, t, rtol=DEFAULT_RTOL) -> SectionStats:
    """Measure and centroid of the section {<u,x> = t} of a convex body.

    For a 1-D array of levels t, the sections at all of them in one batch.
    On a 3D quadric a level F confirms is its ellipse: the measure is pi
    |g1 x g2| and the centroid the ellipse's centre, read off the kind's
    form, with no ray cast; elsewhere the polar rule's.
    u may also be its ``PlaneSetup`` of one row (see ``_planes``).
    Every level must lie inside ``admissible_levels`` by 1e-9 scale, else
    ``LevelOutOfRange``: an empty section has no centroid. A level that
    grazes the body, or whose measure is below 1e-12 scale^(d-1), raises
    ``DegenerateSection``.
    """
    if (len(u.normals) if isinstance(u, PlaneSetup) else np.ndim(u)) != 1:
        raise ValueError("section_stats takes one normal for all its levels")
    normals, which, ts, scalar, setup = _planes(u, t)
    u = normals[0]
    measure, centroid, err, n_evals, converged, _, inside = _sections(
        body, normals, which, ts, rtol, True, admissible=True, setup=setup)
    _check_measures(body, measure, inside)
    if scalar:
        return SectionStats(u, float(ts[0]), float(measure[0]), centroid[0], float(err[0]),
                            int(n_evals[0]), bool(converged[0]))
    return SectionStats(u, ts, measure, centroid, err, n_evals, converged)


def section_measure(body, u, t, rtol=DEFAULT_RTOL):
    """Measure only (cheaper inner loop for volume slicing); an array of
    measures for a 1-D array of levels. On a 3D quadric a level's measure
    is its ellipse's area, pi |g1 x g2| from the form-centred guide, checked
    by F at the polar rule's first nodes and cast no ray; elsewhere, and
    where F disagrees, the polar rule's.

    u is one normal, or one normal per level as an (L, d) array, and rtol
    a number or one tolerance per level: the levels of several cuts in one
    batch. u may also be those normals' ``PlaneSetup`` (see ``_planes``),
    as the cut volumes hand on their own. The measure is defined at every
    finite level: it is 0 where the plane misses the body or grazes it so
    that its anchor is not strictly inside, so cut volumes integrate it up
    to the support levels. Unlike
    ``section_stats`` and ``section_diameter``, which refuse a level outside
    ``admissible_levels`` because an empty section has no centroid or
    diameter, it refuses only a NaN level (``ValueError``), an infinite one
    (``LevelOutOfRange``) and a normal whose sections are unbounded
    (``UnboundedSection``).
    """
    normals, which, ts, scalar, setup = _planes(u, t)
    measure = _sections(body, normals, which, ts, rtol, False, setup=setup)[0]
    return float(measure[0]) if scalar else measure


def section_diameter(body, u, t) -> float:
    """Diameter of the section at one level (inside ``admissible_levels`` as
    for ``section_stats``, else ``LevelOutOfRange``). On a 3D quadric a level
    F confirms (``_form_check``) is its ellipse, and the diameter its major
    axis 2a = 2 sigma_max[g1 g2], with no ray cast. Elsewhere it is an
    estimate, the longest chord through the anchor on a 128-node grid in
    the guide's angle: on a quadric level F refuses, the chords are
    diameters of its ellipse, at most (1 - (b/a)^2) (pi/128)^2 / 2 short of
    2a, relative."""
    normals, which, ts, scalar, setup = _planes(u, t)
    if not scalar:
        raise ValueError("section_diameter takes one level")
    anchors, _, basis, guide, _, formed = _centred_sections(body, normals, which, ts,
                                                            admissible=True, setup=setup)
    if len(basis) == 1:
        return float(2.0 * guide[0, 0])
    if formed and _form_check(body, anchors, guide)[0][0]:
        return float(_major_axes(guide)[0])
    dirs = _polar_dirs(*guide, _DIAMETER_NODES)
    r = _polar_radii(body, anchors, dirs, np.ones(_DIAMETER_NODES))[0]
    return float(_widest(r, dirs)[0])
