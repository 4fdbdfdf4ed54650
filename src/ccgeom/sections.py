"""Hyperplane sections: boundedness, admissible levels, measure and centroid.

Every section, in 2D and 3D, starts from one anchor: the point where the
level meets the body's interior 'spine', moved to the midpoints of
chords along the plane's basis vectors, each chord from one two-ray call
of the boundary root-finder.  In 2D the plane is a line and its chord is
the section, with the centred anchor as centroid.  3D sections are
integrated in polar coordinates around the centred anchor with a fixed
node-doubling refinement schedule, so results are deterministic for a
given tolerance.  ``n_evals`` counts the points at which the body's
defining function was evaluated, in 2D and 3D.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import _check_unit, ray_hits_batch
from .errors import (
    DegenerateSection,
    LevelOutOfRange,
    NotInterior,
    UnboundedSection,
)

DEFAULT_RTOL = 1e-8
_MAX_POLAR_NODES = 16384
_DIAMETER_NODES = 128


@dataclass(frozen=True)
class SectionStats:
    """Measure and centroid of one bounded hyperplane section."""

    u: np.ndarray
    t: float
    measure: float
    centroid: np.ndarray
    err_estimate: float
    n_evals: int  # points at which the defining function was evaluated


def _plane(u, t):
    """Validated (unit normal, level) of a hyperplane {<u,x> = t}."""
    t = float(t)
    if math.isnan(t):
        raise ValueError("hyperplane level must be a number")
    return np.array(_check_unit(u)), t


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


def _section_anchor(body, u, t):
    """Interior point of the section plane via the interior 'spine' of the body.

    The spine runs from the boundary point attaining the minimum level,
    through a deep interior point, and onward to either the maximum-level
    boundary point (bounded bodies) or along an interior recession direction.
    Points on it are interior by convexity and hit every level once.  When
    the minimum level is not attained (a cone's apex), the spine is the
    line through the interior point along the recession direction.
    """
    cone = body.recession_cone()
    z0 = body.interior_point()
    s0 = float(u @ z0)
    if t <= s0 and body.support_attained(-u):
        p_bot = body.inverse_gauss(-u)
        s_bot = float(u @ p_bot)
        lam = (t - s_bot) / (s0 - s_bot)
        return p_bot + lam * (z0 - p_bot)
    if cone.dim == 0:
        p_top = body.inverse_gauss(np.asarray(u))
        s_top = float(u @ p_top)
        lam = (t - s0) / (s_top - s0)
        return z0 + lam * (p_top - z0)
    zdir = cone.interior_direction()
    return z0 + (t - s0) / float(u @ zdir) * zdir


def _polar_radii(body, anchor, e1, e2, n_nodes, guess, nodes=None):
    """Radii along the polar nodes 2*pi*k/n_nodes, k in nodes (default all)."""
    k = np.arange(n_nodes) if nodes is None else nodes
    theta = 2.0 * math.pi * k / n_nodes
    dirs = np.outer(np.cos(theta), e1) + np.outer(np.sin(theta), e2)
    return ray_hits_batch(body, anchor, dirs, guess=guess)


def _ellipse_radii(half, n_nodes):
    """Radii at the polar nodes of the ellipse with semi-axes half along e1, e2."""
    theta = 2.0 * math.pi * np.arange(n_nodes) / n_nodes
    return 1.0 / np.hypot(np.cos(theta) / half[0], np.sin(theta) / half[1])


def _refine_radii(r):
    """Guesses for the radii at the midpoints between n polar nodes.

    Trigonometric interpolation: the radial function of a smooth section is
    analytic in the angle, so this is far better than a linear one.
    """
    g = (2.0 * np.fft.irfft(np.fft.rfft(r), 2 * len(r)))[1::2]
    return np.where(g > 0.0, g, 0.5 * (r + np.roll(r, -1)))


def _polar_rule(r, want_moments):
    """Measure and first moments of the periodic trapezoid rule on radii r."""
    n = len(r)
    measure = float(np.sum(r ** 2)) * math.pi / n
    if not want_moments:
        return measure, 0.0, 0.0
    theta = 2.0 * math.pi * np.arange(n) / n
    m1 = float(np.sum(r ** 3 * np.cos(theta))) * (2.0 * math.pi / n) / 3.0
    m2 = float(np.sum(r ** 3 * np.sin(theta))) * (2.0 * math.pi / n) / 3.0
    return measure, m1, m2


def _centred_section(body, u, t):
    """Anchor the section {<u,x> = t} on the spine and centre it by chords.

    The plane is first oriented so that the unbounded side of the level
    axis is +u, the way round the spine is built.  The anchor then moves to
    the midpoint of its chord along each basis vector in turn (better
    conditioning).  Returns the centred anchor, the plane basis, the
    chords' half-lengths and the oracle points spent.  A cone positive on
    neither side means unbounded sections; an anchor that is not strictly
    inside means the level grazes the body.
    """
    cone = body.recession_cone()
    if not cone.positive_on(u):
        if not cone.positive_on(-u):
            raise UnboundedSection(f"sections normal to {u} are unbounded")
        u, t = -u, -t
    basis = _plane_basis(u)
    anchor = _section_anchor(body, u, t)
    n_evals, half = 0, []
    for w in basis:
        try:
            r, k = ray_hits_batch(body, anchor, np.stack([w, -w]))
        except NotInterior as e:
            raise DegenerateSection("section anchor is not inside the body") from e
        anchor = anchor + 0.5 * (r[0] - r[1]) * w
        half.append(0.5 * (r[0] + r[1]))
        n_evals += k
    return anchor, basis, half, n_evals


def _polar_section(body, anchor, basis, half, rtol, want_moments):
    """Section integrals around a centred anchor, with node-doubling refinement.

    Returns the measure, centroid, error estimate and the oracle points
    spent beyond the centring chords.  A 2D section is its centring chord:
    the anchor is its midpoint and centroid.  In 3D the polar rules are
    nested: the first batch of 64 rays is compared with its 32-node
    subrule, and each doubling casts only the new midpoint rays, started
    from guesses interpolated from the radii so far (the first batch from
    the ellipse through the centring chords).
    """
    if len(basis) == 1:
        measure = 2.0 * half[0]
        return measure, anchor, 1e-12 * measure, 0
    e1, e2 = basis
    n = 64
    r, n_evals = _polar_radii(body, anchor, e1, e2, n, _ellipse_radii(half, n))
    prev = _polar_rule(r[::2], want_moments)
    while True:
        measure, m1, m2 = _polar_rule(r, want_moments)
        err = abs(measure - prev[0])
        moment_err = math.hypot(m1 - prev[1], m2 - prev[2])
        tol = rtol * max(measure, 1e-300)
        if (err <= tol and moment_err <= rtol * max(abs(m1) + abs(m2), measure)) or (
            n >= _MAX_POLAR_NODES
        ):
            centroid = anchor + (m1 * e1 + m2 * e2) / measure
            return measure, centroid, err + moment_err / max(measure, 1e-300), n_evals
        prev = (measure, m1, m2)
        mid, k = _polar_radii(body, anchor, e1, e2, 2 * n, _refine_radii(r),
                              np.arange(1, 2 * n, 2))
        n_evals += k
        r = np.stack([r, mid], axis=1).reshape(-1)
        n *= 2


def section_stats(body, u, t, rtol=DEFAULT_RTOL) -> SectionStats:
    """Measure and centroid of the section {<u,x> = t} of a convex body."""
    u, t = _plane(u, t)
    scale = body.scale
    lo, hi = admissible_levels(body, u)
    buf = 1e-9 * scale
    if not (lo + buf <= t <= hi - buf):
        raise LevelOutOfRange(f"level {t} outside admissible interval ({lo}, {hi})")
    anchor, basis, half, n_evals = _centred_section(body, u, t)
    measure, centroid, err, k = _polar_section(body, anchor, basis, half, rtol, True)
    if measure < 1e-12 * scale ** len(basis):
        raise DegenerateSection("section measure below threshold")
    return SectionStats(u, t, measure, centroid, err, n_evals + k)


def section_measure(body, u, t, rtol=DEFAULT_RTOL) -> float:
    """Measure only (cheaper inner loop for volume slicing)."""
    u, t = _plane(u, t)
    anchor, basis, half, _ = _centred_section(body, u, t)
    return _polar_section(body, anchor, basis, half, rtol, False)[0]


def section_diameter(body, u, t) -> float:
    """Diameter estimate of the section (max of opposite-radius sums)."""
    u, t = _plane(u, t)
    anchor, basis, half, _ = _centred_section(body, u, t)
    if len(basis) == 1:
        return 2.0 * half[0]
    n = _DIAMETER_NODES
    r, _ = _polar_radii(body, anchor, *basis, n, _ellipse_radii(half, n))
    return float(np.max(r[: n // 2] + r[n // 2:]))
