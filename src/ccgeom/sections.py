"""Hyperplane sections: boundedness, admissible levels, measure and centroid.

2D sections are chords: both ends come from one two-ray call of the
boundary root-finder.  3D sections are integrated in polar coordinates
around an interior anchor with a fixed node-doubling refinement schedule,
so results are deterministic for a given tolerance.  ``n_evals`` counts the
points at which the body's defining function was evaluated, in 2D and 3D.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import ConeDescriptor, _check_unit, ray_hits_batch
from .errors import (
    DegenerateSection,
    LevelOutOfRange,
    NotInterior,
    UnboundedSection,
)

DEFAULT_RTOL = 1e-8
_MAX_POLAR_NODES = 16384


@dataclass(frozen=True)
class SectionStats:
    """Measure and centroid of one bounded hyperplane section."""

    u: np.ndarray
    t: float
    measure: float
    centroid: np.ndarray
    err_estimate: float
    n_evals: int  # points at which the defining function was evaluated

    def csv_row(self):
        return (
            [float(c) for c in self.u]
            + [self.t, self.measure]
            + [float(c) for c in self.centroid]
            + [self.err_estimate, self.n_evals]
        )


def csv_header(dim: int):
    axes = ["x", "y", "z"][:dim]
    return (
        [f"u{a}" for a in axes]
        + ["t", "measure"]
        + [f"c{a}" for a in axes]
        + ["err", "n_evals"]
    )


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


def _line_interior_point(body, p0, w, scale):
    """A point p0 + s*w strictly inside the body, by 1D convex descent on F."""

    def phi(s):
        return float(body.defining(p0 + s * w))

    n_evals = 1
    v0 = phi(0.0)
    if v0 < 0.0:
        return 0.0, n_evals
    # walk downhill with doubling steps, then golden-section shrink
    step = scale
    a, b, c = -step, 0.0, step
    fa, fb, fc = phi(a), v0, phi(c)
    n_evals += 2
    for _ in range(300):
        if fb < 0.0:
            return b, n_evals
        if fb <= fa and fb <= fc:
            break
        if fa < fc:
            a, b, c = a - 2.0 * (b - a), a, b
            fb, fc = fa, fb
            fa = phi(a)
        else:
            a, b, c = b, c, c + 2.0 * (c - b)
            fa, fb = fb, fc
            fc = phi(c)
        n_evals += 1
    # golden shrink on the bracketed convex minimum
    inv = 0.5 * (3.0 - math.sqrt(5.0))
    for _ in range(300):
        if fb < 0.0:
            return b, n_evals
        if c - a < 1e-13 * max(1.0, scale):
            raise DegenerateSection("hyperplane misses the interior of the body")
        if c - b > b - a:
            x = b + inv * (c - b)
            fx = phi(x)
            n_evals += 1
            if fx < fb:
                a, b, fb = b, x, fx
            else:
                c, fc = x, fx
        else:
            x = b - inv * (b - a)
            fx = phi(x)
            n_evals += 1
            if fx < fb:
                c, b, fb = b, x, fx
            else:
                a, fa = x, fx
    raise DegenerateSection("interior search failed to converge")


def _chord(body, p0, w, s_in):
    """Chord of the line p0 + s*w through the interior point at s_in.

    Returns the chord's two end parameters and the oracle points spent.
    """
    r, n = ray_hits_batch(body, p0 + s_in * w, np.stack([w, -w]), return_evals=True)
    return s_in - r[1], s_in + r[0], n


def _section_chord(body, u, t):
    """2D section {<u,x> = t} as the chord p0 + s*w, s in [s_lo, s_hi].

    Returns (p0, w, s_lo, s_hi, oracle points spent).
    """
    w = _plane_basis(u)[0]
    p0 = t * u
    s_in, n0 = _line_interior_point(body, p0, w, body.scale)
    s_lo, s_hi, n1 = _chord(body, p0, w, s_in)
    return p0, w, s_lo, s_hi, n0 + n1


def _section_anchor_3d(body, u, t):
    """Interior point of the section plane via the interior 'spine' of the body.

    The spine runs from the boundary point attaining the minimum level,
    through a deep interior point, and onward to either the maximum-level
    boundary point (bounded bodies) or along an interior recession direction.
    Points on it are interior by convexity and hit every level once.
    """
    cone = body.recession_cone()
    if isinstance(body, ConeDescriptor) or body.kind == "circular-cone":
        # the axis from the apex meets every level inside the cone
        zdir = cone.interior_direction()
        apex = np.zeros(3) if isinstance(body, ConeDescriptor) else body.translation
        return apex + zdir * ((t - float(u @ apex)) / float(u @ zdir))
    z0 = body.interior_point()
    s0 = float(u @ z0)
    p_bot = body.inverse_gauss(-np.asarray(u))
    s_bot = float(u @ p_bot)
    if t <= s0:
        lam = (t - s_bot) / (s0 - s_bot)
        return p_bot + lam * (z0 - p_bot)
    if cone.dim == 0:
        p_top = body.inverse_gauss(np.asarray(u))
        s_top = float(u @ p_top)
        lam = (t - s0) / (s_top - s0)
        return z0 + lam * (p_top - z0)
    zdir = cone.interior_direction()
    return z0 + (t - s0) / float(u @ zdir) * zdir


def _center_anchor(body, anchor, basis):
    """Recenter the anchor as successive chord midpoints (better conditioning).

    Returns the anchor, the chords' half-lengths and the oracle points spent.
    An anchor that is not strictly inside means the level grazes the body.
    """
    n, half = 0, []
    for w in basis:
        try:
            s_lo, s_hi, k = _chord(body, anchor, w, 0.0)
        except NotInterior as e:
            raise DegenerateSection("section anchor is not inside the body") from e
        anchor = anchor + 0.5 * (s_lo + s_hi) * w
        half.append(0.5 * (s_hi - s_lo))
        n += k
    return anchor, half, n


def _polar_radii(body, anchor, e1, e2, n_nodes, guess, nodes=None):
    """Radii along the polar nodes 2*pi*k/n_nodes, k in nodes (default all)."""
    k = np.arange(n_nodes) if nodes is None else nodes
    theta = 2.0 * math.pi * k / n_nodes
    dirs = np.outer(np.cos(theta), e1) + np.outer(np.sin(theta), e2)
    return ray_hits_batch(body, anchor, dirs, guess=guess, return_evals=True)


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


def _polar_section(body, u, t, anchor, rtol, want_moments):
    """Polar-coordinate section integrals with node-doubling refinement.

    The rules are nested: the first batch of 64 rays is compared with its
    32-node subrule, and each doubling casts only the new midpoint rays,
    started from guesses interpolated from the radii so far (the first
    batch from the ellipse through the centring chords).
    """
    e1, e2 = _plane_basis(u)
    anchor, half, n_evals = _center_anchor(body, anchor, (e1, e2))
    n = 64
    r, k = _polar_radii(body, anchor, e1, e2, n, _ellipse_radii(half, n))
    n_evals += k
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

    dim = body.ambient_dim
    cone = body.recession_cone()
    if dim == 3 and cone.dim > 0 and not cone.positive_on(u):
        # canonical orientation: the unbounded side of the level axis is +u
        inner = section_stats(body, -u, -t, rtol=rtol)
        return SectionStats(u, t, inner.measure, inner.centroid,
                            inner.err_estimate, inner.n_evals)

    if dim == 2:
        p0, w, s_lo, s_hi, n_evals = _section_chord(body, u, t)
        measure = s_hi - s_lo
        if measure < 1e-12 * scale:
            raise DegenerateSection("section measure below threshold")
        centroid = p0 + 0.5 * (s_lo + s_hi) * w
        return SectionStats(u, t, measure, centroid, 1e-12 * measure, n_evals)

    anchor = _section_anchor_3d(body, u, t)
    measure, centroid, err, n_evals = _polar_section(body, u, t, anchor, rtol, True)
    if measure < 1e-12 * scale ** 2:
        raise DegenerateSection("section measure below threshold")
    return SectionStats(u, t, measure, centroid, err, n_evals)


def section_measure(body, u, t, rtol=DEFAULT_RTOL) -> float:
    """Measure only (cheaper inner loop for volume slicing)."""
    u, t = _plane(u, t)
    dim = body.ambient_dim
    cone = body.recession_cone()
    if dim == 3 and cone.dim > 0 and not cone.positive_on(u):
        return section_measure(body, -u, -t, rtol=rtol)
    if dim == 2:
        _, _, s_lo, s_hi, _ = _section_chord(body, u, t)
        return s_hi - s_lo
    anchor = _section_anchor_3d(body, u, t)
    measure, _, _, _ = _polar_section(body, u, t, anchor, rtol, False)
    return measure


def section_diameter(body, u, t, n_nodes=128) -> float:
    """Diameter estimate of the section (max of opposite-radius sums)."""
    u, t = _plane(u, t)
    dim = body.ambient_dim
    cone = body.recession_cone()
    if dim == 3 and cone.dim > 0 and not cone.positive_on(u):
        return section_diameter(body, -u, -t, n_nodes=n_nodes)
    if dim == 2:
        return section_measure(body, u, t)
    anchor = _section_anchor_3d(body, u, t)
    e1, e2 = _plane_basis(u)
    anchor, half, _ = _center_anchor(body, anchor, (e1, e2))
    r, _ = _polar_radii(body, anchor, e1, e2, n_nodes, _ellipse_radii(half, n_nodes))
    half = n_nodes // 2
    return float(np.max(r[:half] + r[half:]))
