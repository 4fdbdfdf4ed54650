"""Centroid curves, line fitting, collinearity residuals, and line-family
classification (concurrent / parallel / neither)."""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bodies import _check_unit
from .errors import ConeSectionUnbounded, DegeneratePointSet
from .sections import DEFAULT_RTOL, _bounded_setup, admissible_levels, section_stats

GEOMETRIC_RATIO = 1.7
N_LEVELS_BOUNDED = 16
N_LEVELS_UNBOUNDED = 12
MIN_LEVELS = 8  # fewest levels a collinearity residual accepts


@dataclass(frozen=True)
class LineFit:
    """Affine line fitted to a point cloud by principal direction."""

    base: np.ndarray
    dir: np.ndarray
    residual_rms: float
    residual_norm: float
    n_points: int

    def distance_to(self, p):
        d = np.asarray(p) - self.base
        return float(np.linalg.norm(d - (d @ self.dir) * self.dir))


@dataclass(frozen=True)
class LineFamilyVerdict:
    """Outcome of the concurrent-vs-parallel dichotomy test."""

    tag: str  # "concurrent" | "parallel" | "neither"
    witness: np.ndarray  # common point if concurrent, direction if parallel
    score: float
    tie: bool = False


def sample_levels(body, u, n_levels=None):
    """Level grid for a centroid curve.

    Bounded intervals get interior Chebyshev nodes; half-infinite intervals
    get a geometric grid t0 + delta * r^k probing the asymptotic regime.
    ``n_levels`` is a whole number >= 1, or None for the interval's default.
    """
    if n_levels is not None:
        _check_count(n_levels, "n_levels")
    return _levels_in(*admissible_levels(body, u), n_levels)


def _check_count(n, name):
    """Refuse anything but a whole number >= 1 (not a bool) as the count name."""
    if (isinstance(n, (bool, np.bool_)) or not isinstance(n, numbers.Real)
            or not (n >= 1 and float(n).is_integer())):
        raise ValueError(f"{name} must be a whole number >= 1, got {n!r}")


def _levels_in(lo, hi, n_levels):
    """``sample_levels`` of the admissible interval (lo, hi)."""
    if math.isfinite(lo) and math.isfinite(hi):
        n = N_LEVELS_BOUNDED if n_levels is None else int(n_levels)
        j = np.arange(n)
        nodes = np.cos(math.pi * (2.0 * j + 1.0) / (2.0 * n))
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return np.sort(mid + half * nodes)
    n = N_LEVELS_UNBOUNDED if n_levels is None else int(n_levels)
    k = np.arange(n)
    # (-inf, inf) cannot occur: then the cone meets u-perp and admissible_levels raises
    end, side = (lo, 1.0) if math.isfinite(lo) else (hi, -1.0)
    return np.sort(end + side * 0.5 * max(1.0, abs(end)) * GEOMETRIC_RATIO ** k)


def centroid_curve(body, u, levels, rtol=DEFAULT_RTOL):
    """Section centroids sampled at the given levels, order preserved, from
    one batch of sections."""
    u = np.array(_check_unit(u))
    levels = np.array([float(t) for t in levels])
    if len(levels) < 3:
        raise ValueError("need at least 3 levels")
    return list(section_stats(body, u, levels, rtol=rtol).centroid)


def fit_line(points) -> LineFit:
    """Least-squares affine line through points (principal direction):
    any (n, d) array of n >= 3 points, or a sequence of n rows. The SVD's
    direction is refined by two Gauss-Newton steps on the perpendicular
    residuals, d += sum proj_i perp_i / sum proj_i^2, each renormalised.

    Means are sums over n and roots ``math.sqrt``, bitwise what ``np.mean``
    and ``np.sqrt`` give.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3:
        raise DegeneratePointSet("need at least 3 points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    n = len(pts)
    base = np.add.reduce(pts, axis=0) / n
    centered = pts - base
    spread = math.sqrt(np.add.reduce(np.add.reduce(centered ** 2, axis=-1)) / n)
    if spread < 1e-300:
        raise DegeneratePointSet("points are all coincident")
    direction = np.linalg.svd(centered, full_matrices=False)[2][0]
    i = int(np.argmax(np.abs(direction)))
    if direction[i] < 0:
        direction = -direction
    # the SVD's direction is up to a few ulps off the fit; two steps bring it
    # within rounding of it (one is not enough)
    for _ in range(2):
        proj = centered @ direction
        perp = centered - np.outer(proj, direction)
        direction = direction + (proj @ perp) / (proj @ proj)
        direction /= math.sqrt(direction @ direction)
    proj = centered @ direction
    perp = centered - np.outer(proj, direction)
    residual_rms = math.sqrt(np.add.reduce(np.add.reduce(perp ** 2, axis=-1)) / n)
    along_rms = math.sqrt(np.add.reduce(proj ** 2) / n)
    residual_norm = residual_rms / along_rms if along_rms > 0 else 1.0
    return LineFit(base, direction, residual_rms, min(residual_norm, 1.0), n)


def sccp_residual(body, u, n_levels=None, rtol=DEFAULT_RTOL) -> LineFit:
    """Collinearity of the centroid curve in direction u.

    residual_norm is the scale-free violation measure: 0 for bodies whose
    parallel-section centroids are collinear, bounded away from 0 otherwise.
    """
    # UnboundedSection where the sections are unbounded; the kernel reads
    # this set-up of u rather than take its own
    setup = _bounded_setup(body, np.array(u, dtype=float))
    if n_levels is not None:
        _check_count(n_levels, "n_levels")
        if n_levels < MIN_LEVELS:
            raise ValueError(f"need at least {MIN_LEVELS} levels")
    levels = _levels_in(float(setup.lo[0]), float(setup.hi[0]), n_levels)
    # the centroid curve of the levels, as ``centroid_curve`` takes it
    return fit_line(section_stats(body, setup, levels, rtol=rtol).centroid)


def classify_lines(lines, tol=1e-5) -> LineFamilyVerdict:
    """Concurrent / parallel / neither for a family of fitted lines.

    Concurrency is decided first via the least-squares common point; a
    near-singular normal matrix signals a (near-)parallel family. tol, finite
    and positive, bounds the relative distances and the angles of both tests.
    """
    if len(lines) < 3:
        raise ValueError("need at least 3 lines")
    # written so that a NaN fails the test too
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    dim = lines[0].base.shape[0]
    bases = np.array([ln.base for ln in lines])
    dirs = np.array([ln.dir for ln in lines])
    center = bases.mean(axis=0)
    scale = max(1.0, float(np.sqrt(np.mean(np.sum((bases - center) ** 2, axis=-1)))))

    # max pairwise angle (mod line orientation)
    max_angle = float(_line_angles(dirs, dirs).max())

    A = len(lines) * np.eye(dim) - dirs.T @ dirs
    rhs = np.zeros(dim)
    for b, d in zip(bases, dirs):
        rhs += b - (b @ d) * d
    eigvals = np.linalg.eigvalsh(A)
    w = dirs.mean(axis=0)
    w /= np.linalg.norm(w)
    if eigvals[0] < 1e-10 * len(lines):
        # common-point system is singular: family is parallel (or nearly so)
        tag = "parallel" if max_angle <= tol else "neither"
        return LineFamilyVerdict(tag, w, max_angle)
    p = np.linalg.solve(A, rhs)
    dmax = max(ln.distance_to(p) for ln in lines)
    concurrent = dmax <= tol * scale
    parallel = max_angle <= tol
    if concurrent:
        return LineFamilyVerdict("concurrent", p, dmax / scale, tie=parallel)
    if parallel:
        return LineFamilyVerdict("parallel", w, max_angle)
    return LineFamilyVerdict("neither", p, min(dmax / scale, max_angle))


def cone_direction_check(body, u, rtol=DEFAULT_RTOL) -> float:
    """Angle between the body's centroid line and its recession cone's.

    The cone's centroid line is the diameter conjugate to u, the line
    through its apex along ``cone.conjugate_direction(u)``.
    """
    u = np.array(_check_unit(u))
    cone = body.recession_cone()
    if cone.dim < body.ambient_dim:
        raise ConeSectionUnbounded("cone sections have measure zero")
    if cone.meets_hyperplane(u):
        raise ConeSectionUnbounded("cone sections normal to u are unbounded")
    fit = sccp_residual(body, u, rtol=rtol)
    return float(_line_angles(fit.dir[None], cone.conjugate_direction(u)[None])[0, 0])


def _line_angles(a, b):
    """Angles in [0, pi/2] between the lines along the rows of a and of b.

    Taken as atan2(|a ^ b|, |a . b|), which is exact near 0, where the
    arccos of the cosine cannot resolve angles below about sqrt(eps).
    |a ^ b|^2 is the sum over i < j of (a_i b_j - a_j b_i)^2, built one
    plane (i, j) at a time so that no work array outgrows len(a) x len(b).
    """
    dot = np.abs(a @ b.T)
    wedge2 = np.zeros_like(dot)
    for i, j in itertools.combinations(range(a.shape[1]), 2):
        wedge2 += (np.outer(a[:, i], b[:, j]) - np.outer(a[:, j], b[:, i])) ** 2
    return np.arctan2(np.sqrt(wedge2), dot)
