import math
import warnings

import mpmath
import numpy as np
import pytest

from ccgeom import (
    admissible_levels,
    centroid_curve,
    classify_lines,
    cone_direction_check,
    ellipsoid,
    fit_line,
    function_epigraph,
    hyperboloid_sheet,
    paraboloid_epigraph,
    sample_levels,
    sccp_residual,
    section_stats,
    superellipsoid,
    unit_disk,
)
from ccgeom.centroids import GEOMETRIC_RATIO, LineFit
from ccgeom.errors import ConeSectionUnbounded, DegeneratePointSet, UnboundedSection

from oracles import line_fit, parabola_chord_midpoint


EPS = np.finfo(float).eps


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_sample_levels_bounded_interior():
    d = unit_disk(center=[0.0, 5.0])
    ts = sample_levels(d, np.array([0.0, 1.0]))
    assert len(ts) >= 8
    assert all(4.0 < t < 6.0 for t in ts)


def test_sample_levels_half_infinite():
    p = paraboloid_epigraph([1.0, 1.0])
    ts = sample_levels(p, np.array([0.0, 0.0, 1.0]))
    assert len(ts) >= 8
    assert all(t > 0.0 for t in ts)
    assert list(ts) == sorted(ts)


def test_sample_levels_below_a_finite_top():
    # the upper hyperbola seen from below: levels <u, x> = -y fill (-inf, -1]
    h = hyperboloid_sheet([1.0])
    u = np.array([0.0, -1.0])
    lo, hi = admissible_levels(h, u)
    assert lo == -math.inf and hi == pytest.approx(-1.0)
    ts = sample_levels(h, u)
    assert len(ts) >= 8
    assert np.all(np.diff(ts) > 0.0) and np.all(ts < hi)
    gaps = (hi - ts)[::-1]
    assert np.allclose(gaps[1:] / gaps[:-1], GEOMETRIC_RATIO, rtol=1e-12)


def test_sample_levels_unbounded_direction_raises():
    p = paraboloid_epigraph([1.0, 1.0])
    with pytest.raises(UnboundedSection):
        sample_levels(p, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("n_levels", [0, -3, 8.5, math.nan, math.inf])
def test_sample_levels_refuses_a_count_that_is_not_a_whole_number(n_levels):
    # 0 once read as the default, -3 gave no level, and 8.5 nine Chebyshev
    # nodes, the last on the support level
    with pytest.raises(ValueError, match="n_levels"):
        sample_levels(unit_disk(), np.array([0.0, 1.0]), n_levels)
    with pytest.raises(ValueError, match="n_levels"):
        sample_levels(paraboloid_epigraph([1.0, 1.0]), np.array([0.0, 0.0, 1.0]), n_levels)


@pytest.mark.parametrize("n_levels", [True, np.True_])
def test_sample_levels_refuses_a_bool_count(n_levels):
    # True once read as one level
    for body, u in ((unit_disk(), [0.0, 1.0]), (paraboloid_epigraph([1.0, 1.0]), [0.0, 0.0, 1.0])):
        with pytest.raises(ValueError, match="n_levels"):
            sample_levels(body, np.array(u), n_levels)


def test_sample_levels_takes_a_whole_count():
    u = np.array([0.0, 0.0, 1.0])
    assert len(sample_levels(ellipsoid([1.0, 1.0, 1.0]), u, 9)) == 9
    assert len(sample_levels(ellipsoid([1.0, 1.0, 1.0]), u, 9.0)) == 9
    assert len(sample_levels(paraboloid_epigraph([1.0, 1.0]), u, np.int64(10))) == 10
    fit = sccp_residual(ellipsoid([1.0, 1.0, 1.0]), u, n_levels=9.0)
    assert fit.n_points == 9


@pytest.mark.parametrize("n_levels", ["3", "16", True, np.True_, 8.5, math.nan])
def test_sccp_residual_reads_its_count_before_comparing_it(n_levels):
    # a count that is no whole number is named as such, before the
    # comparison with MIN_LEVELS can raise a TypeError or read True as 1
    with pytest.raises(ValueError, match="n_levels must be a whole number"):
        sccp_residual(paraboloid_epigraph([1.0, 1.0]), np.array([0.0, 0.0, 1.0]), n_levels=n_levels)


def test_sccp_residual_refuses_fewer_than_min_levels():
    with pytest.raises(ValueError, match="need at least 8 levels"):
        sccp_residual(paraboloid_epigraph([1.0, 1.0]), np.array([0.0, 0.0, 1.0]), n_levels=7)


def test_fit_line_exact_points():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    fit = fit_line(pts)
    assert fit.residual_norm < 1e-14
    assert abs(fit.dir @ _unit([1.0, 1.0])) == pytest.approx(1.0)


@pytest.mark.parametrize("body,u", [
    (ellipsoid([1.0, 2.0, 3.0], center=[0.1, 0.2, -0.3]), [1.0, 2.0, 2.0]),
    (paraboloid_epigraph([1.0, 0.7], shift=[0.0, 0.0, 1.0]), [0.1, -0.2, 0.4]),
    (hyperboloid_sheet([1.0, 1.4]), [0.1, -0.2, 0.9]),
], ids=["ellipsoid", "paraboloid", "sheet"])
def test_sccp_residual_is_the_fit_of_the_centroid_rows_bitwise(body, u):
    # the centroid array goes to fit_line whole, and its sums over n and
    # math.sqrt are bitwise the fit of the centroids as a list of rows
    u = _unit(u)
    rows = list(section_stats(body, u, sample_levels(body, u)).centroid)
    fit, alone = sccp_residual(body, u), fit_line(rows)
    for name in ("base", "dir", "residual_rms", "residual_norm", "n_points"):
        assert np.array_equal(getattr(fit, name), getattr(alone, name)), name
        assert type(getattr(fit, name)) is type(getattr(alone, name)), name


@mpmath.workdps(40)
def _fit_gaps(points, fit):
    """The fit's direction's distance from the 40-digit fit's (oriented
    alike), and the largest distance from the fit's line of the 40-digit
    line's points at the two ends of the points' span, over the span."""
    base, ref = line_fit(points)
    sign = 1 if mpmath.fsum(r * float(v) for r, v in zip(ref, fit.dir)) > 0 else -1
    gap = float(mpmath.sqrt(mpmath.fsum((float(v) - sign * r) ** 2 for r, v in zip(ref, fit.dir))))
    along = [mpmath.fsum((float(x) - b) * r for x, b, r in zip(p, base, ref)) for p in points]
    offset = 0.0
    for s in (min(along), max(along)):
        q = [b + s * r - float(v) for b, r, v in zip(base, ref, fit.base)]
        a = mpmath.fsum(x * float(v) for x, v in zip(q, fit.dir))
        offset = max(offset, float(mpmath.norm(mpmath.matrix(
            [x - a * float(v) for x, v in zip(q, fit.dir)]))))
    return gap, offset / float(max(along) - min(along))


def test_fit_line_is_the_exact_fit_of_its_points_to_rounding():
    # 60 seeded sets of 12 points on a line at geometric spacing, as the
    # centroids of sccp_residual's unbounded levels lie, each coordinate
    # 1e-15 relative off it: the fitted direction, and the line at the ends
    # of the points' span, are within rounding of the 40-digit fit of the
    # same float points. Measured: 0.78 eps and 1.20 eps of the span at
    # worst over 800 such sets; the SVD's direction alone was up to 2.13
    # eps and 3.05 eps off
    rng = np.random.default_rng(0)
    worst = np.zeros(2)
    for _ in range(60):
        p0, d = rng.normal(size=3), _unit(rng.normal(size=3))
        s = 0.5 * GEOMETRIC_RATIO ** np.arange(12) * rng.choice([-1.0, 1.0]) + rng.normal()
        pts = (p0 + s[:, None] * d) * (1.0 + 1e-15 * rng.normal(size=(12, 3)))
        worst = np.maximum(worst, _fit_gaps(pts, fit_line(pts)))
    assert worst[0] <= 1.0 * EPS and worst[1] <= 1.5 * EPS, worst / EPS


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_line_refuses_points_that_are_not_finite(bad):
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    pts[2, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            fit_line(pts)


def test_fit_line_rejects_degenerate():
    with pytest.raises(DegeneratePointSet):
        fit_line(np.array([[1.0, 1.0]] * 5))


def test_parabola_centroid_line_matches_chord_oracle():
    p = function_epigraph("square")
    m = 0.7
    u = _unit([-m, 1.0])
    levels = sample_levels(p, u)
    curve = centroid_curve(p, u, levels)
    # each centroid must sit above the chord midpoint at the same level:
    # midpoint x is m/2 for every chord of slope m
    for c in curve:
        assert c[0] == pytest.approx(m / 2.0, abs=1e-9)
        mid = parabola_chord_midpoint(m, c[1] - m * c[0])
        assert mid[0] == pytest.approx(m / 2.0, abs=1e-12)
    fit = sccp_residual(p, u)
    assert fit.residual_norm <= 1e-10
    assert abs(fit.dir @ np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-9)


def test_ellipse_centroid_lines_concurrent_at_center():
    e = ellipsoid([1.7, 0.6], center=[0.4, -0.3])
    fits = []
    for ang in np.linspace(0.1, math.pi, 6, endpoint=False):
        u = np.array([math.cos(ang), math.sin(ang)])
        fits.append(sccp_residual(e, u))
    v = classify_lines(fits)
    assert v.tag == "concurrent"
    assert np.allclose(v.witness, [0.4, -0.3], atol=1e-7)


def test_paraboloid_lines_parallel_vertical():
    p = paraboloid_epigraph([1.0, 0.5])
    rng = np.random.default_rng(11)
    fits = []
    while len(fits) < 6:
        u = rng.normal(size=3)
        u[2] = abs(u[2]) + 1.5
        u = _unit(u)
        fits.append(sccp_residual(p, u))
    v = classify_lines(fits)
    assert v.tag == "parallel"
    assert abs(v.witness @ np.array([0.0, 0.0, 1.0])) == pytest.approx(1.0, abs=1e-7)


def test_superellipse_oblique_is_not_collinear():
    se = superellipsoid(4.0)
    fit = sccp_residual(se, _unit([1.0, 2.0]))
    assert fit.residual_norm >= 1e-3
    # axis direction is an actual symmetry, so it stays collinear
    fit_axis = sccp_residual(se, np.array([0.0, 1.0]))
    assert fit_axis.residual_norm <= 1e-9


def test_classify_lines_refuses_a_tolerance_it_cannot_use():
    # four concurrent lines (score 2.4e-17) read "neither" at a NaN, 0 or
    # negative tol, and an infinite tol passes every family
    e = ellipsoid([1.3, 0.8, 1.1])
    fits = [sccp_residual(e, _unit(u)) for u in ([0.2, 0.1, 1.0], [1.0, 0.3, 0.2],
                                                  [-0.4, 1.0, 0.5], [0.5, -0.6, 0.7])]
    assert classify_lines(fits).tag == "concurrent"
    for tol in (math.nan, 0.0, -1.0, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            classify_lines(fits, tol=tol)


def test_classify_needs_enough_lines():
    e = ellipsoid([1.0, 1.0])
    fits = [sccp_residual(e, _unit([1.0, 0.2]))]
    with pytest.raises(ValueError):
        classify_lines(fits)


def test_cone_direction_check_hyperbola():
    h = hyperboloid_sheet([1.0])
    ang = cone_direction_check(h, np.array([0.3, 1.0]) / math.hypot(0.3, 1.0))
    assert ang <= 1e-7


def test_cone_direction_check_rejects_bounded_body():
    d = unit_disk()
    with pytest.raises(ConeSectionUnbounded):
        cone_direction_check(d, np.array([0.0, 1.0]))


@pytest.mark.parametrize("rtol", [math.nan, 0.0, -1.0, 1.0, math.inf])
def test_sccp_residual_refuses_rtol_outside_the_unit_interval(rtol):
    with pytest.raises(ValueError, match="rtol"):
        sccp_residual(ellipsoid([1.0, 2.0, 1.5]), _unit([0.2, 0.3, 1.0]), rtol=rtol)


def _lines(bases, dirs):
    return [LineFit(np.array(b, dtype=float), _unit(d), 0.0, 0.0, 8) for b, d in zip(bases, dirs)]


def _solve_is_nonsingular(lines):
    # the common-point system of classify_lines, A = n I - sum d d^T
    dirs = np.array([ln.dir for ln in lines])
    A = len(lines) * np.eye(dirs.shape[1]) - dirs.T @ dirs
    return np.linalg.eigvalsh(A)[0] >= 1e-10 * len(lines)


def test_classify_nearly_parallel_lines_with_a_far_common_point():
    # three lines 2e-4 rad apart at most: the common-point solve is regular,
    # but its point lies some 1e4 away, off the lines, so the family is
    # parallel (within tol) and not concurrent
    lines = _lines([[0.0, 0.0], [0.0, 1.0], [0.0, 2.5]],
                   [[1.0, 0.0], [1.0, 1e-4], [1.0, -1e-4]])
    assert _solve_is_nonsingular(lines)
    v = classify_lines(lines, tol=1e-3)
    assert v.tag == "parallel" and not v.tie
    assert v.score == pytest.approx(2e-4, rel=1e-6)
    assert np.allclose(v.witness, [1.0, 0.0], atol=1e-8)


def test_classify_skew_lines_as_neither():
    # three pairwise skew lines in 3D: a regular solve whose point lies on
    # none of them, and angles far above tol
    lines = _lines([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, -1.0, 2.0]],
                   [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    assert _solve_is_nonsingular(lines)
    v = classify_lines(lines)
    assert v.tag == "neither" and not v.tie
    # the witness is the least-squares common point, 1.13 off the farthest
    # line; the score is that distance over the bases' spread, 1.05
    assert np.allclose(v.witness, [0.2, -0.8, 0.8], atol=1e-12)
    bases = np.array([ln.base for ln in lines])
    spread = math.sqrt(np.mean(np.sum((bases - bases.mean(axis=0)) ** 2, axis=1)))
    dmax = max(ln.distance_to(v.witness) for ln in lines)
    assert v.score == pytest.approx(dmax / spread, rel=1e-12) and dmax / spread < math.pi / 2
