import dataclasses
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from scipy.spatial import distance

from ccgeom import (
    asymptotic_diagnostic,
    blowdown_check,
    body_shell_points,
    circular_cone,
    cone_shell_points,
    function_epigraph,
    hyperboloid_sheet,
    paraboloid_epigraph,
    shell_distance,
    superellipsoid,
    trend_verdict,
    unit_disk,
)
from ccgeom import asymptotics
from ccgeom.errors import EmptyShellIntersection

from oracles import shell_points_bisection
from test_raysolve import coordinate_major, record_defining

EPS = np.finfo(float).eps


def test_body_shell_points_on_hyperbola():
    R = 50.0
    shifted = hyperboloid_sheet([1.0, 2.0], shift=[1.0, -2.0, 0.5])
    for h, count in ((hyperboloid_sheet([1.0]), 2),
                     (hyperboloid_sheet([1.0, 1.0]), 48),
                     (hyperboloid_sheet([1.0, 2.0]), 48),
                     (shifted, 48)):
        pts = body_shell_points(h, R, n_azimuth=48)
        # one crossing per meridian in 3D, both branches in 2D
        assert len(pts) == count
        # all points on the sphere and on the boundary
        assert np.all(np.abs(np.linalg.norm(pts, axis=1) - R) <= 1e-13 * R)
        assert np.all(np.abs(h.defining(pts)) <= 1e-12 * R)


def test_cone_shell_points_ray():
    c = paraboloid_epigraph([1.0, 1.0]).recession_cone()
    pts = cone_shell_points(c, 10.0)
    assert np.allclose(pts, [[0.0, 0.0, 10.0]], atol=1e-12)


def test_cone_shell_points_elliptic_2d():
    c = hyperboloid_sheet([1.0]).recession_cone()
    pts = cone_shell_points(c, 10.0)
    # two asymptote hits at 45 degrees
    assert len(pts) == 2
    assert np.allclose(np.abs(pts), 10.0 / math.sqrt(2.0), atol=1e-9)


def test_cone_shell_points_lie_on_cone_boundary_and_sphere():
    R = 10.0
    for c, count in ((function_epigraph("exp").recession_cone(), 2),
                     (hyperboloid_sheet([1.0, 2.5]).recession_cone(), 96),
                     (circular_cone(0.7, dim=3).recession_cone(), 96)):
        pts = cone_shell_points(c, R, n_azimuth=96)
        assert len(pts) == count
        assert np.allclose(np.linalg.norm(pts, axis=1), R, rtol=1e-12)
        assert np.all(np.abs(c.defining(pts)) <= 1e-12 * R)


def test_cone_shell_points_zero_cone_raises():
    c = unit_disk().recession_cone()
    with pytest.raises(EmptyShellIntersection):
        cone_shell_points(c, 5.0)


@mpmath.workdps(40)
def _unit_sheet_shell(R):
    """Exact shell distance of y >= sqrt(1 + |x|^2) (2D, or 3D sampled at the
    cone's own azimuths): the crossing at r^2 = (R^2 - 1)/2, z^2 = (R^2 + 1)/2
    against the asymptote point R (1, 1)/sqrt(2)."""
    R = mpmath.mpf(R)
    a = R / mpmath.sqrt(2)
    return float(mpmath.hypot(mpmath.sqrt((R * R - 1) / 2) - a,
                              mpmath.sqrt((R * R + 1) / 2) - a))


def test_hyperbola_shell_distance_decays_like_half_over_r():
    for h, kw in ((hyperboloid_sheet([1.0]), {}),
                  (hyperboloid_sheet([1.0, 1.0]), {"n_azimuth": 96})):
        cone = h.recession_cone()
        for R in (10.0, 1e2, 1e3, 1e4):
            sd = shell_distance(h, cone, R, **kw)
            # boundary-to-asymptote gap at radius R is a^2/(2R) + O(R^-3)
            assert sd.d_asym == pytest.approx(0.5 / R, rel=1e-3)
            assert abs(sd.d_asym - _unit_sheet_shell(R)) <= 1e-13 * R


def test_exp_epigraph_distance_grows_like_log():
    e = function_epigraph("exp")
    cone = e.recession_cone()
    sd = shell_distance(e, cone, 1.0e4)
    assert sd.d_asym == pytest.approx(math.log(1.0e4), rel=0.01)
    assert sd.d_blowdown == pytest.approx(math.log(1.0e4) / 1.0e4, rel=0.01)


def test_blowdown_check_recentres():
    e = function_epigraph("exp")
    assert blowdown_check(e, 1.0e4) <= 1e-3


@pytest.mark.parametrize("body", [hyperboloid_sheet([1.0]), function_epigraph("exp"),
                                  hyperboloid_sheet([1.0, 1.4]), paraboloid_epigraph([1.0, 0.7])],
                         ids=["hyperbola", "exp", "sheet-1.4", "paraboloid"])
def test_blowdown_check_is_translation_invariant(body):
    # the scan is about the body's interior point x0, wherever the body sits
    b = np.array([0.1, -0.2, 0.3])[:body.ambient_dim]
    moved = dataclasses.replace(body, translation=body.translation + b)
    for R in (1e2, 1e3):
        assert blowdown_check(moved, R) == pytest.approx(blowdown_check(body, R), rel=1e-12)
    # (1/R) times the Hausdorff distance of the bisected shell of boundary - x0
    # to the cone's, by scipy
    R = 1e2
    recentred = dataclasses.replace(body, translation=body.translation - body.interior_point())
    d = distance.cdist(shell_points_bisection(recentred, R, n_azimuth=96),
                       cone_shell_points(body.recession_cone(), R, n_azimuth=96))
    ref = max(d.min(axis=0).max(), d.min(axis=1).max()) / R
    assert blowdown_check(body, R, n_azimuth=96) == pytest.approx(ref, rel=1e-12)


def test_circular_cone_is_its_own_shadow():
    c = circular_cone(2.0, dim=2)
    sd = shell_distance(c, c.recession_cone(), 100.0)
    assert sd.d_asym <= 1e-6


def test_trend_verdict_rules():
    assert trend_verdict([1.0, 0.1, 0.01, 0.001]) == "asymptotic"
    assert trend_verdict([1.0, 2.0, 3.0, 4.0]) == "not_asymptotic"
    assert trend_verdict([1.0, 0.9, 0.85, 0.84]) == "inconclusive"


@pytest.mark.parametrize("distances, bad", [([1.0, math.nan, 0.05], "distance 1 .* got nan"),
                                             ([math.inf, 1.0, 0.01], "distance 0 .* got inf"),
                                             ([1.0, 0.5, -1.0], "distance 2 .* got -1.0")],
                         ids=["nan", "inf", "negative"])
def test_trend_verdict_refuses_distances_that_are_not_finite_and_non_negative(distances, bad):
    # each read as a verdict before: inconclusive, asymptotic and asymptotic
    with pytest.raises(ValueError, match=bad):
        trend_verdict(distances)


def test_asymptotic_diagnostic_end_to_end():
    h = hyperboloid_sheet([1.0])
    assert asymptotic_diagnostic(h, [10.0, 100.0, 1000.0, 10000.0]) == "asymptotic"
    e = function_epigraph("exp")
    assert asymptotic_diagnostic(e, [100.0, 1000.0, 10000.0, 100000.0]) == (
        "not_asymptotic")


def test_asymptotic_diagnostic_validates_radii():
    h = hyperboloid_sheet([1.0])
    with pytest.raises(ValueError):
        asymptotic_diagnostic(h, [10.0, 20.0, 30.0, 40.0])  # under two decades
    with pytest.raises(ValueError):
        asymptotic_diagnostic(h, [10.0, 100.0, 1000.0])


def test_shell_distance_requires_large_radius():
    h = hyperboloid_sheet([1.0], shift=[50.0, 0.0])
    with pytest.raises(ValueError, match=r"R must be at least .* = 510\.0, got 60\.0"):
        shell_distance(h, h.recession_cone(), 60.0)


@pytest.mark.parametrize("body, other", [(hyperboloid_sheet([1.0, 1.0]), hyperboloid_sheet([1.0])),
                                         (hyperboloid_sheet([1.0]), hyperboloid_sheet([1.0, 1.0]))],
                         ids=["2d-cone", "3d-cone"])
def test_shell_distance_refuses_a_cone_of_another_dimension(body, other):
    # cdist zips coordinates, so the pair would be compared on x and y alone
    cone = other.recession_cone()
    with pytest.raises(ValueError, match=f"cone in {cone.ambient_dim} dimensions .* "
                                         f"body in {body.ambient_dim}"):
        shell_distance(body, cone, 100.0, n_azimuth=16)


@pytest.mark.parametrize("h, radii, kw", [
    (hyperboloid_sheet([1.0]), np.geomspace(1e2, 1e3, 40), {}),
    (hyperboloid_sheet([1.0, 1.0]), np.geomspace(30.0, 300.0, 12), {"n_azimuth": 96})],
    ids=["2d", "3d"])
def test_shell_distances_that_cancel_against_the_closed_form(h, radii, kw):
    # d_asym ~ 0.5/R is a difference of points of size R, which each round
    # at about eps R, so its relative error grows like eps R^2: at worst
    # 6.6e-11 (2D) and 2.7e-11 (3D) with crossings stopped at 2^-53 of the
    # scan step, 6.1e-11 and 2.7e-11 at 2^-55 rad, 1.7e-10 and 3.0e-11 at 2^-54 rad
    cone = h.recession_cone()
    rel = [abs(shell_distance(h, cone, R, **kw).d_asym / _unit_sheet_shell(R) - 1)
           for R in radii]
    assert max(rel) <= 1e-10


@pytest.mark.parametrize("body", [hyperboloid_sheet([1.0, 1.4]), function_epigraph("exp"),
                                  circular_cone(1.0, dim=3)], ids=["sheet", "exp", "cone"])
def test_radii_that_overflow_the_scan_are_refused(body):
    # from R ~ 1e154 the squared distances between shell points overflow,
    # and from 1e155 the sheet's and the cone's F: each entry names R, where
    # it warned and answered inf or EmptyShellIntersection
    cone = body.recession_cone()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(shell_distance(body, cone, 1e150, n_azimuth=8).d_asym)
        for R in (1e154, 1e160, 1e200, 1e300):
            named = re.escape(f"sphere radius {R} overflows")
            with pytest.raises(ValueError, match=named):
                shell_distance(body, cone, R, n_azimuth=8)
            with pytest.raises(ValueError, match=named):
                blowdown_check(body, R, n_azimuth=8)
            if body.tag == "exp":  # exp's F takes its own overflow as inf
                assert np.all(np.isfinite(body_shell_points(body, R, n_azimuth=8)))
            elif R > 1e154:
                with pytest.raises(ValueError, match=named):
                    body_shell_points(body, R, n_azimuth=8)


def test_paraboloid_3d_not_asymptotic_to_its_ray():
    pb = paraboloid_epigraph([1.0, 1.0])
    cone = pb.recession_cone()
    d = [shell_distance(pb, cone, R).d_asym for R in (100.0, 1000.0, 10000.0)]
    assert d[0] < d[1] < d[2]
    # sqrt growth of the shell gap
    assert d[2] == pytest.approx(math.sqrt(10000.0), rel=0.05)


def test_paraboloid_3d_crossing_near_the_pole():
    # at R >= 3e4 the crossing of z = |x|^2 lies within pi/384 of the pole
    pb = paraboloid_epigraph([1.0, 1.0])
    cone = pb.recession_cone()
    for R in (3e4, 1e5, 1e6):
        d = shell_distance(pb, cone, R, n_azimuth=24).d_asym
        # the circle z = (sqrt(1 + 4R^2) - 1)/2, r^2 = z against the ray point (0, 0, R)
        with mpmath.workdps(40):
            z = (mpmath.sqrt(1 + 4 * mpmath.mpf(R) ** 2) - 1) / 2
            exact = float(mpmath.sqrt(z + (R - z) ** 2))
        assert abs(d - exact) <= 1e-13 * R


@mpmath.workdps(60)
def _parabola_shell(q, R, n_azimuth):
    """Exact shell distance of y >= sum q_i x_i^2 on the scan's azimuths (2D:
    both branches of y >= q x^2) against the ray point (0, .., R): each
    crossing is at distance sqrt(2 R (R - z)) from it, with q_phi r^2 = z and
    r^2 + z^2 = R^2, q_phi the form on the unit horizontal of azimuth phi."""
    R = mpmath.mpf(R)
    if len(q) == 1:
        forms = [mpmath.mpf(q[0])]
    else:
        phi = [2 * mpmath.pi * k / n_azimuth for k in range(n_azimuth)]
        forms = [q[0] * mpmath.cos(p) ** 2 + q[1] * mpmath.sin(p) ** 2 for p in phi]
    gaps = []
    for qf in forms:
        z = (mpmath.sqrt(1 / qf ** 2 + 4 * R * R) - 1 / qf) / 2
        gaps.append(mpmath.sqrt(2 * R * (R - z)))
    # the cone's one point: the body's farthest crossing, and its nearest
    return float(max(max(gaps), min(gaps)))


@pytest.mark.parametrize("body", [paraboloid_epigraph([1.0, 0.7]), function_epigraph("square")],
                         ids=["paraboloid", "parabola"])
def test_parabolas_answer_at_radii_past_the_axis_samples_rounding(body):
    # from R ~ 1e33 the crossing is nearer the axis than cos(pi/2) R = 6e-17 R:
    # the scan's axis samples must be exact for F to change sign on each arc
    q = [1.0, 0.7] if body.ambient_dim == 3 else [1.0]
    cone = body.recession_cone()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for R in (1e33, 1e100, 1e150):
            res = shell_distance(body, cone, R, n_azimuth=8)
            assert abs(res.d_asym - _parabola_shell(q, R, 8)) <= res.err
            assert res.d_blowdown == res.d_asym / R
            assert 0.0 <= blowdown_check(body, R, n_azimuth=8) <= res.err / R
            pts = body_shell_points(body, R, n_azimuth=8)
            assert len(pts) == (2 if body.ambient_dim == 2 else 8)
            assert np.all(body.defining(pts) <= 0.0)


LOW_RADII_BODIES = [hyperboloid_sheet([1.0], shift=[50.0, 0.0]), hyperboloid_sheet([1.0, 1.4]),
                    function_epigraph("exp"), paraboloid_epigraph([1.0, 0.7], shift=[0.0, 0.0, 1.0])]


@pytest.mark.parametrize("body", LOW_RADII_BODIES, ids=["sheet-2d", "sheet-3d", "exp", "paraboloid"])
def test_every_shell_entry_answers_at_low_radii(body):
    # shell_distance's threshold 10 (|translation| + 1), one ulp either side of
    # it, and radii that underflow the scan: each entry gives a finite value,
    # EmptyShellIntersection or a ValueError naming R, and never warns
    low = 10.0 * (float(np.linalg.norm(body.translation)) + 1.0)
    cone = body.recession_cone()
    entries = {"shell_distance": lambda R: shell_distance(body, cone, R, n_azimuth=8).d_asym,
               "blowdown_check": lambda R: blowdown_check(body, R, n_azimuth=8),
               "body_shell_points": lambda R: body_shell_points(body, R, n_azimuth=8)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for R in (low, math.nextafter(low, 0.0), math.nextafter(low, math.inf), 1e-300, 5e-324):
            for name, call in entries.items():
                try:
                    value = call(R)
                except EmptyShellIntersection:
                    continue
                except ValueError as e:
                    assert re.search(rf"\bR\b|radius {re.escape(repr(R))}", str(e)), (name, R, e)
                    continue
                assert np.size(value) and np.all(np.isfinite(value)), (name, R)
        # the threshold itself is the first radius shell_distance takes
        assert math.isfinite(entries["shell_distance"](low))
        with pytest.raises(ValueError, match="R must be at least"):
            entries["shell_distance"](math.nextafter(low, 0.0))


@pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf, 0.0, -100.0])
@pytest.mark.parametrize("h", [hyperboloid_sheet([1.0]), hyperboloid_sheet([1.0, 1.0])],
                         ids=["2d", "3d"])
def test_sphere_radius_must_be_finite_and_positive(h, R):
    radii = [1e2, 1e3, 1e4, R] if R > 0.0 else [R, 1e2, 1e3, 1e4]
    for call in (lambda: body_shell_points(h, R, n_azimuth=24),
                 lambda: cone_shell_points(h.recession_cone(), R, n_azimuth=24),
                 lambda: shell_distance(h, h.recession_cone(), R, n_azimuth=24),
                 lambda: blowdown_check(h, R, n_azimuth=24),
                 lambda: asymptotic_diagnostic(h, radii, n_azimuth=24)):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("n_azimuth", [0, -3, 2.5, True])
def test_n_azimuth_must_be_a_positive_integer(n_azimuth):
    h = hyperboloid_sheet([1.0, 1.0])
    R = 100.0
    for call in (lambda: body_shell_points(h, R, n_azimuth=n_azimuth),
                 lambda: cone_shell_points(h.recession_cone(), R, n_azimuth=n_azimuth),
                 lambda: shell_distance(h, h.recession_cone(), R, n_azimuth=n_azimuth),
                 lambda: blowdown_check(h, R, n_azimuth=n_azimuth)):
        with pytest.raises(ValueError, match="n_azimuth"):
            call()


@pytest.mark.parametrize("n_azimuth", [96, 720])
def test_cdist_is_scipys_bit_for_bit(n_azimuth):
    for body in (hyperboloid_sheet([1.0, 1.4]), paraboloid_epigraph([1.0, 0.7]),
                 function_epigraph("exp")):
        for R in (1e2, 1e4):
            A = body_shell_points(body, R, n_azimuth=n_azimuth)
            B = cone_shell_points(body.recession_cone(), R, n_azimuth=n_azimuth)
            assert np.array_equal(asymptotics.cdist(A, B), distance.cdist(A, B))


def _row_major_arcs(dim, n_azimuth):
    """The arcs built point-major, (arcs, samples, dim) in C order."""
    if dim == 2:
        step = 2.0 * math.pi / asymptotics._N_SCAN_2D
        a = step * np.arange(asymptotics._N_SCAN_2D + 1)
        a[-1] = 0.0
        e1, e2 = np.eye(2)[:, None, None, :]
    else:
        step = math.pi / (asymptotics._N_SCAN_MERIDIAN - 1)
        a = step * np.arange(asymptotics._N_SCAN_MERIDIAN) - 0.5 * math.pi
        phi = 2.0 * math.pi * np.arange(n_azimuth) / n_azimuth
        e1 = np.stack([np.cos(phi), np.sin(phi), np.zeros(n_azimuth)], axis=-1)[:, None, :]
        e2 = np.array([0.0, 0.0, 1.0])
    c, s = np.cos(a), np.sin(a)
    # the samples at multiples of pi/2 are exact axis points
    c[np.abs(c) < 1e-15] = 0.0
    s[np.abs(s) < 1e-15] = 0.0
    c, s = c[:, None], s[:, None]
    return c * e1 + s * e2, c * e2 - s * e1, step


@pytest.mark.parametrize("n_azimuth", [1, 7, 96, 720])
@pytest.mark.parametrize("dim", [2, 3])
def test_arcs_are_the_row_major_arcs_bit_for_bit(dim, n_azimuth):
    U, T, step = asymptotics._arcs(dim, n_azimuth)
    U0, T0, step0 = _row_major_arcs(dim, n_azimuth)
    assert step == step0
    assert U.shape == U0.shape and np.array_equal(U, U0)
    assert T.shape == T0.shape and np.array_equal(T, T0)


@pytest.mark.parametrize("dim", [2, 3])
def test_arcs_are_cached_read_only(dim):
    U, T, step = asymptotics._arcs(dim, 7)
    again = asymptotics._arcs(dim, 7)
    assert again[0] is U and again[1] is T and again[2] == step
    for arr in (U, T):
        assert not arr.flags.writeable and not arr.base.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0, 0] = 0.0


def test_arcs_key_the_2d_circle_on_the_dimension_alone():
    # n_azimuth does not enter the 2D circle: one cached circle for every
    # count, so 2D calls at two counts leave a cached 3D grid in place
    grid = asymptotics._arcs(3, 96)
    circle = asymptotics._arcs(2, 7)
    again = asymptotics._arcs(2, 720)
    assert again[0] is circle[0] and again[1] is circle[1] and again[2] == circle[2]
    kept = asymptotics._arcs(3, 96)
    assert kept[0] is grid[0] and kept[1] is grid[1]


def _scan_and_rounds(batches):
    """The scan's batches, (arcs, samples, dim), and the solver's, (points,
    dim), of one body_shell_points call; the scan's must all come first."""
    scan = [x for x in batches if x.ndim == 3]
    assert all(x.ndim == 3 for x in batches[:len(scan)])
    return scan, batches[len(scan):]


def _off_axis(body):
    """The 3D body moved off its axis, by (1, -2, 0.5): the closed form
    leaves it to the grid scan."""
    return dataclasses.replace(body, translation=body.translation + [1.0, -2.0, 0.5])


@pytest.mark.parametrize("dim", [2, 3])
def test_shell_scan_hands_f_coordinate_major_batches_that_cover_the_grid(monkeypatch, dim):
    # whole arcs per call, each batch coordinate-major and under glibc's
    # 128 KB mmap threshold, and together the whole grid in order
    body = hyperboloid_sheet([1.0]) if dim == 2 else _off_axis(hyperboloid_sheet([1.0, 1.4]))
    batches = record_defining(monkeypatch)
    body_shell_points(body, 100.0, n_azimuth=96)
    scan, _ = _scan_and_rounds(batches)
    U, _, _ = asymptotics._arcs(dim, 96)
    assert all(coordinate_major(x) and x.nbytes < 128 * 1024 for x in scan)
    assert all(x.shape[1:] == U.shape[1:] for x in scan)
    assert np.array_equal(np.concatenate(scan), 100.0 * U)
    # the 2D circle is one call; 96 meridians of 192 samples take five
    assert len(scan) == (1 if dim == 2 else 5)


# the shell tests' bodies and the benchmark pools' bodies, with radii of both
_SHELL_CASES = [
    (hyperboloid_sheet([1.0]), (10.0, 1e2, 1e3, 1e4)),
    (hyperboloid_sheet([1.0, 1.0]), (30.0, 1e2, 1e4)),
    (hyperboloid_sheet([1.0, 1.4]), (30.0, 3e2, 1e4)),
    (hyperboloid_sheet([1.0, 2.0], shift=[1.0, -2.0, 0.5]), (50.0, 1e3)),
    (paraboloid_epigraph([1.0, 0.7]), (30.0, 3e2, 1e4)),
    (paraboloid_epigraph([1.0, 1.0]), (1e2, 3e4, 1e6)),
    (function_epigraph("exp"), (1e2, 1e3, 1e4)),
    (circular_cone(2.0, dim=2), (1e2,)),
    (circular_cone(0.7, dim=3), (1e2,)),
]


@pytest.mark.parametrize("body, radii", _SHELL_CASES,
                         ids=[f"{b.kind}-{b.ambient_dim}d-{i}"
                              for i, (b, _) in enumerate(_SHELL_CASES)])
def test_shell_points_match_the_bisection_reference(body, radii):
    # the solver may end anywhere in F's rounding band at the crossing, so
    # within 2 eps R of the 56-step bisection, not bitwise
    # on the body and on the body moved by -x0, as blowdown_check scans it
    recentred = dataclasses.replace(body, translation=body.translation - body.interior_point())
    for R in radii:
        for b in (body, recentred):
            pts = body_shell_points(b, R, n_azimuth=96)
            ref = shell_points_bisection(b, R, n_azimuth=96)
            assert pts.shape == ref.shape
            assert np.max(np.abs(pts - ref)) <= 2.0 * EPS * R
            assert np.all(b.defining(pts) <= 0.0)


@pytest.mark.parametrize("body, radii", _SHELL_CASES,
                         ids=[f"{b.kind}-{b.ambient_dim}d-{i}"
                              for i, (b, _) in enumerate(_SHELL_CASES)])
def test_shell_points_about_the_origin_add_no_centre(body, radii):
    # the scan of R u reads its sign changes off a flat index: the same
    # brackets as np.nonzero, order included, one per shell point
    U, _, _ = asymptotics._arcs(body.ambient_dim, 96)
    for R in radii:
        pts = body_shell_points(body, R, n_azimuth=96)
        with np.errstate(over="ignore"):
            inside = body.defining(R * U) <= 0.0
        arc, j = asymptotics._sign_changes(inside)
        arc0, j0 = np.nonzero(inside[:, :-1] != inside[:, 1:])
        assert np.array_equal(arc, arc0) and np.array_equal(j, j0) and len(j) == len(pts)


def _sheet_crossing_ulps(points, R, b):
    """Distances, in ulps of R, of 3D shell points of y >= sqrt(1 + x1^2 +
    (x2/b)^2) from the exact crossing in each point's meridian, where
    r^2 (1 + q) = R^2 - 1 with q = cos^2 + sin^2 / b^2 of its azimuth."""
    R_ = mpmath.mpf(R)
    out = []
    for p in points:
        rho = mpmath.hypot(p[0], p[1])
        c, s = p[0] / rho, p[1] / rho
        r = mpmath.sqrt((R_ * R_ - 1) / (1 + c * c + s * s / mpmath.mpf(b) ** 2))
        exact = (r * c, r * s, mpmath.sqrt(R_ * R_ - r * r))
        out.append(float(mpmath.sqrt(sum((mpmath.mpf(a) - e) ** 2 for a, e in zip(p, exact)))))
    return np.array(out) / math.ulp(R)


@pytest.mark.parametrize("b", [1.0, 1.4])
def test_shell_points_against_mpmath(b):
    h = hyperboloid_sheet([1.0, b])
    new, ref = [], []
    with mpmath.workdps(40):
        for R in np.geomspace(30.0, 1e5, 10):
            new.append(_sheet_crossing_ulps(body_shell_points(h, R, n_azimuth=96), R, b))
            ref.append(_sheet_crossing_ulps(shell_points_bisection(h, R, n_azimuth=96), R, b))
    new, ref = np.concatenate(new), np.concatenate(ref)
    # as accurate as the 56-step bisection: about 2.3 ulp(R) at worst for both
    assert new.max() <= max(ref.max(), 2.5)
    assert new.mean() <= ref.mean() + 0.05


@pytest.mark.parametrize("body, R", [(_off_axis(hyperboloid_sheet([1.0, 1.4])), 100.0),
                                     (_off_axis(hyperboloid_sheet([1.0, 1.0])), 30.0),
                                     (_off_axis(paraboloid_epigraph([1.0, 0.7])), 300.0),
                                     (_off_axis(paraboloid_epigraph([1.0, 1.0])), 1e5)],
                         ids=["sheet-1.4", "unit-sheet", "paraboloid", "paraboloid-pole"])
def test_shell_solver_budget(monkeypatch, body, R):
    # the scan, then at most 12 solver rounds, on bodies moved off their
    # axes, which the grid scan serves
    batches = record_defining(monkeypatch)
    body_shell_points(body, R, n_azimuth=96)
    _, rounds = _scan_and_rounds(batches)
    assert 1 <= len(rounds) <= 12
    assert all(coordinate_major(x) for x in batches)
    # brackets leave the batch once done
    assert rounds[-1].shape[0] < rounds[0].shape[0]


def test_shell_solver_meets_infinite_f():
    # exp(x) overflows at the outside ends of the 2D scan at R = 1e4
    e = function_epigraph("exp")
    R = 1e4
    U, _, _ = asymptotics._arcs(2, asymptotics._N_AZIMUTH)
    assert np.isinf(e.defining(R * U)).any()
    pts = body_shell_points(e, R)
    ref = shell_points_bisection(e, R)
    assert np.max(np.abs(pts - ref)) <= 2.0 * EPS * R
    assert np.all(e.defining(pts) <= 0.0)


@pytest.mark.parametrize("body, R, brackets",
                         [(_off_axis(hyperboloid_sheet([1.0, 1.4])), 137.0, 96),
                          (_off_axis(paraboloid_epigraph([1.0, 0.7])), 55.5, 96),
                          (superellipsoid(4.0, dim=3), 1.1, 312),
                          (hyperboloid_sheet([1.0]), 300.0, 2),
                          (function_epigraph("exp"), 1e3, 2)],
                         ids=["sheet-1.4", "paraboloid", "superellipsoid", "hyperbola", "exp"])
def test_crossing_does_not_depend_on_the_batch(monkeypatch, body, R, brackets):
    # a bracket solved alone ends bitwise where it ends among the rest of its
    # scan, where the others close around it and are masked (in 3D on
    # bodies moved off their axes, which the grid scan serves, and on a kind
    # without a form, with several crossings on a meridian)
    solves, crossings = [], asymptotics._crossings

    def recorded(*args):
        solves.append((args, crossings(*args)))
        return solves[-1][1]

    monkeypatch.setattr(asymptotics, "_crossings", recorded)
    body_shell_points(body, R, n_azimuth=96)
    (F, R_, u0, t0, f_in, f_out, step), d = solves[0]
    assert len(d) == brackets
    for i in range(len(d)):
        one = slice(i, i + 1)
        alone = crossings(F, R_, u0[one], t0[one], f_in[one], f_out[one], step)
        assert alone.tobytes() == d[one].tobytes()


def test_crossings_meet_a_half_planes_exact_angle():
    # F = y - c on the circle of radius R, each bracket from its own angle
    # below asin(c / R) along the circle; the exact crossing on the float
    # directions u0 and t0 is taken in mpmath
    R, c, step = 100.0, 30.0, math.pi / 191
    a = math.asin(c / R) - step * np.array([0.03, 0.25, 0.5, 0.77, 0.99])
    u0 = np.stack([np.cos(a), np.sin(a)], axis=1)
    t0 = np.stack([-np.sin(a), np.cos(a)], axis=1)

    def at(d):  # the points R (cos d u0 + sin d t0), as the solver forms them
        return R * (np.cos(d)[:, None] * u0 + np.sin(d)[:, None] * t0)

    def F(p):
        return p[:, 1] - c

    f_in, f_out = F(at(np.zeros(5))), F(at(np.full(5, step)))
    assert np.all(f_in < 0.0) and np.all(f_out > 0.0)
    with mpmath.workdps(40):
        exact = np.array([float(mpmath.asin(c / (R * mpmath.hypot(y, z))) - mpmath.atan2(y, z))
                          for y, z in zip(u0[:, 1], t0[:, 1])])
    # the stop's width, and F's own rounding, 4 ulp(c) at most, over its
    # slope R cos(asin(c / R)): under 1 eps here
    bound = 2.0 ** -55 + 4.0 * EPS * exact + 4.0 * math.ulp(c) / math.sqrt(R * R - c * c)
    for f2 in (f_out, np.full(5, np.nan)):  # an outside end of NaN: still the inside end
        d = asymptotics._crossings(F, R, u0, t0, f_in, f2, step)
        assert np.all(F(at(d)) <= 0.0)
        assert np.all(np.abs(d - exact) <= bound)
    # F exactly 0 at the first midpoint: one round, which returns it
    c_mid, calls = float(at(np.full(5, 0.5 * step))[2, 1]), []

    def F_mid(p):
        calls.append(len(p))
        return p[:, 1] - c_mid

    f0, f1 = (at(np.full(5, x))[2:3, 1] - c_mid for x in (0.0, step))
    d = asymptotics._crossings(F_mid, R, u0[2:3], t0[2:3], f0, f1, step)
    assert calls == [1] and d.tolist() == [0.5 * step]


@pytest.mark.parametrize("body, R", [(_off_axis(hyperboloid_sheet([1.0, 1.4])), 100.0),
                                     (function_epigraph("exp"), 1e4)], ids=["3d", "exp"])
def test_shell_solver_round_cap_returns_inside_ends(monkeypatch, body, R):
    monkeypatch.setattr(asymptotics, "_N_POLISH", 2)
    batches = record_defining(monkeypatch)
    pts = body_shell_points(body, R, n_azimuth=96)
    _, rounds = _scan_and_rounds(batches)
    assert len(rounds) == 2
    # on the sphere, inside, and within the bracket's arc of the crossing
    _, _, step = asymptotics._arcs(body.ambient_dim, 96)
    ref = shell_points_bisection(body, R, n_azimuth=96)
    assert np.all(body.defining(pts) <= 0.0)
    assert np.allclose(np.linalg.norm(pts, axis=1), R, rtol=1e-14)
    assert np.all(np.linalg.norm(pts - ref, axis=1) <= R * step)


# the bodies the closed form serves: each unbounded quadric kind, on its axis
# and moved along it, as blowdown_check moves it
_CLOSED_FORM_BODIES = [hyperboloid_sheet([1.0, 1.4]), paraboloid_epigraph([1.0, 0.7]),
                       circular_cone(0.7, dim=3)]
_CLOSED_FORM_IDS = ["sheet", "paraboloid", "cone"]


@pytest.mark.parametrize("body", _CLOSED_FORM_BODIES, ids=_CLOSED_FORM_IDS)
def test_closed_form_shells_make_two_defining_calls_and_no_grid(monkeypatch, body):
    # the ladder of 11 rungs and the split of one step into 16, each one
    # coordinate-major call for all 96 meridians; no 3D arcs are built
    arcs = []
    monkeypatch.setattr(asymptotics, "_arcs", lambda *args: arcs.append(args))
    moved = dataclasses.replace(body, translation=body.translation - body.interior_point())
    batches = record_defining(monkeypatch)
    for b in (body, moved):
        for R in (30.0, 1e3, 1e6):
            batches.clear()
            pts = body_shell_points(b, R, n_azimuth=96)
            assert [x.shape for x in batches] == [(96 * 11, 3), (96 * 15, 3)]
            assert all(coordinate_major(x) for x in batches)
            assert pts.shape == (96, 3) and np.all(b.defining(pts) <= 0.0)
    assert arcs == []


@pytest.mark.parametrize("body", _CLOSED_FORM_BODIES, ids=_CLOSED_FORM_IDS)
def test_closed_form_meridian_solved_alone_is_bitwise_the_batchs(monkeypatch, body):
    solves, form = [], asymptotics._form_crossings

    def recorded(*args):
        solves.append((args, form(*args)))
        return solves[-1][1]

    monkeypatch.setattr(asymptotics, "_form_crossings", recorded)
    body_shell_points(body, 137.0, n_azimuth=96)
    (F, R, u0, t0), pts = solves[0]
    assert pts.shape == (96, 3)
    for i in range(96):
        alone = form(F, R, u0[:, i:i + 1], t0[:, i:i + 1])
        assert alone.tobytes() == pts[i:i + 1].tobytes()


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["north", "south"])
@pytest.mark.parametrize("body", _CLOSED_FORM_BODIES, ids=_CLOSED_FORM_IDS)
def test_closed_form_off_by_2_to_the_minus_40_falls_back_to_the_scan(monkeypatch, body, sign):
    # every ladder then lies on one side of its crossing: the whole call
    # takes the grid scan, whose points it returns bitwise
    bases, delta = asymptotics._meridian_bases, sign * 2.0 ** -40

    def off(*args):
        u0, t0 = bases(*args)
        return (math.cos(delta) * u0 + math.sin(delta) * t0,
                math.cos(delta) * t0 - math.sin(delta) * u0)

    monkeypatch.setattr(asymptotics, "_meridian_bases", off)
    batches = record_defining(monkeypatch)
    for R in (30.0, 1e4):
        batches.clear()
        pts = body_shell_points(body, R, n_azimuth=96)
        # the ladder, then the scan's chunks
        assert batches[0].shape == (96 * 11, 3) and batches[1].ndim == 3
        assert pts.tobytes() == asymptotics._scanned_points(body, R, 96).tobytes()


@pytest.mark.parametrize("body", [hyperboloid_sheet([1.0, 1.4], shift=[0.0, 0.0, 0.5]),
                                  paraboloid_epigraph([1.0, 0.7], shift=[0.0, 0.0, -1.5])],
                         ids=["sheet", "paraboloid"])
def test_blowdown_on_the_closed_form_matches_the_bisection(monkeypatch, body):
    # blowdown_check moves the body along e_d, by -x0, so its shell takes the
    # closed form: its points within 2 eps R of the bisected scan's, and its
    # distance within 2 eps R / R of theirs
    solved, form = [], asymptotics._form_crossings
    monkeypatch.setattr(asymptotics, "_form_crossings",
                        lambda *args: solved.append(form(*args)) or solved[-1])
    recentred = dataclasses.replace(body, translation=body.translation - body.interior_point())
    for R in (30.0, 1e3, 1e5):
        ref = shell_points_bisection(recentred, R, n_azimuth=96)
        assert np.max(np.abs(body_shell_points(recentred, R, n_azimuth=96) - ref)) <= 2.0 * EPS * R
        d = distance.cdist(ref, cone_shell_points(body.recession_cone(), R, n_azimuth=96))
        want = max(d.min(axis=0).max(), d.min(axis=1).max()) / R
        assert abs(blowdown_check(body, R, n_azimuth=96) - want) <= 2.0 * EPS
    assert len(solved) == 6 and all(pts is not None for pts in solved)
