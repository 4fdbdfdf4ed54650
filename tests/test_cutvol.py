import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from ccgeom import (
    circular_cone,
    cut_gradient,
    cut_volume,
    ellipsoid,
    floating_constancy,
    function_epigraph,
    halfspace_cut_volume,
    homothety_cut_scan,
    hyperboloid_sheet,
    paraboloid_epigraph,
    parallel_cut_scan,
    superellipsoid,
    unit_disk,
    unit_sphere,
)
from ccgeom import bodies, cutvol, sections
from ccgeom.errors import (
    DegenerateCut,
    LevelOutOfRange,
    NotApexCentered,
    NotGraphLike,
    NotOnBoundary,
    OriginInsideBody,
)

from oracles import (
    cone_cap_volume,
    disk_segment_area,
    ellipsoid_cap_volume,
    halfspace_area_brute,
    hyperbola_homothety_value,
    parabola_chord_area,
    paraboloid_cap_volume,
    sphere_cap_volume,
)


def test_disk_segment_against_closed_form():
    d = unit_disk(center=[0.0, 3.0])
    u = np.array([0.0, 1.0])
    for t in (2.2, 3.0, 3.7):
        v = halfspace_cut_volume(d, u, t)
        assert v == pytest.approx(disk_segment_area(1.0, t - 3.0), rel=1e-7)


def test_sphere_cap_against_closed_form():
    s = unit_sphere(center=[0.0, 0.0, 3.0])
    u = np.array([0.0, 0.0, 1.0])
    for t in (2.5, 3.0, 3.9):
        v = halfspace_cut_volume(s, u, t)
        assert v == pytest.approx(sphere_cap_volume(1.0, t - 3.0), rel=1e-6)


def test_oblique_disk_cut_against_brute_force():
    d = ellipsoid([1.3, 0.8], center=[0.5, 2.0])
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    t = float(u @ [0.5, 2.0]) + 0.2
    v = halfspace_cut_volume(d, u, t)
    brute = halfspace_area_brute(d, u, t, box=(-1.0, 2.0, 1.0, 3.0))
    assert v == pytest.approx(brute, rel=5e-3)


def test_parabola_cut_closed_form():
    p = function_epigraph("square")
    # cut by the line y = m x + c, outer normal (-m, 1)/n, level c/n
    for m, c in ((0.0, 1.0), (1.0, 2.0), (-0.5, 0.3)):
        n = math.hypot(m, 1.0)
        u = np.array([-m, 1.0]) / n
        v = halfspace_cut_volume(p, u, c / n)
        assert v == pytest.approx(parabola_chord_area(m, c), rel=1e-7)


def test_parabola_oblique_cut_param_value():
    # line y = x + 5/4 as {<a,x> = 1}: a = (-4/5, 4/5); area = 6^{3/2}/6
    p = function_epigraph("square")
    v = cut_volume(p, [-0.8, 0.8])
    assert v == pytest.approx(math.sqrt(6.0), rel=1e-7)


def test_cut_within_rounding_of_the_cone_is_read_off_it():
    # exp's tangent at abscissa -33 leans 4.7e-15 off the quadrant's -x edge,
    # within the 1e-14 by which the section kernel calls its sections
    # unbounded: the cut is infinite, decided before any integration
    p = function_epigraph("exp")
    [point], [u] = bodies._graph_contacts(p, [-33.0])
    assert 0.0 < -u[0] < 1e-14
    assert halfspace_cut_volume(p, u, float(u @ point) + 1.0) == math.inf


def test_cut_volume_sides_and_infinity():
    p = function_epigraph("square")
    u = np.array([0.0, 1.0])
    assert halfspace_cut_volume(p, u, -1.0) == 0.0  # below the graph
    assert halfspace_cut_volume(p, -u, 1.0) == math.inf  # keeps the recession cone
    d = unit_disk(center=[0.0, 3.0])
    total = math.pi
    v_lo = halfspace_cut_volume(d, u, 3.2)
    v_hi = halfspace_cut_volume(d, -u, -3.2)
    assert v_lo + v_hi == pytest.approx(total, rel=1e-7)


def test_cut_volume_via_cut_param():
    d = unit_disk(center=[0.0, 3.0])
    # {<a,x> <= 1} with a = (0, 1/3) is the halfplane y <= 3
    assert cut_volume(d, [0.0, 1.0 / 3.0]) == pytest.approx(math.pi / 2.0, rel=1e-7)


def test_cut_gradient_identity_disk():
    d = unit_disk(center=[0.0, 3.0])
    r = cut_gradient(d, [0.1, 0.35])
    assert r.identity_residual <= 1e-6 * r.section_diameter
    assert abs(r.lam) * np.linalg.norm([0.1, 0.35]) == pytest.approx(
        r.section_measure, rel=1e-5)
    assert r.moment_residual <= 1e-3


def test_cut_gradient_rejects_origin_inside():
    with pytest.raises(OriginInsideBody):
        cut_gradient(unit_disk(), [0.0, 0.5])


def test_cut_gradient_rejects_empty_cut():
    d = unit_disk(center=[0.0, 3.0])
    with pytest.raises(DegenerateCut):
        cut_gradient(d, [0.0, 1.0])  # halfplane y <= 1 misses the disk


def test_parallel_cut_scan_parabola_invariant():
    p = function_epigraph("square")
    vals = parallel_cut_scan(p, 1.0, [[-2.0], [-1.0], [0.0], [1.0], [2.0]])
    arr = np.asarray(vals)
    assert np.allclose(arr, 4.0 / 3.0, rtol=1e-8)
    assert (arr.max() - arr.min()) / arr.mean() <= 1e-6
    # closed form (4/3) k^{3/2} at a different depth
    vals2 = parallel_cut_scan(p, 2.25, [[0.0], [1.0]])
    assert np.allclose(vals2, (4.0 / 3.0) * 2.25 ** 1.5, rtol=1e-8)


def test_parallel_cut_scan_paraboloid_invariant():
    pb = paraboloid_epigraph([1.0, 1.0])
    vals = parallel_cut_scan(pb, 1.0, [[0.0, 0.0], [1.0, 0.0], [0.5, -0.5]])
    arr = np.asarray(vals)
    assert np.allclose(arr, math.pi / 2.0, rtol=1e-6)


def test_parallel_cut_scan_quartic_varies():
    q = function_epigraph("quartic")
    vals = parallel_cut_scan(q, 1.0, [[0.0], [1.0]])
    spread = (max(vals) - min(vals)) / np.mean(vals)
    assert spread >= 0.05


def test_homothety_scan_hyperbola_invariant_and_value():
    h = hyperboloid_sheet([1.0])
    vals = homothety_cut_scan(h, 2.0, [[-1.0], [-0.5], [0.0], [0.5], [1.0]])
    arr = np.asarray(vals)
    assert (arr.max() - arr.min()) / arr.mean() <= 1e-7
    assert arr.mean() == pytest.approx(hyperbola_homothety_value(2.0), rel=1e-8)


def test_homothety_scan_cosh_varies():
    c = function_epigraph("cosh")
    vals = homothety_cut_scan(c, 2.0, [[0.0], [1.0]])
    spread = (max(vals) - min(vals)) / np.mean(vals)
    assert spread >= 0.05


# (scan, body, k, anchors): the 5-anchor parabola, 3D paraboloid and hyperbola
# scans, the quartic, whose anchor-0 cut subdivides, and cosh
SCAN_CASES = [
    ("parallel", function_epigraph("square"), 1.0, [[-2.0], [-1.0], [0.0], [1.0], [2.0]]),
    ("parallel", paraboloid_epigraph([1.0, 1.0]), 1.0,
     [[0.0, 0.0], [1.0, 0.0], [0.5, -0.5], [-1.0, 0.5], [0.3, 0.8]]),
    ("parallel", function_epigraph("quartic"), 1.0, [[0.0], [1.0]]),
    ("homothety", hyperboloid_sheet([1.0]), 2.0, [[-1.0], [-0.5], [0.0], [0.5], [1.0]]),
    ("homothety", function_epigraph("cosh"), 2.0, [[0.0], [1.0]]),
]


@pytest.mark.parametrize("scan,body,k,anchors", SCAN_CASES,
                         ids=[f"{s}-{b.tag or b.kind}-{b.ambient_dim}d" for s, b, _, _ in SCAN_CASES])
def test_scan_is_its_lone_cut_volumes_bitwise(scan, body, k, anchors):
    values = (parallel_cut_scan if scan == "parallel" else homothety_cut_scan)(body, k, anchors)
    lone = []
    for anchor in anchors:
        [point], [normal] = bodies._graph_contacts(body, [anchor])
        s = float(normal @ point)
        t = s + k * normal[-1] if scan == "parallel" else k * s
        lone.append(halfspace_cut_volume(body, normal, t))
    assert values == lone


def test_scan_of_no_anchors_is_empty():
    assert parallel_cut_scan(function_epigraph("square"), 1.0, []) == []
    assert homothety_cut_scan(hyperboloid_sheet([1.0]), 2.0, []) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scans_refuse_non_finite_inputs_up_front(bad):
    square, hyper = function_epigraph("square"), hyperboloid_sheet([1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="shift k must be finite"):
            parallel_cut_scan(square, bad, [[0.0]])
        with pytest.raises(ValueError, match="homothety factor k must be finite"):
            homothety_cut_scan(hyper, bad, [[0.0]])
        for scan, body, k in ((parallel_cut_scan, square, 1.0), (homothety_cut_scan, hyper, 2.0)):
            with pytest.raises(ValueError, match="anchor abscissa must be finite"):
                scan(body, k, [[0.0], [bad]])
        for mode in ("translate", "scale"):
            with pytest.raises(ValueError, match="lam must be finite"):
                floating_constancy(hyper, mode, bad)


def test_scans_refuse_a_huge_shift_or_factor_naming_it():
    # a shift above 1e30 body scales, or a factor above 1e30, is refused
    # before any arithmetic: at 1e300 the square's parallel cuts overflowed
    # to inf after RuntimeWarnings, at 1e200 the hyperbola's boundary search
    # failed, and at 1e40 the square's cut came out as 1.33e60
    square, hyper = function_epigraph("square"), hyperboloid_sheet([1.0])
    raised = function_epigraph("square", shift=[0.0, 3.0])  # scale 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (1e40, 1e300):
            with pytest.raises(ValueError, match="shift k must be > 0 and at most 1e\\+30"):
                parallel_cut_scan(square, k, [[0.0], [1.0]])
        for k in (1e40, 1e200):
            with pytest.raises(ValueError, match="factor k must be > 1 and at most 1e\\+30"):
                homothety_cut_scan(hyper, k, [[0.0], [1.0]])
            for mode in ("translate", "scale"):
                with pytest.raises(ValueError, match="lam must be > [01] and at most 1e\\+30"):
                    floating_constancy(hyper, mode, k)
        # the caps themselves give finite volumes
        cap = cutvol._MAX_MOVE * raised.scale
        assert all(0.0 < v < math.inf for v in parallel_cut_scan(raised, cap, [[0.0]]))
        with pytest.raises(ValueError, match="shift k must be > 0 and at most 3e\\+30"):
            parallel_cut_scan(raised, math.nextafter(cap, math.inf), [[0.0]])
        assert all(0.0 < v < math.inf for v in homothety_cut_scan(hyper, 1e30, [[0.0]]))
        for mode in ("translate", "scale"):
            values = floating_constancy(hyper, mode, 1e30, n_normals=2)["values"]
            assert all(0.0 < v < math.inf for v in values)


def test_homothety_scan_requires_apex_at_origin():
    h = hyperboloid_sheet([1.0], shift=[0.5, 0.0])
    with pytest.raises(NotApexCentered):
        homothety_cut_scan(h, 2.0, [[0.0]])


@pytest.mark.parametrize("body", [ellipsoid([1.0, 2.0]), superellipsoid(4.0, dim=3)],
                         ids=["ellipsoid-2d", "superellipsoid-3d"])
def test_homothety_scan_refuses_a_body_that_is_no_graph(body):
    with pytest.raises(NotGraphLike):
        homothety_cut_scan(body, 2.0, [[0.0] * (body.ambient_dim - 1)])


def test_parallel_cut_scan_refuses_a_body_that_is_no_graph():
    with pytest.raises(NotGraphLike, match="graph-like"):
        parallel_cut_scan(ellipsoid([1.0, 1.0, 1.0]), 1.0, [[0.0, 0.0]])


@pytest.mark.parametrize("body, anchor", [
    (function_epigraph("square"), [1.0]),
    (paraboloid_epigraph([1.0, 1.0]), [1.0, 0.0]),
    (circular_cone(1.0, dim=3), [1.0, 0.0]),
], ids=["square-2d", "paraboloid-3d", "cone-3d"])
def test_homothety_scan_needs_tangent_planes_that_separate_the_apex(body, anchor):
    # 0 lies on these tangent planes or on the surface's side of them
    with pytest.raises(DegenerateCut, match="does not separate"):
        homothety_cut_scan(body, 2.0, [anchor])


def test_graph_contact_names_the_anchor_without_a_normal():
    # the cone's tangent plane at 0.5 is fine; its apex, at 0, has no normal
    with pytest.raises(NotOnBoundary, match=r"abscissa \[0\.0\]: cone apex has no unique normal"):
        homothety_cut_scan(circular_cone(1.0), 2.0, [[0.5], [0.0]])


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("x", [0.0, 1e-300, 5e-324])
def test_graph_contacts_at_a_cone_apex_are_refused(dim, x):
    # the apex has no normal, and a cone's recession cone is no ray
    cone = circular_cone(1.0, dim=dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotOnBoundary, match="no graph contact at abscissa"):
            homothety_cut_scan(cone, 2.0, [[x] * (dim - 1)])
        with pytest.raises(NotGraphLike):
            parallel_cut_scan(cone, 1.0, [[x] * (dim - 1)])


@pytest.mark.parametrize("scan, body, k, anchor", [
    (parallel_cut_scan, function_epigraph("square"), 1.0, [1e160]),
    (parallel_cut_scan, paraboloid_epigraph([1.0, 1.0]), 1.0, [1e160, 0.0]),
    (homothety_cut_scan, hyperboloid_sheet([1.0]), 2.0, [1e200]),
    (parallel_cut_scan, function_epigraph("square"), 1.0, [1e154]),
], ids=["parabola", "paraboloid", "hyperbola", "parabola-slope"])
def test_graph_contacts_that_overflow_name_the_abscissa(scan, body, k, anchor):
    # the height (or at 1e154 the normal's length) overflows: one ValueError
    # that names the abscissa, with no numpy warning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"abscissa {anchor}")):
            scan(body, k, [anchor])


@pytest.mark.parametrize("body, u, t", [
    (hyperboloid_sheet([1.0, 1.4]), [0.0, 0.0, 1.0], 1e150),
    (hyperboloid_sheet([1.0, 1.4]), [0.0, 0.0, 1.0], 1e200),
    (circular_cone(0.5, dim=3), [0.0, 0.0, 1.0], 1e150),
    (circular_cone(0.5, dim=3), [0.0, 0.0, 1.0], 1e200),
    (paraboloid_epigraph([1.0, 0.7]), [0.0, 0.0, 1.0], 1e200),
    (function_epigraph("square"), [0.0, 1.0], 1e300),
], ids=["sheet-1e150", "sheet-1e200", "cone-1e150", "cone-1e200", "paraboloid-1e200",
        "parabola-1e300"])
def test_cut_volumes_that_overflow_a_double_name_the_level(body, u, t):
    # inf means a cut that contains a recession direction, so a volume whose
    # arithmetic overflows is one ValueError naming the level, with no numpy
    # warning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"cut level {t}")):
            halfspace_cut_volume(body, u, t)


def test_a_huge_cut_volume_short_of_overflow_is_kept():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = halfspace_cut_volume(hyperboloid_sheet([1.0, 1.4]), [0.0, 0.0, 1.0], 1e100)
    assert v == 1.4660765716752367e300


def test_homothety_scan_exp_varies():
    # exp's tangent planes separate 0 from the graph at every anchor below 1
    vals = homothety_cut_scan(function_epigraph("exp"), 2.0, [[-2.0], [-1.0], [0.0], [0.5]])
    assert np.all(np.isfinite(vals))
    assert cutvol._spread(vals)["rel_spread"] > 0.1


def test_floating_constancy_translate_parabola():
    p = function_epigraph("square")
    res = floating_constancy(p, "translate", 1.0, n_normals=6, seed=4)
    assert res["rel_spread"] <= 1e-6
    assert res["mean"] == pytest.approx(4.0 / 3.0, rel=1e-6)


def test_floating_constancy_quartic_control():
    q = function_epigraph("quartic")
    res = floating_constancy(q, "translate", 1.0, n_normals=12, seed=4)
    assert res["rel_spread"] >= 0.05


def test_floating_constancy_scale_hyperbola():
    h = hyperboloid_sheet([1.0])
    res = floating_constancy(h, "scale", 2.0, n_normals=6, seed=4)
    assert res["rel_spread"] <= 1e-5
    assert res["mean"] == pytest.approx(hyperbola_homothety_value(2.0), rel=1e-5)


def _floating_from_single_caps(body, mode, lam, n_normals, seed):
    """floating_constancy's values from one halfspace_cut_volume per normal,
    drawn in its order and kept while 0 < v < inf."""
    rng = np.random.default_rng(seed)
    values, attempts = [], 0
    while len(values) < n_normals and attempts < 100 * n_normals:
        attempts += 1
        u = rng.normal(size=body.ambient_dim)
        u[-1] = -abs(u[-1]) - 0.3 * np.linalg.norm(u[:-1])
        u /= np.linalg.norm(u)
        if not body.support_attained(u):
            continue
        n = -u
        s = float(n @ body.inverse_gauss(u))
        v = halfspace_cut_volume(body, n, s + lam * n[-1] if mode == "translate" else lam * s)
        if 0.0 < v < math.inf:
            values.append(v)
    return values


FLOATING_CASES = [
    (function_epigraph("square"), "translate", 1.0),
    (function_epigraph("quartic"), "translate", 1.0),
    (hyperboloid_sheet([1.0]), "scale", 2.0),
    (paraboloid_epigraph([1.0, 0.7]), "translate", 0.5),
]


@pytest.mark.parametrize("body,mode,lam", FLOATING_CASES,
                         ids=[f"{b.tag or b.kind}-{b.ambient_dim}d" for b, _, _ in FLOATING_CASES])
def test_floating_constancy_is_its_single_caps_bitwise(body, mode, lam):
    res = floating_constancy(body, mode, lam, n_normals=12, seed=4)
    assert res["values"] == _floating_from_single_caps(body, mode, lam, 12, 4)


def test_floating_constancy_rejects_no_normals():
    with pytest.raises(ValueError, match="n_normals"):
        floating_constancy(function_epigraph("square"), "translate", 1.0, n_normals=0)


@pytest.mark.parametrize("n_normals", [2.5, True, np.True_, math.nan, "3", None])
def test_floating_constancy_refuses_a_count_that_is_not_a_whole_number(n_normals):
    # 2.5 once gave 3 values and True 1; NaN warned twice ("Mean of empty
    # slice") before numpy's zero-size error, and "3" raised a TypeError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="n_normals"):
            floating_constancy(function_epigraph("square"), "translate", 1.0, n_normals=n_normals)


def test_cut_volume_rejects_non_finite_parameter():
    for a in ([math.nan, 0.5], [math.inf, 0.5]):
        with pytest.raises(ValueError):
            cut_volume(unit_disk(), a)
    with pytest.raises(ValueError):
        halfspace_cut_volume(unit_disk(), [0.0, 1.0], math.nan)


def test_circular_cone_3d_cap_volume():
    # z <= h above the apex cuts a cone of radius h/slope and height h
    slope, apex = 2.0, np.array([0.3, -0.2, 0.5])
    cone = circular_cone(slope, dim=3, shift=apex)
    for h in (0.5, 3.0):
        v = cut_volume(cone, [0.0, 0.0, 1.0 / (apex[2] + h)])
        assert v == pytest.approx(math.pi * (h / slope) ** 2 * h / 3.0, rel=1e-8)


def _measure_calls(monkeypatch):
    """Record how many levels each of cutvol's section_measure calls takes."""
    calls = []
    section_measure = cutvol.section_measure

    def counted(body, u, t, **kwargs):
        calls.append(np.size(t))
        return section_measure(body, u, t, **kwargs)

    monkeypatch.setattr(cutvol, "section_measure", counted)
    return calls


def _scipy_cut_volume(body, a, rtol):
    """V(a) by scipy's quad on the level integrand, one level a call: the
    section measure, smooth in the level in 3D, over the cut's levels."""
    a = np.asarray(a, dtype=float)
    u, t = a / np.linalg.norm(a), 1.0 / np.linalg.norm(a)
    s_lo, s_hi = -body.support(-u), min(t, body.support(u))
    return quad(lambda s: sections.section_measure(body, u, s, rtol=rtol), s_lo, s_hi,
                epsabs=0.0, epsrel=1e-13, limit=200)[0]


def _cap_volume(body, a):
    """The closed form of a sphere, disk, paraboloid or cone cut."""
    a = np.asarray(a, dtype=float)
    u, t = a / np.linalg.norm(a), 1.0 / np.linalg.norm(a)
    d = t - u @ body.translation
    if body.kind == "ellipsoid":
        return (sphere_cap_volume if body.ambient_dim == 3 else disk_segment_area)(1.0, d)
    if body.kind == "circular-cone":
        return cone_cap_volume(body.params[0], body.translation, a)
    return paraboloid_cap_volume(body.params, body.translation, a)


def test_cut_volumes_take_two_levels_on_a_quadric_and_one_panel_on_the_disk(monkeypatch):
    sphere = unit_sphere(center=[0.1, -0.2, 3.0])
    paraboloid = paraboloid_epigraph([1.0, 0.7], shift=[0.0, 0.0, 1.5])
    sheet = hyperboloid_sheet([1.0, 1.4], shift=[0.0, 0.0, 1.0])
    cases = [
        (sphere, [0.05, 0.1, 0.33]),
        (sphere, [-0.1, 0.0, 0.4]),
        (paraboloid, [0.1, -0.2, 0.4]),
        (paraboloid, [0.0, 0.3, 0.25]),
        (sheet, [0.1, 0.0, 0.3]),
        (sheet, [-0.05, 0.1, 0.25]),
        (circular_cone(2.0, dim=3, shift=[0.3, -0.2, 0.5]), [0.3, 0.1, 0.2]),
        (unit_disk(center=[0.0, 3.0]), [0.1, 0.35]),
    ]
    calls = _measure_calls(monkeypatch)
    for rtol in (1e-8, 1e-10):
        calls.clear()
        batched = [cut_volume(body, a, rtol=rtol) for body, a in cases]
        # a 3D quadric volume takes its two Gauss-Legendre levels, and the
        # disk met rtol on its first panel of 21
        assert calls == [2] * 7 + [21]
        for (body, a), v in zip(cases, batched):
            exact = _scipy_cut_volume(body, a, rtol) if body is sheet else _cap_volume(body, a)
            assert v == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("body", [paraboloid_epigraph([1.0, 0.7]), hyperboloid_sheet([1.0, 1.4]),
                                  function_epigraph("square")], ids=["paraboloid", "sheet", "square"])
def test_halfspace_cut_volume_is_inf_at_plus_inf_on_a_body_unbounded_in_u(body):
    # the cut at t = +inf holds the body's recession directions: its volume
    # is +inf, fixed before any arithmetic on the level (inf - inf gave a
    # NaN level and a RuntimeWarning); a bounded body's is its whole volume
    u = np.eye(body.ambient_dim)[-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert halfspace_cut_volume(body, u, math.inf) == math.inf
        assert halfspace_cut_volume(body, u, -math.inf) == 0.0
        assert halfspace_cut_volume(unit_disk(), u[-2:], math.inf) == pytest.approx(math.pi,
                                                                                rel=1e-8)


def _quadric_cuts(n=12, seed=0):
    """Seeded cuts of the 3D quadrics, each (name, volume call, reference,
    closed): n of the sphere at (0, 0, 3) and of the [1.3, 0.8, 1] ellipsoid
    at (0.5, -1, 2) at levels 10-90% of their range, n of the paraboloid
    [1, 0.7] and of the cone of slope 0.5, and 4 of the [1, 1.4] sheet, each
    with bounded cuts {<a,x> <= 1}. The reference is the closed form (closed
    True), or for the sheet scipy's quad on the section measure."""
    rng = np.random.default_rng(seed)
    cuts = []
    for body in (unit_sphere(center=[0.0, 0.0, 3.0]),
                 ellipsoid([1.3, 0.8, 1.0], center=[0.5, -1.0, 2.0])):
        for _ in range(n):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            lo, hi = sections.admissible_levels(body, u)
            t = lo + rng.uniform(0.1, 0.9) * (hi - lo)
            cuts.append((body, lambda body=body, u=u, t=t: halfspace_cut_volume(body, u, t),
                         ellipsoid_cap_volume(body.params, body.translation, u, t), True))
    paraboloid = paraboloid_epigraph([1.0, 0.7], shift=[0.0, 0.0, 1.5])
    cone = circular_cone(0.5, dim=3, shift=[0.3, -0.2, 0.5])
    sheet = hyperboloid_sheet([1.0, 1.4])
    # |a'| relative to a_z below which the cuts are bounded: any for the
    # paraboloid, the slope for the cone, and on the sheet |(a1, 1.4 a2)| < a_z
    for body, reach, count in ((paraboloid, 3.0, n), (cone, 0.5, n), (sheet, 1.0 / 1.4, 4)):
        for _ in range(count):
            w = rng.normal(size=2)
            a_z = rng.uniform(0.2, 0.5)
            a = np.append(a_z * reach * rng.uniform(0.0, 0.9) * w / np.linalg.norm(w), a_z)
            if body is paraboloid:
                exact = paraboloid_cap_volume(body.params, body.translation, a)
            elif body is cone:
                exact = cone_cap_volume(0.5, body.translation, a)
            else:
                exact = _scipy_cut_volume(body, a, 1e-10)
            cuts.append((body, lambda body=body, a=a: cut_volume(body, a), exact, body is not sheet))
    return cuts


def test_quadric_cut_volumes_take_two_levels_to_rounding(monkeypatch):
    # a quadric's section measure is quadratic in the level, so 2-node
    # Gauss-Legendre is exact: each volume is one section call of its two
    # levels, and within 64 eps of its closed form (the sheet's reference,
    # scipy's quad to 1e-13, within 1e-12)
    cuts = _quadric_cuts()
    calls = _measure_calls(monkeypatch)
    eps = np.finfo(float).eps
    for body, volume, exact, closed in cuts:
        v = volume()
        assert v == pytest.approx(exact, rel=64.0 * eps if closed else 1e-12, abs=0.0), body.kind
    assert calls == [2] * len(cuts)


def test_quadric_cut_volumes_whose_closed_forms_are_refused_keep_rtol(monkeypatch,
                                                                       refuse_closed_forms):
    # each level whose closed form F refuses takes the polar rule in the
    # same batch, and the two-level volume is as good as its measures
    refuse_closed_forms()
    calls = _measure_calls(monkeypatch)
    cuts = _quadric_cuts(n=4, seed=1)
    for body, volume, exact, _ in cuts:
        assert volume() == pytest.approx(exact, rel=sections.DEFAULT_RTOL, abs=0.0), body.kind
    assert calls == [2] * len(cuts)


def test_superellipsoid_cut_volume_takes_quad(monkeypatch):
    # a body without a form integrates by quad's 15-point rule; the body is
    # centrally symmetric, so V(u, t) + V(-u, -t) is its whole volume
    p = 4.0
    body = superellipsoid(p, dim=3)
    rules = []
    quad = cutvol.quad

    def counted(*args, **kwargs):
        rules.append(kwargs["rule"])
        return quad(*args, **kwargs)

    monkeypatch.setattr(cutvol, "quad", counted)
    u = np.array([0.3, -0.2, 0.9]) / np.linalg.norm([0.3, -0.2, 0.9])
    total = halfspace_cut_volume(body, u, 0.4) + halfspace_cut_volume(body, -u, -0.4)
    assert len(rules) == 2 and all(rule is cutvol.DQK15 for rule in rules)
    whole = 8.0 * math.gamma(1.0 + 1.0 / p) ** 3 / math.gamma(1.0 + 3.0 / p)
    assert total == pytest.approx(whole, rel=1e-9)


@pytest.mark.parametrize("rule, kronrod_degree, gauss_degree",
                         [(cutvol.DQK15, 22, 13), (cutvol.DQK21, 31, 19)], ids=["dqk15", "dqk21"])
def test_gauss_kronrod_tables_integrate_their_degrees(rule, kronrod_degree, gauss_degree):
    nodes, kronrod, gauss = rule
    n = (len(nodes) - 1) // 2  # Gauss points
    # the Gauss nodes are numpy's within an ulp, and the Kronrod nodes interlace them
    assert np.all(gauss[0::2] == 0.0) and np.all(gauss[1::2] > 0.0)
    assert np.allclose(nodes[1::2], np.polynomial.legendre.leggauss(n)[0], rtol=0.0, atol=2.3e-16)
    eps = np.finfo(float).eps
    for weights, degree in ((kronrod, kronrod_degree), (gauss, gauss_degree)):
        for k in range(degree + 3):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            miss = abs(weights @ nodes ** k - exact)
            if k <= degree:
                assert miss <= 2.0 * eps, (k, miss)
            elif k % 2 == 0:  # past its degree, an even power is missed
                assert miss > 1e3 * eps, (k, miss)


def test_quartic_anchor_cut_subdivides_from_the_batch(monkeypatch):
    # the first panel falls short of rtol on the flat quartic, so the rule
    # bisects; each round sections the levels of all its open panels at once
    calls = _measure_calls(monkeypatch)
    [v] = parallel_cut_scan(function_epigraph("quartic"), 1.0, [[0.0]])
    assert v == pytest.approx(1.6, rel=sections.DEFAULT_RTOL)  # 2 (1 - 1/5)
    assert 1 < len(calls) <= 8
    assert calls[0] == 21 and all(n % 21 == 0 for n in calls)


def test_degenerate_node_level_falls_back_to_single_sections(monkeypatch):
    # a cut 1e-11 deep: the outermost node levels round onto the support
    # level, so the section kernel sections that round's levels alone and
    # scores those levels 0, all in one section_measure call: the round's
    # batch, then one batch per level, cast once
    calls, batches = _measure_calls(monkeypatch), _ray_batches(monkeypatch)
    t = 2.0 + 1e-11
    v = halfspace_cut_volume(unit_disk(center=[0.0, 3.0]), [0.0, 1.0], t)
    # the cap of the float level's depth d, acos(1 - d) - (1 - d) sqrt(2d - d^2),
    # is 5.962848680042886e-17; the hits' rounding leaves the cut about 5e-6 off it
    with mpmath.workdps(40):
        d = mpmath.mpf(t) - 2
        cap = mpmath.acos(1 - d) - (1 - d) * mpmath.sqrt(2 * d - d * d)
    assert v == pytest.approx(float(cap), rel=6.5e-6, abs=0.0)
    assert calls == [21]
    assert len(batches) == 1 + 21


def test_quad_warns_at_the_panel_cap():
    # a tolerance below the rounding floor closes no panel
    with pytest.warns(RuntimeWarning, match="panels short of the tolerance"):
        [v] = cutvol.quad(lambda x, k: np.sin(x), 0.0, math.pi, epsabs=0.0, epsrel=1e-20)
    assert v == pytest.approx(2.0, rel=1e-14)


def _quartic_anchor_integrand(phi):
    """The quartic's anchor-0 cut {y <= 1}, cosine-substituted: chord 2 y^(1/4)
    at level y = (1 - cos phi) / 2, times dy/dphi."""
    return 2.0 * (0.5 - 0.5 * np.cos(phi)) ** 0.25 * 0.5 * np.sin(phi)


LOCKSTEP_INTEGRANDS = (_quartic_anchor_integrand, np.sin, lambda x: np.exp(-x) * x)


def _lockstep(x, k):
    out = np.empty_like(x)
    for i, f in enumerate(LOCKSTEP_INTEGRANDS):
        out[k == i] = f(x[k == i])
    return out


def test_lockstep_quad_is_each_lone_quad_bitwise():
    rounds = []

    def f(x, k):
        rounds.append(np.bincount(k, minlength=3) // 21)
        return _lockstep(x, k)

    a, b, epsrel = np.array([0.0, 0.0, 0.5]), np.array([math.pi, math.pi, 2.0]), [1e-8, 1e-10, 1e-6]
    together = cutvol.quad(f, a, b, epsabs=0.0, epsrel=epsrel)
    # the quartic's panels subdivide while the other two close on their first
    assert len(rounds) > 1 and rounds[0].tolist() == [1, 1, 1]
    assert all(r[1] == r[2] == 0 and r[0] > 0 for r in rounds[1:])
    assert together[0] == pytest.approx(1.6, rel=1e-8)  # 2 (1 - 1/5)
    for i, g in enumerate(LOCKSTEP_INTEGRANDS):
        [alone] = cutvol.quad(lambda x, k: g(x), a[i], b[i], epsabs=0.0, epsrel=epsrel[i])
        assert together[i] == alone
    # one integral at its panel cap warns and stops without holding up the others
    with pytest.warns(RuntimeWarning, match="panels short of the tolerance"):
        capped = cutvol.quad(_lockstep, a, b, epsabs=0.0, epsrel=[1e-8, 1e-20, 1e-6])
    assert capped[0] == together[0] and capped[2] == together[2]
    assert capped[1] == pytest.approx(2.0, rel=1e-14)
    # the quartic over [0, pi] and over [0, 3] bisects in the same rounds, so
    # the two integrals' halves share the flat panel arrays round after round
    ks = []

    def quartic(x, k):
        ks.append(k.copy())
        return _quartic_anchor_integrand(x)

    a, b, epsrel = np.zeros(2), np.array([math.pi, 3.0]), [1e-10, 1e-10]
    together = cutvol.quad(quartic, a, b, epsabs=0.0, epsrel=epsrel)
    # rounds in which both integrals hold two open panels of 21 points each
    assert sum(np.bincount(k, minlength=2).tolist() == [42, 42] for k in ks) > 2
    for k in ks:
        # each integral's points are one block, in ascending k
        assert np.all(np.diff(k) >= 0)
    for i in range(2):
        [alone] = cutvol.quad(lambda x, k: _quartic_anchor_integrand(x), a[i], b[i],
                              epsabs=0.0, epsrel=epsrel[i])
        assert together[i] == alone


def _ray_batches(monkeypatch):
    calls = []
    ray_hits_batch = sections.ray_hits_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return ray_hits_batch(*args, **kwargs)

    monkeypatch.setattr(sections, "ray_hits_batch", counted)
    return calls


def test_cut_volume_ray_batch_budget(monkeypatch, refuse_closed_forms):
    calls = _ray_batches(monkeypatch)
    # the plane z = 2.5 cuts a cap of height 0.5 from the unit sphere about z = 3
    # (a quadric's measure-only levels take their measures in closed form,
    # checked by one defining call, and cast no ray batch)
    assert cut_volume(unit_sphere(center=[0.1, -0.2, 3.0]), [0.0, 0.0, 0.4]) == pytest.approx(
        sphere_cap_volume(1.0, -0.5), rel=1e-7)
    assert len(calls) == 0
    calls.clear()
    cut_volume(unit_disk(center=[0.0, 3.0]), [0.1, 0.35])
    assert 0 < len(calls) <= 2
    # a gradient's 2d + 1 volumes and its cut plane's stats and diameter
    # share their batches: none in 3D (a quadric's cut plane takes its
    # centroid and diameter in closed form too, and casts no centring
    # rays), 1 in 2D
    calls.clear()
    cut_gradient(unit_sphere(center=[0.0, 0.0, 3.0]), [0.05, 0.1, 0.4])
    assert len(calls) == 0
    calls.clear()
    cut_gradient(unit_disk(center=[0.0, 3.0]), [0.1, 0.35])
    assert len(calls) == 1
    # where F refuses the closed forms, the 3D gradient's levels and its cut
    # plane ride in one polar batch a round, and the cut plane's diameter
    # grid follows in a batch of its own
    refuse_closed_forms()
    calls.clear()
    cut_gradient(unit_sphere(center=[0.0, 0.0, 3.0]), [0.05, 0.1, 0.4])
    assert len(calls) == 2
    refuse_closed_forms(False)
    # a scan's volumes at all its anchors share their batches too (the 3D
    # paraboloid's cast none)
    for scan, body, k, anchors in [case for case in SCAN_CASES if len(case[3]) == 5]:
        calls.clear()
        (parallel_cut_scan if scan == "parallel" else homothety_cut_scan)(body, k, anchors)
        assert (0 < len(calls) <= 1) if body.ambient_dim == 2 else len(calls) == 0
    # and so do a floating scan's caps at all its normals (the flat quartic's
    # caps subdivide, so it takes more rounds)
    for body, mode, lam in [case for case in FLOATING_CASES if case[0].tag != "quartic"]:
        calls.clear()
        floating_constancy(body, mode, lam, n_normals=12, seed=4)
        assert (0 < len(calls) <= 1) if body.ambient_dim == 2 else len(calls) == 0


# (body, a) with a bounded, nonempty cut, one per kind the gradient is checked on
GRADIENT_CASES = [
    (unit_sphere(center=[0.0, 0.0, 3.0]), [0.05, 0.1, 0.4]),
    (paraboloid_epigraph([1.0, 0.7], shift=[0.0, 0.0, 1.0]), [0.1, -0.2, 0.4]),
    (hyperboloid_sheet([1.0, 1.4], shift=[0.0, 0.0, 1.0]), [-0.05, 0.1, 0.25]),
    (unit_disk(center=[0.0, 3.0]), [0.1, 0.35]),
    (function_epigraph("square", shift=[0.0, 1.0]), [-0.2, 0.5]),
    (hyperboloid_sheet([1.0]), [0.3, 0.6]),
]


def _gradient_from_single_volumes(body, a, rtol):
    """cut_gradient's fields from 2d + 1 cut_volume calls at its steps and rtols."""
    a = np.asarray(a, dtype=float)
    nrm = float(np.linalg.norm(a))
    fd_rtol = min(rtol, 1e-10)
    step = max(1.0, nrm) * fd_rtol ** (1.0 / 3.0)
    V0 = cut_volume(body, a, rtol=rtol)
    grad = np.zeros(len(a))
    for j in range(len(a)):
        e = np.zeros(len(a))
        e[j] = step
        grad[j] = (cut_volume(body, a + e, rtol=fd_rtol) - cut_volume(body, a - e, rtol=fd_rtol)) / (2.0 * step)
    u, t = a / nrm, 1.0 / nrm
    stats = sections.section_stats(body, u, t, rtol=rtol)
    lam = float(a @ grad)
    return dict(
        a=a, V=V0, grad=grad, lam=lam,
        identity_residual=float(np.linalg.norm(stats.centroid - grad / lam)),
        moment_residual=float(np.linalg.norm(grad + stats.measure * stats.centroid / nrm)),
        err_estimate=fd_rtol * V0 / step + step ** 2,
        section_measure=stats.measure, section_centroid=stats.centroid,
        section_diameter=sections.section_diameter(body, u, t),
    )


@pytest.mark.parametrize("body,a", GRADIENT_CASES,
                         ids=[f"{b.tag or b.kind}-{b.ambient_dim}d" for b, _ in GRADIENT_CASES])
@pytest.mark.parametrize("rtol", [sections.DEFAULT_RTOL, 1e-11])
def test_cut_gradient_is_its_single_volumes_bitwise(body, a, rtol):
    r = cut_gradient(body, a, rtol=rtol)
    ref = _gradient_from_single_volumes(body, a, rtol)
    assert set(ref) == set(r.__dataclass_fields__)
    for field, value in ref.items():
        assert np.array_equal(getattr(r, field), value), field


def test_cut_gradient_plane_rides_a_round_with_grazing_levels(monkeypatch):
    # the +step cut is 1e-11 deep, so levels of the first round graze the
    # body: the section kernel scores them 0 in the same call that sections
    # the cut plane, and section_stats and section_diameter are not called
    called = []
    for name in ("section_stats", "section_diameter"):
        def spy(*args, _f=getattr(cutvol, name), _name=name, **kwargs):
            called.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(cutvol, name, spy)
    body, a = unit_disk(center=[0.0, 3.0]), [0.0, 1.0 / (2.0 + 1e-11) - 1e-10 ** (1.0 / 3.0)]
    r = cut_gradient(body, a)
    assert called == []
    for field, value in _gradient_from_single_volumes(body, a, sections.DEFAULT_RTOL).items():
        assert np.array_equal(getattr(r, field), value), field


def test_cut_gradient_refuses_a_cut_plane_at_the_support_as_section_stats_does():
    # 1e-10 above the support level 2 the cut is nonempty, but its plane lies
    # within 1e-9 scale of the boundary, where section_stats refuses it
    with pytest.raises(LevelOutOfRange,
                       match=r"level 2\.0000000001 outside admissible interval \(2\.0, 4\.0\)"):
        cut_gradient(unit_disk(center=[0.0, 3.0]), [0.0, 1.0 / (2.0 + 1e-10)])


def test_cut_gradient_refuses_its_plane_before_integrating(monkeypatch):
    # the plane 1e-10 above the support level is refused up front: no
    # volume is integrated and no level sectioned
    called = []
    for name in ("section_measure", "_sections"):
        def spy(*args, _f=getattr(cutvol, name), _name=name, **kwargs):
            called.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(cutvol, name, spy)
    with pytest.raises(LevelOutOfRange):
        cut_gradient(unit_disk(center=[0.0, 3.0]), [0.0, 1.0 / (2.0 + 1e-10)])
    assert called == []


def test_cut_gradient_rejects_non_finite_parameter():
    for a in ([math.nan, 0.0, 0.4], [0.0, math.inf, 0.4]):
        with pytest.raises(ValueError, match="finite"):
            cut_gradient(unit_sphere(center=[0.0, 0.0, 3.0]), a)


def test_cut_gradient_rejects_a_perturbed_cut_that_turns_unbounded():
    # a_z = 1e-4 > 0 bounds the cut, but the step fd_rtol^(1/3) ~ 4.6e-4
    # leaves a - step e_3 with a negative z: that cut keeps the recession ray
    with pytest.raises(DegenerateCut, match="perturbed cut became unbounded"):
        cut_gradient(paraboloid_epigraph([1.0, 1.0], shift=[0.0, 0.0, 1.0]), [0.0, 0.0, 1e-4])


@pytest.mark.parametrize("rtol", [math.nan, 0.0, -1.0, 1.0, math.inf])
def test_rtol_outside_the_unit_interval_is_refused(rtol):
    sphere = unit_sphere([0.0, 0.0, 3.0])
    for call in (cut_volume, cut_gradient):
        with pytest.raises(ValueError, match="rtol"):
            call(sphere, np.array([0.0, 0.0, 0.4]), rtol=rtol)
    # also where the cut misses the body and needs no integral
    assert cut_volume(sphere, np.array([0.0, 0.0, 0.5])) == 0.0
    with pytest.raises(ValueError, match="rtol"):
        cut_volume(sphere, np.array([0.0, 0.0, 0.5]), rtol=rtol)
    # before floating_constancy draws a normal, also where every cap is
    # empty (scaling a sphere about its centre) and none is integrated
    for body, mode, lam in ((sphere, "translate", 0.5), (unit_sphere(), "scale", 2.0)):
        with pytest.raises(ValueError, match="rtol"):
            floating_constancy(body, mode, lam, n_normals=1, rtol=rtol)
