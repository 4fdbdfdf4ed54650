import math
import warnings

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
    DegenerateSection,
    LevelOutOfRange,
    NotApexCentered,
    NotGraphLike,
    NotOnBoundary,
    OriginInsideBody,
)

from oracles import (
    disk_segment_area,
    halfspace_area_brute,
    hyperbola_homothety_value,
    parabola_chord_area,
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
        point, normal = bodies._graph_contact(body, anchor)
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


def _measure_calls(monkeypatch, batch_fails=False):
    """Record how many levels each of cutvol's section_measure calls takes.

    With batch_fails, a call on an array of levels raises DegenerateSection,
    which leaves the round's levels to one call of the section kernel.
    """
    calls = []
    section_measure = cutvol.section_measure

    def counted(body, u, t, **kwargs):
        calls.append(np.size(t))
        if batch_fails and np.ndim(t):
            raise DegenerateSection("one section per level")
        return section_measure(body, u, t, **kwargs)

    monkeypatch.setattr(cutvol, "section_measure", counted)
    return calls


def _scipy_cut_volume(body, a, rtol=sections.DEFAULT_RTOL):
    """V(a) by scipy's quad on the same cosine-substituted integrand, one level a call."""
    a = np.asarray(a, dtype=float)
    u, t = a / np.linalg.norm(a), 1.0 / np.linalg.norm(a)
    s_lo, s_hi = -body.support(-u), min(t, body.support(u))
    c, h = 0.5 * (s_lo + s_hi), 0.5 * (s_hi - s_lo)

    def g(phi):
        return sections.section_measure(body, u, c - h * math.cos(phi), rtol=rtol) * h * math.sin(phi)

    return quad(g, 0.0, math.pi, epsabs=1e-14 * body.scale ** body.ambient_dim,
                epsrel=rtol, limit=200)[0]


def test_batched_first_pass_is_quads_value(monkeypatch):
    cases = [
        (unit_sphere(center=[0.1, -0.2, 3.0]), [0.05, 0.1, 0.33]),
        (unit_sphere(center=[0.1, -0.2, 3.0]), [-0.1, 0.0, 0.4]),
        (paraboloid_epigraph([1.0, 0.7], shift=[0.0, 0.0, 1.5]), [0.1, -0.2, 0.4]),
        (paraboloid_epigraph([1.0, 0.7], shift=[0.0, 0.0, 1.5]), [0.0, 0.3, 0.25]),
        (hyperboloid_sheet([1.0, 1.4], shift=[0.0, 0.0, 1.0]), [0.1, 0.0, 0.3]),
        (hyperboloid_sheet([1.0, 1.4], shift=[0.0, 0.0, 1.0]), [-0.05, 0.1, 0.25]),
    ]
    calls = _measure_calls(monkeypatch)
    batched = [cut_volume(body, a) for body, a in cases]
    assert calls == [21] * len(cases)  # every one of them met rtol on its first panel
    for (body, a), v in zip(cases, batched):
        assert v == pytest.approx(_scipy_cut_volume(body, a), rel=1e-15, abs=0.0)
    calls = _measure_calls(monkeypatch, batch_fails=True)
    per_level = [cut_volume(body, a) for body, a in cases]
    assert calls == [21] * len(cases)
    for v, w in zip(batched, per_level):
        assert 0.0 < v < math.inf
        assert v == w


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
    # level, so section_measure raises DegenerateSection, and one call of
    # the section kernel scores those levels 0
    calls = _measure_calls(monkeypatch)
    v = halfspace_cut_volume(unit_disk(center=[0.0, 3.0]), [0.0, 1.0], 2.0 + 1e-11)
    assert v == pytest.approx(5.962887473355462e-17, rel=1e-14, abs=0.0)
    assert calls == [21]


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


def test_cut_volume_ray_batch_budget(monkeypatch):
    calls = _ray_batches(monkeypatch)
    # the plane z = 2.5 cuts a cap of height 0.5 from the unit sphere about z = 3
    assert cut_volume(unit_sphere(center=[0.1, -0.2, 3.0]), [0.0, 0.0, 0.4]) == pytest.approx(
        sphere_cap_volume(1.0, -0.5), rel=1e-7)
    assert 0 < len(calls) <= 10
    calls.clear()
    cut_volume(unit_disk(center=[0.0, 3.0]), [0.1, 0.35])
    assert 0 < len(calls) <= 2
    # a gradient's 2d + 1 volumes and its cut plane's stats and diameter
    # share their batches: 2 in 3D (1 centring, 1 polar), 1 in 2D
    calls.clear()
    cut_gradient(unit_sphere(center=[0.0, 0.0, 3.0]), [0.05, 0.1, 0.4])
    assert 0 < len(calls) <= 2
    calls.clear()
    cut_gradient(unit_disk(center=[0.0, 3.0]), [0.1, 0.35])
    assert len(calls) == 1
    # a scan's volumes at all its anchors share their batches too
    for scan, body, k, anchors in [case for case in SCAN_CASES if len(case[3]) == 5]:
        calls.clear()
        (parallel_cut_scan if scan == "parallel" else homothety_cut_scan)(body, k, anchors)
        assert 0 < len(calls) <= (1 if body.ambient_dim == 2 else 5)
    # and so do a floating scan's caps at all its normals (the flat quartic's
    # caps subdivide, so it takes more rounds)
    for body, mode, lam in [case for case in FLOATING_CASES if case[0].tag != "quartic"]:
        calls.clear()
        floating_constancy(body, mode, lam, n_normals=12, seed=4)
        assert 0 < len(calls) <= (1 if body.ambient_dim == 2 else 5)


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
