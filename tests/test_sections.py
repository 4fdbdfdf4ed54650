import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgeom import (
    admissible_levels,
    circular_cone,
    ellipsoid,
    function_epigraph,
    hyperboloid_sheet,
    paraboloid_epigraph,
    section_bounded,
    section_diameter,
    section_measure,
    section_stats,
    superellipsoid,
    unit_disk,
    unit_sphere,
)
from ccgeom import sections
from ccgeom.errors import DegenerateSection, GeometryError, LevelOutOfRange, UnboundedSection

from oracles import chord_length_brute, chord_midpoint_brute, superellipsoid_section_stats


def test_disk_chord_measure_and_centroid():
    d = unit_disk()
    s = section_stats(d, [0.0, 1.0], 0.5)
    assert s.measure == pytest.approx(math.sqrt(3.0), rel=1e-10)
    assert np.allclose(s.centroid, [0.0, 0.5], atol=1e-12)
    assert s.err_estimate <= 1e-8 * s.measure + 1e-15


def test_sphere_section_area():
    s = unit_sphere()
    st = section_stats(s, [0.0, 0.0, 1.0], 0.5)
    assert st.measure == pytest.approx(math.pi * 0.75, rel=1e-8)
    assert np.allclose(st.centroid, [0.0, 0.0, 0.5], atol=1e-9)


def test_oblique_ellipsoid_section_against_closed_form():
    # ellipsoid x^2/4 + y^2 + z^2 <= 1, normal e_x at level t:
    # section is an ellipse with semi-axes sqrt(1-t^2/4) in y and z
    e = ellipsoid([2.0, 1.0, 1.0])
    for t in (0.0, 0.8, -1.2):
        st = section_stats(e, [1.0, 0.0, 0.0], t)
        expect = math.pi * (1.0 - t * t / 4.0)
        assert st.measure == pytest.approx(expect, rel=1e-8)
        assert np.allclose(st.centroid, [t, 0.0, 0.0], atol=1e-8)


def test_section_bounded_logic():
    p = paraboloid_epigraph([1.0, 1.0])
    assert section_bounded(p, np.array([0.0, 0.0, 1.0]))
    assert not section_bounded(p, np.array([1.0, 0.0, 0.0]))
    h = hyperboloid_sheet([1.0])
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert not section_bounded(h, u)  # contains the asymptote
    assert section_bounded(h, np.array([0.0, 1.0]))


def test_admissible_levels():
    d = unit_disk(center=[0.0, 2.0])
    lo, hi = admissible_levels(d, np.array([0.0, 1.0]))
    assert (lo, hi) == pytest.approx((1.0, 3.0))
    p = paraboloid_epigraph([1.0, 1.0])
    lo, hi = admissible_levels(p, np.array([0.0, 0.0, 1.0]))
    assert lo == pytest.approx(0.0)
    assert hi == math.inf
    with pytest.raises(UnboundedSection):
        admissible_levels(p, np.array([1.0, 0.0, 0.0]))


def test_level_out_of_range():
    d = unit_disk()
    with pytest.raises(LevelOutOfRange):
        section_stats(d, [0.0, 1.0], 1.5)
    with pytest.raises((LevelOutOfRange, DegenerateSection)):
        section_stats(d, [0.0, 1.0], 1.0)  # tangent touch point
    with pytest.raises(LevelOutOfRange):  # one level out of range fails the batch
        section_stats(unit_sphere(), [0.0, 0.0, 1.0], np.array([0.0, 0.5, 1.5]))


def test_unbounded_direction_raises():
    p = paraboloid_epigraph([1.0, 1.0])
    with pytest.raises(UnboundedSection):
        section_stats(p, [1.0, 0.0, 0.0], 0.0)
    # every section entry point refuses a normal whose sections are unbounded
    r = 1.0 / math.sqrt(2.0)
    cases = [
        (p, [1.0, 0.0, 0.0]),
        (function_epigraph("square"), [1.0, 0.0]),
        (circular_cone(1.0), [1.0, 0.0]),
        (hyperboloid_sheet([1.0, 1.0]), [r, 0.0, r]),
        (hyperboloid_sheet([1.0]), [r, r]),
        (function_epigraph("exp"), [0.0, 1.0]),
    ]
    for body, u in cases:
        for entry in (section_measure, section_diameter):
            with pytest.raises(UnboundedSection):
                entry(body, u, 0.5)


def test_downward_normal_equivalent_to_upward():
    # same geometric plane described with the opposite normal
    h = hyperboloid_sheet([1.0, 1.4])
    u = np.array([0.1, -0.05, 1.0])
    u /= np.linalg.norm(u)
    a = section_stats(h, u, 3.0)
    b = section_stats(h, -u, -3.0)
    assert a.measure == pytest.approx(b.measure, rel=1e-9)
    assert np.allclose(a.centroid, b.centroid, atol=1e-8)


def test_chord_against_brute_force():
    hyperbola_u = np.array([0.4, 1.0]) / math.hypot(0.4, 1.0)
    bodies_dirs = [
        (superellipsoid(4.0), np.array([1.0, 2.0]), 0.3),
        (superellipsoid(2.5), np.array([1.0, 2.0]), -0.5),
        (function_epigraph("cosh"), np.array([0.2, 1.0]), 2.0),
        (function_epigraph("square"), np.array([0.3, 1.0]), 1.5),
        (function_epigraph("quartic"), np.array([0.5, 1.0]), 1.0),
        (function_epigraph("exp"), np.array([-0.5, 1.0]), 1.5),
        (ellipsoid([1.5, 0.7], center=[0.2, -0.1]), np.array([3.0, 1.0]), 0.4),
        (unit_disk(center=[0.7, -1.2]), np.array([1.0, 1.0]), 0.2),
        (hyperboloid_sheet([1.0]), hyperbola_u, 2.5),
        # the opposite normal describes the same line; sections flip it back
        (hyperboloid_sheet([1.0]), -hyperbola_u, -2.5),
        (circular_cone(1.5, dim=2), np.array([0.2, 1.0]), 1.0),
    ]
    for body, u, t in bodies_dirs:
        u = u / np.linalg.norm(u)
        st = section_stats(body, u, t)
        assert st.measure == pytest.approx(
            chord_length_brute(body, u, t, span=12.0), rel=1e-6)
        mid = chord_midpoint_brute(body, u, t, span=12.0)
        assert np.allclose(st.centroid, mid, atol=1e-6)


def test_2d_section_measure_degenerate_at_grazing_or_outside_levels():
    # halfspace_cut_volume counts these levels as measure 0
    for t in (1.0, 1.001):
        with pytest.raises(DegenerateSection):
            section_measure(unit_disk(), [0.0, 1.0], t)
    with pytest.raises(DegenerateSection):
        section_measure(function_epigraph("square"), [0.0, 1.0], -0.01)


def test_paraboloid_section_centroid_lies_on_axis_family():
    # horizontal sections of z = x^2 + y^2 are disks centered on the z-axis
    p = paraboloid_epigraph([1.0, 1.0])
    for t in (0.5, 1.0, 4.0):
        st = section_stats(p, [0.0, 0.0, 1.0], t)
        assert st.measure == pytest.approx(math.pi * t, rel=1e-8)
        assert np.allclose(st.centroid[:2], 0.0, atol=1e-9)


def test_section_measure_matches_stats():
    e = ellipsoid([1.0, 2.0, 0.5], center=[0.1, 0.2, 0.3])
    u = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    assert section_measure(e, u, 0.4) == pytest.approx(
        section_stats(e, u, 0.4).measure, rel=1e-10)


def test_section_diameter_of_disk_chord():
    d = unit_disk()
    assert section_diameter(d, np.array([0.0, 1.0]), 0.5) == pytest.approx(
        math.sqrt(3.0), rel=1e-6)
    s = unit_sphere()
    assert section_diameter(s, np.array([0.0, 0.0, 1.0]), 0.0) == pytest.approx(
        2.0, rel=1e-6)


def test_circular_cone_3d_section_is_a_disk_on_the_axis():
    slope, apex = 2.0, np.array([0.3, -0.2, 0.5])
    cone = circular_cone(slope, dim=3, shift=apex)
    e_z = np.array([0.0, 0.0, 1.0])
    for h in (0.25, 2.0, 7.0):
        st = section_stats(cone, e_z, apex[2] + h)
        assert st.measure == pytest.approx(math.pi * (h / slope) ** 2, rel=1e-8)
        assert np.allclose(st.centroid, apex + h * e_z, atol=1e-9 * max(1.0, h))
    st = section_stats(circular_cone(1.0, dim=3), e_z, 2.0)
    assert st.measure == pytest.approx(4.0 * math.pi, rel=1e-8)


def test_n_evals_counts_oracle_points(monkeypatch):
    from ccgeom.bodies import BodySpec

    seen = []
    defining = BodySpec.defining

    def counted(self, x):
        seen.append(np.asarray(x).size // self.ambient_dim)
        return defining(self, x)

    monkeypatch.setattr(BodySpec, "defining", counted)
    for body, u, t in ((unit_disk(), [0.0, 1.0], 0.3),
                       (unit_sphere(), [0.0, 0.0, 1.0], 0.3)):
        seen.clear()
        st = section_stats(body, u, t)
        assert st.n_evals == sum(seen)
        seen.clear()
        st = section_stats(body, u, np.array([-t, t]))
        assert int(st.n_evals.sum()) == sum(seen)


def test_section_level_must_be_a_number():
    with pytest.raises(ValueError):
        section_measure(unit_sphere(), [0.0, 0.0, 1.0], math.nan)
    with pytest.raises(ValueError):
        section_stats(unit_disk(), [0.0, 1.0], math.nan)
    for levels in (np.array([0.0, math.nan]), np.array([]), np.zeros((2, 2))):
        with pytest.raises(ValueError):
            section_measure(unit_sphere(), [0.0, 0.0, 1.0], levels)


# one body of each unbounded kind and the sphere, each with a normal whose
# sections are bounded
INFINITE_LEVEL_CASES = [
    (unit_sphere(), [0.0, 0.0, 1.0]),
    (paraboloid_epigraph([1.0, 0.7]), [0.0, 0.0, 1.0]),
    (hyperboloid_sheet([1.0, 1.4]), [0.0, 0.0, 1.0]),
    (hyperboloid_sheet([1.0]), [0.0, 1.0]),
    (circular_cone(1.0, dim=3), [0.0, 0.0, 1.0]),
    (function_epigraph("exp"), [-math.sqrt(0.5), math.sqrt(0.5)]),
]


@pytest.mark.parametrize("entry", [section_stats, section_measure, section_diameter])
@pytest.mark.parametrize("body, u", INFINITE_LEVEL_CASES)
def test_infinite_levels_are_out_of_range(entry, body, u):
    for t in (math.inf, -math.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LevelOutOfRange, match=f"level {t} "):
                entry(body, u, t)
    if entry is not section_diameter:
        with pytest.raises(LevelOutOfRange, match="level inf "):
            entry(body, u, np.array([0.0, math.inf]))


# (body, unit normal, a finite level at an end of the admissible interval or
# beyond it), where section_diameter answered a value or DegenerateSection
FINITE_OUT_OF_RANGE_CASES = [
    (unit_sphere(center=[0.0, 0.0, 3.0]),
     np.array([0.10284860274165833, -0.5251933749582453, 0.8447449815264111]), 3.534234944579233),
    (unit_sphere(), [0.0, 0.0, 1.0], 2.0),
    (paraboloid_epigraph([1.0, 0.7]), [0.0, 0.0, 1.0], -1.0),
    (unit_disk(), [0.0, 1.0], 3.0),
    (hyperboloid_sheet([1.0, 1.4]), [0.0, 0.0, 1.0], 0.5),
]


@pytest.mark.parametrize("entry", [section_stats, section_diameter])
@pytest.mark.parametrize("body, u, t", FINITE_OUT_OF_RANGE_CASES)
def test_finite_levels_outside_the_interval_are_out_of_range(entry, body, u, t):
    with pytest.raises(LevelOutOfRange, match=f"level {t} outside admissible interval"):
        entry(body, u, t)


# the six kinds; the bodies and normals on which an entry once answered NaN
# or a root-finder message at a support level (on the sphere at (0, 0, 3)
# the first normal, on the shifted paraboloid the second); the disk of the
# cut-gradient tests; and a p = 3 superellipsoid in 3D
EDGE_BODIES = [
    ellipsoid([1.0, 2.0, 0.5]),
    paraboloid_epigraph([1.0, 0.7]),
    hyperboloid_sheet([1.0, 1.4]),
    circular_cone(1.0, dim=3),
    function_epigraph("exp"),
    superellipsoid(4.0),
    unit_sphere(center=[0.0, 0.0, 3.0]),
    paraboloid_epigraph([1.0, 0.7], shift=[0.0, 0.0, 1.0]),
    unit_disk(center=[0.0, 3.0]),
    superellipsoid(3.0, dim=3),
]
EDGE_NORMALS = [np.array([0.10284860274165833, -0.5251933749582453, 0.8447449815264111]),
                np.array([0.5188843876181449, 0.007707603887199183, 0.8548096777227436])]


def _edge_cases(n_drawn=3, seed=13):
    """(body, u, t): per body n_drawn random normals with bounded sections
    and the EDGE_NORMALS of its dimension that have them; per normal each
    end of admissible_levels, one ulp inside each finite end, +-inf and NaN."""
    rng = np.random.default_rng(seed)
    for body in EDGE_BODIES:
        normals = [u for u in EDGE_NORMALS if len(u) == body.ambient_dim and section_bounded(body, u)]
        while len(normals) < len(EDGE_NORMALS) + n_drawn:
            u = rng.normal(size=body.ambient_dim)
            if section_bounded(body, u / np.linalg.norm(u)):
                normals.append(u / np.linalg.norm(u))
        for u in normals:
            lo, hi = admissible_levels(body, u)
            ulp_in = [math.nextafter(lo, hi) if math.isfinite(lo) else lo,
                      math.nextafter(hi, lo) if math.isfinite(hi) else hi]
            for t in [lo, hi] + ulp_in + [math.inf, -math.inf, math.nan]:
                yield body, u, t


def test_every_section_entry_answers_at_the_edges_of_its_levels():
    # a finite value, a typed error, or a ValueError that names the level;
    # never NaN, a warning or a message from inside the root-finder
    wrong = []
    for body, u, t in _edge_cases():
        for entry in (section_stats, section_measure, section_diameter):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    out = entry(body, u, t)
                except GeometryError:
                    continue
                except (ValueError, RuntimeWarning) as e:
                    if not (isinstance(e, ValueError) and "level" in str(e)):
                        wrong.append((entry.__name__, body.kind, u, t, repr(e)))
                    continue
            if isinstance(out, sections.SectionStats):
                out = [out.measure, out.err_estimate, *out.centroid]
            if not np.all(np.isfinite(out)):
                wrong.append((entry.__name__, body.kind, u, t, out))
    assert wrong == []


# (body, unit normal) pairs with bounded sections, one per kind and dimension
LEVEL_BATCHES = [
    (ellipsoid([1.0, 2.0, 0.5], center=[0.1, 0.2, 0.3]), np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)),
    (paraboloid_epigraph([1.0, 0.3], shift=[0.0, 1.0, -2.0]), np.array([0.3, -0.2, 1.0]) / math.sqrt(1.13)),
    (hyperboloid_sheet([1.0, 2.0]), np.array([0.0, 0.28, 0.96])),
    (superellipsoid(3.0, dim=3), np.array([0.0, 0.0, 1.0])),
    (ellipsoid([2.0, 0.7], center=[0.4, -1.1]), np.array([0.6, 0.8])),
    (function_epigraph("cosh"), np.array([-0.6, -0.8])),
]


def _finite_levels(body, u, fracs):
    lo, hi = admissible_levels(body, u)
    if not math.isfinite(hi):
        hi = lo + 5.0
    if not math.isfinite(lo):
        lo = hi - 5.0
    return lo + np.asarray(fracs) * (hi - lo)


def _assert_batch_is_scalar_calls(body, u, levels):
    batch = section_stats(body, u, levels)
    measures = section_measure(body, u, levels)
    assert batch.measure.shape == batch.n_evals.shape == batch.converged.shape == (len(levels),)
    for i, t in enumerate(levels):
        one = section_stats(body, u, t)
        assert batch.t[i] == one.t
        assert batch.measure[i] == one.measure
        assert np.array_equal(batch.centroid[i], one.centroid)
        assert batch.err_estimate[i] == one.err_estimate
        assert batch.n_evals[i] == one.n_evals
        assert batch.converged[i] == one.converged
        assert measures[i] == section_measure(body, u, t)


@pytest.mark.parametrize("body,u", LEVEL_BATCHES,
                         ids=[f"{b.tag or b.kind}-{b.ambient_dim}d" for b, _ in LEVEL_BATCHES])
def test_level_array_is_bitwise_the_scalar_calls(body, u):
    _assert_batch_is_scalar_calls(body, u, _finite_levels(body, u, [0.02, 0.3, 0.5, 0.71, 0.97]))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(LEVEL_BATCHES),
       st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6))
def test_random_level_sets_are_bitwise_the_scalar_calls(case, fracs):
    body, u = case
    _assert_batch_is_scalar_calls(body, u, _finite_levels(body, u, fracs))


def test_node_cap_is_flagged(monkeypatch):
    e = ellipsoid([1.0, 2.0, 0.5])
    u = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    assert section_stats(e, u, 0.2).converged is True
    # an oblate section and a tolerance the 64-node rule cannot meet
    monkeypatch.setattr(sections, "_MAX_POLAR_NODES", 64)
    st = section_stats(e, u, 0.2, rtol=1e-14)
    assert st.converged is False
    assert not section_stats(e, u, np.array([-0.2, 0.2]), rtol=1e-14).converged.any()
    assert section_stats(unit_disk(), [0.0, 1.0], 0.3, rtol=1e-14).converged is True


def test_3d_error_estimate_bounds_the_true_error():
    # ellipsoid sections in closed form: with D = diag(a^2) and h^2 = u.Du,
    # area pi a1 a2 a3 / h (1 - t^2 / h^2) and centroid t Du / h^2
    a = np.array([1.0, 2.0, 1.5])
    e = ellipsoid(a)
    rng = np.random.default_rng(0)
    for _ in range(100):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        h2 = float(u @ (a ** 2 * u))
        t = rng.uniform(-0.95, 0.95) * math.sqrt(h2)
        st = section_stats(e, u, t)
        area = math.pi * float(np.prod(a)) / math.sqrt(h2) * (1.0 - t * t / h2)
        centroid = t * a ** 2 * u / h2
        err = abs(st.measure - area) + float(np.linalg.norm(st.centroid - centroid))
        assert err <= st.err_estimate


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(LEVEL_BATCHES),
       st.lists(st.tuples(st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3),
                          st.floats(0.01, 0.99), st.sampled_from([1e-6, 1e-8, 1e-10])),
                min_size=1, max_size=6))
def test_normal_per_level_is_bitwise_the_single_normal_calls(case, planes):
    # each level tilts the case's normal a little, keeping its sections bounded
    body, u0 = case
    normals, levels, rtols = [], [], []
    for tilt, frac, rtol in planes:
        u = u0 + np.array(tilt[:len(u0)])
        u /= np.linalg.norm(u)
        normals.append(u)
        levels.append(float(_finite_levels(body, u, frac)))
        rtols.append(rtol)
    measures = section_measure(body, np.array(normals), np.array(levels), rtol=np.array(rtols))
    assert measures.shape == (len(planes),)
    for i, (u, t, rtol) in enumerate(zip(normals, levels, rtols)):
        assert measures[i] == section_measure(body, u, t, rtol=rtol)


def test_normals_per_level_are_checked():
    up = np.array([[0.0, 0.0, 1.0]] * 2)
    for levels in (0.1, np.array([0.1]), np.array([0.1, 0.2, 0.3])):
        with pytest.raises(ValueError, match="one normal per level|1-D array of L levels"):
            section_measure(unit_sphere(), up, levels)
    with pytest.raises(ValueError, match="unit"):
        section_measure(unit_sphere(), np.array([[0.0, 0.0, 1.0], [0.0, math.nan, 1.0]]),
                        np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match="one normal"):
        section_stats(unit_sphere(), up, np.array([0.1, 0.2]))


@pytest.mark.parametrize("rtol", [math.nan, 0.0, -1.0, 1.0, math.inf])
def test_rtol_outside_the_unit_interval_is_refused(rtol):
    # a NaN or non-positive rtol never stops the polar rule short of its node cap
    u = np.array([0.0, 0.6, 0.8])
    with pytest.raises(ValueError, match="rtol"):
        section_stats(unit_sphere(), u, 0.3, rtol=rtol)
    with pytest.raises(ValueError, match="rtol"):
        section_stats(unit_disk(), [0.0, 1.0], np.array([0.1, 0.3]), rtol=rtol)
    levels, rtols = np.array([-0.2, 0.1, 0.4]), np.array([1e-8, rtol, 1e-6])
    with pytest.raises(ValueError, match="rtol"):
        section_measure(unit_sphere(), u, levels, rtol=rtols)
    with pytest.raises(ValueError, match="rtol"):
        section_measure(unit_sphere(), np.array([u, u, [0.0, 0.0, 1.0]]), levels, rtol=rtols)


# (body, the normal of the stats level, a second normal for volume levels)
MIXED_BATCHES = [
    (unit_sphere(center=[0.0, 0.0, 3.0]), np.array([0.05, 0.1, 0.4]) / math.sqrt(0.1725),
     np.array([0.0, 0.0, 1.0])),
    (paraboloid_epigraph([1.0, 0.7], shift=[0.0, 0.0, 1.0]),
     np.array([0.1, -0.2, 0.4]) / math.sqrt(0.21), np.array([0.0, 0.28, 0.96])),
    (unit_disk(center=[0.0, 3.0]), np.array([0.1, 0.35]) / math.sqrt(0.1325), np.array([0.6, 0.8])),
    # not a quadric: its levels refine for different numbers of rounds
    (superellipsoid(4.0, dim=3), np.array([0.1, 0.2, 0.9]) / math.sqrt(0.86),
     np.array([0.0, 0.0, 1.0])),
]


@pytest.mark.parametrize("body,u,w", MIXED_BATCHES,
                         ids=[f"{b.kind}-{b.ambient_dim}d" for b, _, _ in MIXED_BATCHES])
def test_mixed_kernel_batch_is_each_section_alone_bitwise(body, u, w):
    # volume levels on two normals at three tolerances, one level with its
    # moments alone, and one with its moments and diameter, in one batch
    fracs = [0.03, 0.4, 0.8, 0.55, 0.25, 0.97]
    levels = np.concatenate([_finite_levels(body, w, fracs[:3]),
                             _finite_levels(body, u, fracs[3:])])
    normals, which = np.array([w, u]), np.array([0, 0, 0, 1, 1, 1])
    rtols = np.array([1e-6, 1e-12, 1e-9, 1e-6, 1e-12, 1e-9])
    moments = np.array([False, False, False, False, True, True])
    diameter = np.array([False, False, False, False, False, True])
    batch = sections._sections(body, normals, which, levels, rtols, moments, diameter)
    measure, centroid, err, n_evals, converged, diam, inside = batch
    assert inside.all()
    for i in np.flatnonzero(~moments):
        assert measure[i] == section_measure(body, normals[which[i]], levels[i], rtol=rtols[i])
    for i in np.flatnonzero(moments):
        one = section_stats(body, u, levels[i], rtol=rtols[i])
        assert measure[i] == one.measure
        assert np.array_equal(centroid[i], one.centroid)
        assert err[i] == one.err_estimate
        assert n_evals[i] == one.n_evals
        assert converged[i] == one.converged
    assert diam.shape == (1,) and diam[0] == section_diameter(body, u, levels[-1])
    # one more level, just below the body, whose anchor is not inside it:
    # the kernel scores it 0 and every other level comes out as before
    g = 1
    *grazed, grazed_diam, grazed_inside = sections._sections(
        body, normals, np.insert(which, g, 0), np.insert(levels, g, _finite_levels(body, w, -0.01)),
        np.insert(rtols, g, 1e-6), np.insert(moments, g, False), np.insert(diameter, g, False))
    assert grazed[0][g] == 0.0 and np.array_equal(grazed_inside, np.arange(len(levels) + 1) != g)
    for name, before, after in zip(("measure", "centroid", "err", "n_evals", "converged"), batch, grazed):
        assert np.array_equal(np.delete(after, g, axis=0), before), name
    assert np.array_equal(grazed_diam, diam)


def test_centroid_stops_on_its_own_gap():
    # on this tilted p = 2.01 section the nested polar rules agree on the
    # measure at a few hundred nodes, long before they agree on the first
    # moments: stopping on the measure alone misses rtol on the measure and
    # reports an err below the centroid's real error
    u = np.array([-0.965, -0.2564, 0.0547])
    u /= np.linalg.norm(u)
    t, rtol = -0.6764, 1e-7
    area, centroid = superellipsoid_section_stats(2.01, u, t)
    st = section_stats(superellipsoid(2.01, dim=3), u, t, rtol=rtol)
    assert st.converged
    assert st.measure == pytest.approx(area, rel=rtol)
    assert np.linalg.norm(st.centroid - centroid) <= min(st.err_estimate, rtol)


def test_moment_test_scales_with_the_body():
    # the moments are lengths cubed and the measure an area: scaling the body
    # by a power of 2 must not change when the rule stops, nor err / lam^2
    # (below lam = 1 the centring probes start at body.scale, which floors at
    # 1, so the hits and n_evals differ there at rounding level)
    u = np.array([1.0, 2.0, 2.0]) / 3.0
    runs = {lam: section_stats(ellipsoid(np.array([1.0, 2.0, 3.0]) * lam), u, 0.3 * lam, rtol=1e-12)
            for lam in (2.0 ** -14, 1.0, 2.0 ** 14)}
    assert all(st.converged for st in runs.values())
    one, big = runs[1.0], runs[2.0 ** 14]
    assert big.n_evals == one.n_evals and big.err_estimate / 2.0 ** 28 == one.err_estimate
    for lam, st in runs.items():
        assert st.err_estimate / lam ** 2 == pytest.approx(one.err_estimate, rel=1e-2)
        assert st.measure / lam ** 2 == pytest.approx(one.measure, rel=1e-12)
        assert np.allclose(st.centroid / lam, one.centroid, rtol=0.0, atol=1e-12)


def _quadric(body):
    """(P, g, c) with body = {y : y.P y + g.y + c <= 0} about its translation,
    on the side of the upper sheet for the hyperboloid and the cone."""
    p = np.asarray(body.params, dtype=float)
    if body.kind == "ellipsoid":
        return np.diag(1.0 / p ** 2), np.zeros(3), -1.0
    if body.kind == "elliptic-paraboloid-epigraph":
        return np.diag([p[0], p[1], 0.0]), np.array([0.0, 0.0, -1.0]), 0.0
    if body.kind == "hyperboloid-upper-sheet":
        return np.diag([1.0 / p[0] ** 2, 1.0 / p[1] ** 2, -1.0]), np.zeros(3), 1.0
    assert body.kind == "circular-cone"
    return np.diag([p[0] ** 2, p[0] ** 2, -1.0]), np.zeros(3), 0.0


def _plane_ellipse(body, u, t):
    """Centre and semi-axes (a >= b) of the section {<u,x> = t} of a quadric body."""
    P, g, c = _quadric(body)
    e1, e2 = sections._plane_basis(u)
    E = np.stack([e1, e2], axis=1)
    y0 = t * u - np.asarray(body.translation)
    M = E.T @ P @ E
    h = E.T @ (2.0 * P @ y0 + g)
    s = np.linalg.solve(2.0 * M, -h)
    k = -(y0 @ P @ y0 + g @ y0 + c + 0.5 * h @ s)
    lam = np.linalg.eigvalsh(M)
    return t * u + E @ s, math.sqrt(k / lam[0]), math.sqrt(k / lam[1])


# (quadric body, normals, levels) with bounded elliptic sections
QUADRIC_SECTIONS = [
    (ellipsoid([1.0, 2.0, 3.0], center=[0.1, 0.2, -0.3]), [[1.0, 2.0, 2.0], [0.3, -0.5, 0.8]],
     [-1.0, 0.2, 1.5]),
    (paraboloid_epigraph([1.0, 0.7], shift=[0.0, 0.0, 1.0]), [[0.1, -0.2, 0.4], [-0.2, 0.25, 0.3]],
     [1.2, 2.0, 4.0]),
    (hyperboloid_sheet([1.0, 1.4]), [[0.1, -0.2, 0.9], [0.2, 0.1, 1.0]], [1.5, 3.0, 6.0]),
    (circular_cone(2.0, dim=3, shift=[0.3, -0.2, 0.5]), [[0.1, -0.2, 0.9], [-0.3, 0.1, 1.0]],
     [1.0, 2.5, 6.0]),
]


@pytest.mark.parametrize("body,normals,levels", QUADRIC_SECTIONS,
                         ids=[b.kind for b, _, _ in QUADRIC_SECTIONS])
def test_quadric_sections_centre_on_their_ellipse(body, normals, levels):
    # one centring batch: the anchor lands on the closed-form centre, and the
    # ellipse through the 8 hits guesses the first polar radii to rounding
    for u in normals:
        u = np.asarray(u) / np.linalg.norm(u)
        ts = np.array(levels)
        anchors, basis, guide, _ = sections._centred_sections(
            body, u[None], np.zeros(len(ts), dtype=np.intp), ts)
        n = sections._FIRST_NODES
        guess = sections._ellipse_radii(guide, n)
        r, _ = sections._polar_radii(body, anchors, sections._polar_dirs(*basis, n), guess)
        for i, t in enumerate(ts):
            centre, _, _ = _plane_ellipse(body, u, t)
            assert np.linalg.norm(anchors[i] - centre) <= 1e-12 * body.scale
        assert np.max(np.abs(guess - r) / r) <= 1e-10


def test_non_quadric_section_refuses_the_conic():
    # the p = 4 superellipsoid's sections are no conics: the anchor falls back
    # to the chords' midpoints, and the section is as exact as ever
    body, u, t = superellipsoid(4.0, dim=3), np.array([0.3, -0.5, 0.8]), 0.25
    u /= np.linalg.norm(u)
    normals, which, ts, _ = sections._planes(u, t)
    anchors = sections._section_anchors(body, u, ts)
    e1, e2 = sections._plane_basis(u)
    dirs = sections._OCTAGON[0] * e1[:, None, None] + sections._OCTAGON[1] * e2[:, None, None]
    r, _ = sections._polar_radii(body, anchors, dirs, None)
    assert not sections._section_conics(r)[2].any()
    area, centroid = superellipsoid_section_stats(4.0, u, t)
    st = section_stats(body, u, t, rtol=1e-9)
    assert st.converged
    assert st.measure == pytest.approx(area, rel=1e-9)
    assert np.linalg.norm(st.centroid - centroid) <= 1e-9


def test_section_diameter_against_the_plane_ellipse():
    # from the ellipse's centre the widest of 128 opposite-radius sums is
    # 2a cos-close to the major axis: at most half a node spacing off it
    body = paraboloid_epigraph([1.0, 0.7], shift=[0.0, 0.0, 1.0])
    for a in ([0.1, -0.2, 0.4], [0.3, 0.1, 0.4], [-0.2, 0.25, 0.3]):
        u = np.array(a) / np.linalg.norm(a)
        for t in (1.2, 2.0, 4.0):
            _, major, minor = _plane_ellipse(body, u, t)
            bound = ((major / minor) ** 2 - 1.0) * (math.pi / sections._DIAMETER_NODES) ** 2 / 2.0
            d = section_diameter(body, u, t)
            assert 2.0 * major * (1.0 - bound) <= d <= 2.0 * major * (1.0 + 1e-12)


def test_3d_sections_cast_two_ray_batches(monkeypatch):
    calls = []
    ray_hits_batch = sections.ray_hits_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return ray_hits_batch(*args, **kwargs)

    monkeypatch.setattr(sections, "ray_hits_batch", counted)
    # one centring batch, then one polar batch that meets rtol on its own
    u = np.array([0.1, -0.2, 0.9]) / math.sqrt(0.86)
    for body in [b for b, _, _ in QUADRIC_SECTIONS[1:]] + [unit_sphere()]:
        t = float(_finite_levels(body, u, 0.5))
        for entry in (section_stats, section_diameter):
            calls.clear()
            entry(body, u, t)
            assert len(calls) == 2
