import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgeom import (
    BodySpec,
    admissible_levels,
    circular_cone,
    cone_direction_check,
    cut_gradient,
    cut_volume,
    ellipsoid,
    function_epigraph,
    halfspace_cut_volume,
    hyperboloid_sheet,
    paraboloid_epigraph,
    sample_levels,
    sccp_residual,
    section_bounded,
    section_diameter,
    section_measure,
    section_stats,
    superellipsoid,
    unit_disk,
    unit_sphere,
)
from ccgeom import bodies, sections
from ccgeom.errors import DegenerateSection, GeometryError, LevelOutOfRange, UnboundedSection

from oracles import (
    chord_length_brute,
    chord_midpoint_brute,
    plane_ellipse,
    superellipsoid_section_stats,
)

EPS = np.finfo(float).eps


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
    # the plane grazes or misses the body: the section is empty, of measure 0
    for t in (1.0, 1.001):
        assert section_measure(unit_disk(), [0.0, 1.0], t) == 0.0
    assert section_measure(function_epigraph("square"), [0.0, 1.0], -0.01) == 0.0


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


def test_section_measure_is_defined_just_above_the_support_level():
    # a few ulps above the support level F finds the spine anchor inside,
    # but the centred one can round outside (it does at the second level):
    # the polar rule then runs about the spine anchor, and the measure is
    # defined (a point, nearly)
    body = unit_sphere(center=[0.0, 0.0, 3.0])
    for u, t in [([-0.21552667678576967, -0.7421232379255468, 0.6346663307003015], 0.903998992100905),
                 ([-0.7867605383663435, -0.32849945163039956, 0.5225858451470228], 0.5677575354410683)]:
        u = np.array(u)
        assert 0.0 < t - admissible_levels(body, u)[0] < 4e-16
        assert 0.0 <= section_measure(body, u, t) < 1e-12
    # and on levels 1 ulp to 2^-13 above lo, on each quadric kind in 3D
    rng = np.random.default_rng(5)
    for body in (unit_sphere(center=[0.0, 0.0, 3.0]),
                 ellipsoid([1.3, 0.8, 1.0], center=[0.2, -0.1, 0.4]),
                 paraboloid_epigraph([1.0, 0.7]), hyperboloid_sheet([1.0, 1.4])):
        for _ in range(3):
            u = rng.normal(size=3)
            u[2] = abs(u[2]) + 2.0
            u /= np.linalg.norm(u)
            if not section_bounded(body, u):
                continue
            lo = admissible_levels(body, u)[0]
            levels = lo + max(abs(lo), 1.0) * 2.0 ** -np.arange(13.0, 53.0, 6.0)
            measure = section_measure(body, u, np.append(np.nextafter(lo, math.inf), levels))
            assert np.all((measure >= 0.0) & (measure < 1e-2)), (u, measure)


@pytest.mark.parametrize("body, u, t", FINITE_OUT_OF_RANGE_CASES)
def test_section_measure_is_defined_outside_the_interval(body, u, t):
    # beyond the interval the plane misses the body: measure 0; at a support
    # level the section is a point, of a measure below section_stats' threshold
    lo, hi = admissible_levels(body, u)
    measure = section_measure(body, u, t)
    if t in (lo, hi):
        assert 0.0 <= measure < 1e-12 * body.scale ** (body.ambient_dim - 1)
    else:
        assert measure == 0.0


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


# every body kind and function tag, in 2D and in 3D where the kind allows
SHARED_INTERVAL_BODIES = [
    ("ellipsoid", (1.3, 0.8), 2, None), ("ellipsoid", (1.3, 0.8, 1.1), 3, None),
    ("elliptic-paraboloid-epigraph", (0.7,), 2, None),
    ("elliptic-paraboloid-epigraph", (1.0, 0.7), 3, None),
    ("hyperboloid-upper-sheet", (1.2,), 2, None), ("hyperboloid-upper-sheet", (1.0, 1.4), 3, None),
    ("circular-cone", (1.7,), 2, None), ("circular-cone", (0.6,), 3, None),
    ("superellipsoid", (4.0,), 2, None), ("superellipsoid", (3.0,), 3, None),
] + [("function-epigraph", (), 2, tag) for tag in ("square", "quartic", "exp", "cosh")]


def test_section_entries_check_the_interval_admissible_levels_reports():
    # the levels 1e-9 scale inside each finite end of admissible_levels pass
    # the check of section_stats and section_diameter, and the next float
    # outward fails it, bitwise: they read the same supports, also on a
    # normal whose float norm is not 1, where rescaling u moved them
    rng = np.random.default_rng(42)
    norms = []
    for kind, params, d, tag in SHARED_INTERVAL_BODIES:
        for shift in (0.0, 2.5):
            body = BodySpec(kind, params, shift * np.eye(d)[-1], ambient_dim=d, tag=tag)
            buf = 1e-9 * body.scale
            drawn = 0
            while drawn < 4:
                u = rng.normal(size=d)
                u /= np.linalg.norm(u)
                if not section_bounded(body, u):
                    continue
                drawn += 1
                norms.append(float(np.sqrt(np.vecdot(u, u))))
                lo, hi = admissible_levels(body, u)
                for inside, way in ((lo + buf, -math.inf), (hi - buf, math.inf)):
                    if not math.isfinite(inside):
                        continue
                    for entry in (section_stats, section_diameter):
                        try:
                            entry(body, u, inside)
                        except DegenerateSection:
                            # the level is checked in, but a 3D cone's
                            # section next to its apex is below the threshold
                            assert kind == "circular-cone" and d == 3
                        with pytest.raises(LevelOutOfRange):
                            entry(body, u, math.nextafter(inside, way))
    assert any(n != 1.0 for n in norms) and any(n == 1.0 for n in norms)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# normals on the boundary of the recession cone's polar, where a recession
# direction lies in the plane: first the [1, 1.4] sheet's m(u) = 0 normal
# (1, 1, sqrt(2.96)) rounded to m(u) = 1.1e-16, as cut_volume renormalises
# it, on which section_measure answered 1e13 and cut_volume ran for minutes;
# then that sheet's m(u) = 0, the paraboloid's horizontal normals, the slope-1
# cone's (+-1, 0, +-1)/sqrt(2), exp's (1, 0), (0, -1) and (-1, 0) and the
# hyperbola's +-(1, 1)/sqrt(2)
POLAR_EDGE_NORMALS = [
    (hyperboloid_sheet([1.0, 1.4]), [[0.4490132550669373, 0.4490132550669373, 0.7725116138598741],
                                     [1.0, 1.0, math.sqrt(2.96)], [1.0, 0.0, 1.0], [0.0, -1.0, 1.4]]),
    (paraboloid_epigraph([1.0, 0.7]), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, -1.0, 0.0]]),
    (circular_cone(1.0, dim=3), [[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 0.0, -1.0]]),
    (function_epigraph("exp"), [[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]]),
    (hyperboloid_sheet([1.0]), [[1.0, 1.0], [-1.0, -1.0]]),
]


def _empty_infinite_or_unbounded(volume):
    """Whether a cut volume call answers 0, inf or UnboundedSection."""
    try:
        return volume() in (0.0, math.inf)
    except UnboundedSection:
        return True


@pytest.mark.parametrize("body, normals", POLAR_EDGE_NORMALS)
def test_every_entry_answers_on_the_boundary_of_the_polar(body, normals):
    # sections with such a normal are unbounded: every section entry says
    # UnboundedSection at a finite level, and a cut volume is 0 or inf where
    # the cone decides it, else its sections raise UnboundedSection
    for u in map(_unit, normals):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not section_bounded(body, u)
            for t in (-1.0, 0.0, 1.0, 3.0):
                for entry in (section_measure, section_stats, section_diameter):
                    with pytest.raises(UnboundedSection):
                        entry(body, u, t)
                assert _empty_infinite_or_unbounded(lambda: halfspace_cut_volume(body, u, t))
                assert _empty_infinite_or_unbounded(lambda: cut_volume(body, u / t if t else u))
            for entry in (admissible_levels, sample_levels, sccp_residual, cone_direction_check):
                with pytest.raises(GeometryError):
                    entry(body, u)
            with pytest.raises(GeometryError):
                cut_gradient(body, u)


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


@pytest.mark.parametrize("body,u", LEVEL_BATCHES,
                         ids=[f"{b.tag or b.kind}-{b.ambient_dim}d" for b, _ in LEVEL_BATCHES])
def test_a_handed_plane_setup_is_the_kernels_own_bitwise(body, u, monkeypatch):
    # the set-up works row by row, so its rows handed on give every section
    # bitwise as the kernel's own set-up, and the kernel sets nothing up
    w = u + 0.05 * np.eye(len(u))[0]  # a second normal near u
    w /= np.linalg.norm(w)
    levels = _finite_levels(body, u, [0.2, 0.5, 0.7])
    both = np.array([u, u, w, w])
    ts = np.concatenate((levels[:2], _finite_levels(body, w, [0.3, 0.6])))
    own = (section_stats(body, u, levels), section_measure(body, both, ts))
    setup = sections._plane_setup(body, np.array([u, w]))
    calls = []
    gauss_map = bodies.BodySpec.gauss_map
    monkeypatch.setattr(bodies.BodySpec, "gauss_map",
                        lambda self, U: calls.append(len(U)) or gauss_map(self, U))
    handed = (section_stats(body, setup.rows([0]), levels),
              section_measure(body, setup.rows([0, 0, 1, 1]), ts))
    assert calls == []
    for field in ("measure", "centroid", "err_estimate", "n_evals", "converged"):
        assert np.array_equal(getattr(handed[0], field), getattr(own[0], field)), field
    assert np.array_equal(handed[1], own[1])


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
    # the p = 2.01 superellipsoid is only C^2 across the coordinate planes, so
    # its polar rule converges algebraically: 64 nodes cannot meet 1e-10
    body = superellipsoid(2.01, dim=3)
    u = np.array([0.3, -0.5, 0.8]) / math.sqrt(0.98)
    assert section_stats(body, u, 0.25, rtol=1e-10).converged is True
    monkeypatch.setattr(sections, "_MAX_POLAR_NODES", 64)
    st = section_stats(body, u, 0.25, rtol=1e-10)
    assert st.converged is False
    assert not section_stats(body, u, np.array([-0.25, 0.25]), rtol=1e-10).converged.any()
    # an oblate quadric section meets 1e-14 with the first batch alone
    monkeypatch.setattr(sections, "_MAX_POLAR_NODES", sections._FIRST_NODES)
    e = ellipsoid([1.0, 2.0, 0.5])
    assert section_stats(e, np.ones(3) / math.sqrt(3.0), 0.2, rtol=1e-14).converged is True
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
    u = np.array([1.0, 2.0, 2.0]) / 3.0
    runs = {lam: section_stats(ellipsoid(np.array([1.0, 2.0, 3.0]) * lam), u, 0.3 * lam, rtol=1e-12)
            for lam in (2.0 ** -14, 1.0, 2.0 ** 14)}
    assert all(st.converged for st in runs.values())
    one = runs[1.0]
    for lam, st in runs.items():
        assert st.n_evals == one.n_evals and st.err_estimate / lam ** 2 == one.err_estimate
        assert st.measure / lam ** 2 == pytest.approx(one.measure, rel=1e-12)
        assert np.allclose(st.centroid / lam, one.centroid, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("axes, center, u, levels", [
    ([1.0, 0.7], [0.3, -0.2], [0.6, 0.8], [0.1, -0.3, 0.5]),
    ([1.3, 0.8, 1.0], [0.3, -0.2, 0.1], [0.6, 0.0, 0.8], [0.1, -0.3, 0.5]),
], ids=["2d", "3d"])
def test_sections_are_equivariant_under_power_of_two_scales(axes, center, u, levels):
    # every quantity scales exactly under lam = 2^k: the ray starts are the
    # roots of each ray's quadratic, free of the body scale's floor of 1,
    # so each level's measure / lam^(d-1), centroid / lam and n_evals are
    # bitwise those at lam = 1
    d = len(axes)
    runs = {lam: section_stats(ellipsoid(np.array(axes) * lam, center=np.array(center) * lam),
                               u, np.array(levels) * lam)
            for lam in (2.0 ** -14, 1.0, 2.0 ** 14)}
    one = runs[1.0]
    for lam, st in runs.items():
        assert np.array_equal(st.measure / lam ** (d - 1), one.measure), lam
        assert np.array_equal(st.centroid / lam, one.centroid), lam
        assert np.array_equal(st.n_evals, one.n_evals), lam


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
    # read off the kind's form, the anchor lands on the section's centre to
    # rounding, and the guide's axes g1, g2 map the unit circle onto the
    # section's ellipse, so every radius in the guided angle is 1 to rounding
    for u in normals:
        u = np.asarray(u) / np.linalg.norm(u)
        ts = np.array(levels)
        anchors, _, basis, (g1, g2), _, formed = sections._centred_sections(
            body, u[None], np.zeros(len(ts), dtype=np.intp), ts)
        assert formed
        n = sections._FIRST_NODES
        dirs = sections._polar_dirs(g1, g2, n)
        r, _ = sections._polar_radii(body, anchors, dirs, np.ones(len(ts) * n))
        for i, t in enumerate(ts):
            centre, major, minor, A = plane_ellipse(body, u, t)
            assert np.linalg.norm(anchors[i] - centre) <= 16.0 * EPS * body.scale
            # conjugate semi-diameters: G A G^T = I, and they span the area
            # of the axes' rectangle
            G = np.stack([g1[i], g2[i]])
            assert np.max(np.abs(G @ A @ G.T - np.eye(2))) <= 16.0 * EPS
            assert np.linalg.norm(np.cross(g1[i], g2[i])) == pytest.approx(major * minor, rel=1e-10)
        assert np.max(np.abs(r - 1.0)) <= 1e-10


def test_plane_basis_is_orthonormal_and_normal_to_u():
    # e2 = u x e1 from scalar products is bitwise np.cross's, on seeded
    # normals, the coordinate axes and their negatives, in one call, and
    # each row is bitwise its lone call's
    w = np.random.default_rng(12).normal(size=(200, 3))
    normals = np.vstack([w / np.linalg.norm(w, axis=1, keepdims=True), np.eye(3), -np.eye(3)])
    E1, E2 = sections._plane_basis(normals)
    assert np.array_equal(E2, np.cross(normals, E1))
    for u, e1, e2 in zip(normals, E1, E2):
        lone = sections._plane_basis(u[None])
        assert np.array_equal(lone[0][0], e1) and np.array_equal(lone[1][0], e2)
        # e1 = e_k - u_k u bitwise, e_k the first of u's smallest entries
        k = int(np.argmin(np.abs(u)))
        e = np.eye(3)[k] - u * u[k]
        assert np.array_equal(e1, e / np.linalg.norm(e))
        E = np.stack([u, e1, e2])
        assert np.allclose(E @ E.T, np.eye(3), rtol=0.0, atol=1e-15)
    assert np.array_equal(sections._plane_basis(np.array([[0.6, 0.8]]))[0], [[-0.8, 0.6]])


def test_non_quadric_section_refuses_the_conic():
    # the p = 4 superellipsoid has no form: its anchor moves to the chords'
    # midpoints, and the section is as exact as ever
    body, u, t = superellipsoid(4.0, dim=3), np.array([0.3, -0.5, 0.8]), 0.25
    u /= np.linalg.norm(u)
    area, centroid = superellipsoid_section_stats(4.0, u, t)
    st = section_stats(body, u, t, rtol=1e-9)
    assert st.converged
    assert st.measure == pytest.approx(area, rel=1e-9)
    assert np.linalg.norm(st.centroid - centroid) <= 1e-9


def test_section_diameter_against_the_plane_ellipse(refuse_closed_forms):
    # where F refuses the closed form, from the ellipse's centre the chords
    # on a grid of 128 nodes in the guided angle are diameters at eccentric
    # anomalies at most half a node spacing d = pi/128 off the major axis:
    # a^2 cos^2 d + b^2 sin^2 d short of a^2, that is at most
    # (1 - (b/a)^2) d^2 / 2 relative
    refuse_closed_forms()
    body = paraboloid_epigraph([1.0, 0.7], shift=[0.0, 0.0, 1.0])
    for a in ([0.1, -0.2, 0.4], [0.3, 0.1, 0.4], [-0.2, 0.25, 0.3]):
        u = np.array(a) / np.linalg.norm(a)
        for t in (1.2, 2.0, 4.0):
            _, major, minor, _ = plane_ellipse(body, u, t)
            bound = (1.0 - (minor / major) ** 2) * (math.pi / sections._DIAMETER_NODES) ** 2 / 2.0
            d = section_diameter(body, u, t)
            assert 2.0 * major * (1.0 - bound) <= d <= 2.0 * major * (1.0 + 1e-12)


def test_3d_sections_cast_two_ray_batches(monkeypatch, refuse_closed_forms):
    calls = []
    ray_hits_batch = sections.ray_hits_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return ray_hits_batch(*args, **kwargs)

    monkeypatch.setattr(sections, "ray_hits_batch", counted)
    # a quadric is centred from its form, with no rays, and takes its
    # fields in closed form, with none either; with its closed form refused,
    # its one polar batch meets rtol on its own. The p = 2 superellipsoid, a
    # ball without a form, first casts its centring batch (its spine anchors
    # are its sections' centres, so its polar batch meets rtol on its own too)
    u = np.array([0.1, -0.2, 0.9]) / math.sqrt(0.86)
    quadrics = [b for b, _, _ in QUADRIC_SECTIONS[1:]] + [unit_sphere()]
    for refused in (False, True):
        refuse_closed_forms(refused)
        for body, batches in [(b, int(refused)) for b in quadrics] + [
                (superellipsoid(2.0, dim=3), 2)]:
            t = float(_finite_levels(body, u, 0.5))
            for entry in (section_stats, section_diameter):
                calls.clear()
                entry(body, u, t)
                assert len(calls) == batches, (body.kind, entry.__name__, refused)


def _profiled_calls(fn):
    """fn's result and the calls (Python plus C) that sys.setprofile sees it
    make, after one call unprofiled (which pays any one-off set-up, such as
    a body's cached properties)."""
    fn()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, calls


@pytest.mark.parametrize("body,normals,levels", QUADRIC_SECTIONS[:3],
                         ids=[b.kind for b, _, _ in QUADRIC_SECTIONS[:3]])
def test_diameter_grid_is_built_only_for_a_diameter_level(monkeypatch, refuse_closed_forms, body,
                                                          normals, levels):
    # with the closed forms refused, a batch with no diameter level builds
    # no grid, and so makes fewer calls; its one ray batch is the 16 L
    # first-batch rays alone, whose radii are bitwise those of the same
    # batch with one diameter level, and every other result is bitwise too
    refuse_closed_forms()
    batches = []
    ray_hits_batch = sections.ray_hits_batch

    def kept(*args, **kwargs):
        out = ray_hits_batch(*args, **kwargs)
        batches.append(out[0])
        return out

    monkeypatch.setattr(sections, "ray_hits_batch", kept)
    u = np.asarray(normals[0]) / np.linalg.norm(normals[0])
    ts = np.array(levels)
    runs = []
    for diameter in (False, np.arange(len(ts)) == 1):
        out, calls = _profiled_calls(lambda: sections._sections(
            body, u[None], np.zeros(len(ts), dtype=np.intp), ts, 1e-8, True, diameter))
        # the profiled call's ray batches come after the warm-up call's
        runs.append((out, calls, batches[len(batches) // 2:]))
        batches.clear()
    (plain, plain_calls, plain_rays), (wide, wide_calls, wide_rays) = runs
    assert plain_calls < wide_calls
    first = sections._FIRST_NODES * len(ts)
    assert len(plain_rays) == len(wide_rays) == 1 and plain_rays[0].shape == (first,)
    assert np.array_equal(plain_rays[0], wide_rays[0][:first])
    for a, b in zip(plain[:5], wide[:5]):
        assert np.array_equal(a, b)
    assert plain[5].shape == (0,) and wide[5].shape == (1,)


@pytest.mark.parametrize("body,normals,levels", QUADRIC_SECTIONS[:3],
                         ids=[b.kind for b, _, _ in QUADRIC_SECTIONS[:3]])
def test_quadric_sections_converge_in_the_first_batch(monkeypatch, body, normals, levels):
    # in the guided angle a quadric's radii are all 1, so the nested rules
    # meet rtol on the first batch: a rule capped there spends the same
    # points, and the measure and centroid are within err of the closed forms
    for rtol in (1e-8, 1e-12):
        for u in normals:
            u = np.asarray(u) / np.linalg.norm(u)
            st = section_stats(body, u, np.array(levels), rtol=rtol)
            with monkeypatch.context() as m:
                m.setattr(sections, "_MAX_POLAR_NODES", sections._FIRST_NODES)
                first = section_stats(body, u, np.array(levels), rtol=rtol)
            assert first.converged.all() and np.array_equal(first.n_evals, st.n_evals)
            for i, t in enumerate(levels):
                centre, major, minor, _ = plane_ellipse(body, u, t)
                assert abs(st.measure[i] - math.pi * major * minor) <= st.err_estimate[i]
                assert np.linalg.norm(st.centroid[i] - centre) <= st.err_estimate[i]


def test_superellipsoid_sections_are_within_their_err():
    # the p = 4 sections are no conics: their rule refines from the chords'
    # guide ellipse, and still stops within err of the oracle
    body = superellipsoid(4.0, dim=3)
    rng = np.random.default_rng(11)
    for _ in range(8):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        lo, hi = admissible_levels(body, u)
        t = lo + rng.uniform(0.05, 0.95) * (hi - lo)
        area, centroid = superellipsoid_section_stats(4.0, u, t)
        st = section_stats(body, u, t, rtol=1e-9)
        assert st.converged
        assert abs(st.measure - area) <= st.err_estimate
        assert np.linalg.norm(st.centroid - centroid) <= st.err_estimate


# (quadric, shift, normal, levels above the normal's level of the shift):
# each body unmoved and moved by its shift
CLOSED_FORM_CASES = [
    (lambda c: ellipsoid([1.0, 2.0, 3.0], center=c), [0.1, 0.2, -0.3], [1.0, 2.0, 2.0],
     [-1.0, 0.2, 1.5]),
    (lambda c: paraboloid_epigraph([1.0, 0.7], shift=c), [0.3, -0.2, 1.0], [0.1, -0.2, 0.4],
     [0.2, 1.0, 3.0]),
    (lambda c: hyperboloid_sheet([1.0, 1.4], shift=c), [0.2, -0.1, 0.5], [0.1, -0.2, 0.9],
     [1.5, 3.0, 6.0]),
    (lambda c: circular_cone(2.0, dim=3, shift=c), [0.3, -0.2, 0.5], [0.1, -0.2, 0.9],
     [1.0, 2.5, 6.0]),
]
CLOSED_FORM_SECTIONS = [
    (make(c), np.array(u) / np.linalg.norm(u), np.dot(u, c) / np.linalg.norm(u) + np.array(levels))
    for make, shift, u, levels in CLOSED_FORM_CASES for c in (np.zeros(3), np.array(shift))]
CLOSED_FORM_IDS = [f"{b.kind}-{'moved' if np.any(b.translation) else 'unmoved'}"
                   for b, _, _ in CLOSED_FORM_SECTIONS]


def _kernel_calls(monkeypatch):
    """Lists that the section kernel's ray batches and defining calls append
    to, one entry (the rays, or the points) per call."""
    rays, points = [], []
    ray_hits_batch, defining = sections.ray_hits_batch, BodySpec.defining

    def batch(body, origin, directions, guess=None):
        rays.append(len(directions))
        return ray_hits_batch(body, origin, directions, guess=guess)

    def counted(self, x):
        points.append(np.size(x) // 3)
        return defining(self, x)

    monkeypatch.setattr(sections, "ray_hits_batch", batch)
    monkeypatch.setattr(BodySpec, "defining", counted)
    return rays, points


@pytest.mark.parametrize("body,u,levels", CLOSED_FORM_SECTIONS, ids=CLOSED_FORM_IDS)
def test_measure_only_quadric_levels_take_the_closed_form(monkeypatch, body, u, levels):
    # read off the guide, pi |g1 x g2| is the ellipse's area to rounding;
    # the kernel casts no ray and makes two defining calls, the spine check
    # and F's check of the closed form at the 16 first-batch nodes' two
    # probes, 33 points a level
    rays, points = _kernel_calls(monkeypatch)
    measure = section_measure(body, u, levels)
    assert rays == [] and points == [len(levels), 32 * len(levels)]
    for m, t in zip(measure, levels):
        _, major, minor, _ = plane_ellipse(body, u, t)
        assert m == pytest.approx(math.pi * major * minor, rel=1e-12, abs=0.0)
    # 33 points a level, err the polar rule's bound on radii that are 1 to
    # rounding, and each level alone bitwise the batch's
    which = np.zeros(len(levels), dtype=np.intp)
    out = sections._sections(body, u[None], which, levels, 1e-8, False)
    assert np.array_equal(out[0], measure) and np.array_equal(out[3], np.full(len(levels), 33))
    assert out[4].all() and np.array_equal(out[2], 2.0 * bodies._HIT_RTOL * measure)
    for i, t in enumerate(levels):
        assert section_measure(body, u, t) == measure[i]


@pytest.mark.parametrize("body,u,levels", CLOSED_FORM_SECTIONS, ids=CLOSED_FORM_IDS)
def test_a_level_whose_f_is_off_its_form_falls_back_to_the_polar_rule(monkeypatch, body, u,
                                                                      levels):
    # with F moved 1e-9 off the form past the first level, the closed
    # form's check fails on the other two, which give exactly the polar
    # rule's numbers about the same centred anchors (and count the check's
    # points too); the first level keeps its closed form, bitwise
    which, rtol = np.zeros(len(levels), dtype=np.intp), np.full(len(levels), 1e-8)
    closed = sections._sections(body, u[None], which, levels, rtol, False)
    split = 0.5 * (levels[0] + levels[1])
    defining = BodySpec.defining
    monkeypatch.setattr(BodySpec, "defining",
                        lambda self, x: defining(self, x) + 1e-9 * (np.asarray(x) @ u > split))
    measure, centroid, err, n_evals, converged, _, inside = sections._sections(
        body, u[None], which, levels, rtol, False)
    assert inside.all()
    assert measure[0] == closed[0][0] and np.array_equal(centroid[0], closed[1][0])
    assert n_evals[0] == 33
    anchors, _, basis, guide, _, formed = sections._centred_sections(body, u[None], which, levels)
    assert formed
    off = slice(1, None)
    ref = sections._polar_sections(body, anchors[off], basis[:, off], guide[:, off], rtol[off],
                                   np.zeros(len(levels) - 1, dtype=bool), np.zeros(0, dtype=np.intp))
    assert np.array_equal(measure[off], ref[0]) and np.array_equal(centroid[off], ref[1])
    assert np.array_equal(err[off], ref[2]) and np.array_equal(converged[off], ref[4])
    assert np.array_equal(n_evals[off], 33 + ref[3])
    # and each level alone falls back, or not, as it does in the batch
    for i, t in enumerate(levels):
        assert section_measure(body, u, t) == measure[i]


@pytest.mark.parametrize("body,u,levels", CLOSED_FORM_SECTIONS, ids=CLOSED_FORM_IDS)
def test_quadric_centroids_and_diameters_take_the_closed_form(monkeypatch, body, u, levels):
    # a level with its moments, or its diameter, takes the closed form too:
    # its centroid is the form-centred anchor and its diameter the guide
    # ellipse's major axis, with no ray cast (the 128-node grid missed it
    # by up to 2.4e-4 relative); each is within 1e-13 of the 40-digit
    # ellipse, and the diameter level comes out bitwise as section_diameter
    rays, _ = _kernel_calls(monkeypatch)
    st = section_stats(body, u, levels)
    diameters = [section_diameter(body, u, t) for t in levels]
    assert rays == [] and np.array_equal(st.n_evals, np.full(len(levels), 33))
    assert st.converged.all() and np.array_equal(st.err_estimate,
                                                 2.0 * bodies._HIT_RTOL * st.measure)
    for i, t in enumerate(levels):
        centre, major, minor, _ = plane_ellipse(body, u, t)
        assert np.linalg.norm(st.centroid[i] - centre) <= 1e-13 * max(1.0, np.linalg.norm(centre))
        assert diameters[i] == pytest.approx(2.0 * major, rel=1e-13, abs=0.0)
        assert st.measure[i] == pytest.approx(math.pi * major * minor, rel=1e-12, abs=0.0)
    which = np.zeros(len(levels), dtype=np.intp)
    out = sections._sections(body, u[None], which, levels, 1e-8, True, np.arange(len(levels)) == 1)
    assert np.array_equal(out[1], st.centroid) and np.array_equal(out[5], diameters[1:2])


@pytest.mark.parametrize("body,u,levels", CLOSED_FORM_SECTIONS, ids=CLOSED_FORM_IDS)
def test_centroids_and_diameters_off_their_form_take_the_polar_rule(monkeypatch, body, u, levels):
    # with F moved 1e-9 off the form past the first level, the other two
    # levels give exactly the polar rule's centroids and grid diameters
    # about the same centred anchors, in the batch and alone; the first
    # level keeps its closed form, bitwise
    which, rtol = np.zeros(len(levels), dtype=np.intp), np.full(len(levels), 1e-8)
    moments, wide = np.ones(len(levels), dtype=bool), np.ones(len(levels), dtype=bool)
    closed = sections._sections(body, u[None], which, levels, rtol, moments, wide)
    split = 0.5 * (levels[0] + levels[1])
    defining = BodySpec.defining
    monkeypatch.setattr(BodySpec, "defining",
                        lambda self, x: defining(self, x) + 1e-9 * (np.asarray(x) @ u > split))
    measure, centroid, err, n_evals, converged, diam, inside = sections._sections(
        body, u[None], which, levels, rtol, moments, wide)
    assert inside.all()
    assert np.array_equal(centroid[0], closed[1][0]) and diam[0] == closed[5][0]
    anchors, _, basis, guide, _, formed = sections._centred_sections(body, u[None], which, levels)
    assert formed
    off = slice(1, None)
    ref = sections._polar_sections(body, anchors[off], basis[:, off], guide[:, off], rtol[off],
                                   moments[off], np.arange(len(levels) - 1))
    assert np.array_equal(measure[off], ref[0]) and np.array_equal(centroid[off], ref[1])
    assert np.array_equal(err[off], ref[2]) and np.array_equal(converged[off], ref[4])
    assert np.array_equal(n_evals[off], 33 + ref[3]) and np.array_equal(diam[off], ref[5])
    for i, t in enumerate(levels):
        assert np.array_equal(section_stats(body, u, t).centroid, centroid[i])
        assert section_diameter(body, u, t) == diam[i]


def test_measures_near_a_support_level_take_the_closed_form(monkeypatch):
    # within 1e-11 of the sphere's support level the polar rule ran to its
    # node cap on F's rounding noise (167k-181k points a level); the closed
    # form casts no ray and spends 33 points a level
    body = unit_sphere(center=[0.0, 0.0, 3.0])
    u = np.array([0.3, -0.2, 0.9]) / np.linalg.norm([0.3, -0.2, 0.9])
    lo, _ = admissible_levels(body, u)
    levels = lo + 3.0 * 2.0 ** -np.array([37.0, 43.0, 49.0])
    rays, points = _kernel_calls(monkeypatch)
    for t in levels:
        out = sections._sections(body, u[None], np.zeros(1, dtype=np.intp), np.array([t]), 1e-8,
                                 False)
        assert out[3][0] == 33 and out[4][0] and out[0][0] > 0.0
    assert rays == [] and points == [1, 32] * 3
    # its error is rounding's: about 1e-5 relative at h = 2e-11 above the
    # support level, where the cap's section has area pi h (2 - h)
    h = levels[0] - lo
    assert section_measure(body, u, levels[0]) == pytest.approx(math.pi * h * (2.0 - h), rel=1e-4)
