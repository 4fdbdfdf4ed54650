import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ccgeom import (
    BodySpec,
    circular_cone,
    ellipsoid,
    function_epigraph,
    hyperboloid_sheet,
    paraboloid_epigraph,
    superellipsoid,
    unit_disk,
    unit_sphere,
)
from ccgeom.bodies import ray_hits_batch
from ccgeom.cli import PRESETS
from ccgeom.errors import InadmissibleNormal, NotOnBoundary, OriginNotInterior

INF = math.inf

SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "bodyspec.schema.json"

# one body of each kind and dimension, translated, and each epigraph tag
CATALOG = [
    ellipsoid([2.0, 0.7], center=[0.4, -1.1]),
    ellipsoid([1.0, 2.0, 0.5], center=[0.3, -0.4, 1.1]),
    superellipsoid(4.0, shift=[1.0, 0.5]),
    superellipsoid(3.0, dim=3, shift=[-0.2, 0.0, 0.7]),
    paraboloid_epigraph([1.5], shift=[0.5, -1.0]),
    paraboloid_epigraph([1.0, 0.3], shift=[0.0, 1.0, -2.0]),
    hyperboloid_sheet([0.8], shift=[-0.3, 0.2]),
    hyperboloid_sheet([1.0, 2.0], shift=[0.5, 0.0, 1.0]),
    circular_cone(1.7, shift=[0.2, -0.6]),
    circular_cone(0.6, dim=3, shift=[0.0, 0.4, 0.3]),
] + [function_epigraph(tag, shift=[0.7, -0.2]) for tag in ("square", "quartic", "exp", "cosh")]

# well-formed except that a tag rides on a non-epigraph, or params on an epigraph
BAD_SPECS = [
    {"kind": "ellipsoid", "params": [1.0, 1.0], "translation": [0.0, 0.0], "dim": 2,
     "tag": "square"},
    {"kind": "function-epigraph", "params": [1.0], "translation": [0.0, 0.0], "dim": 2,
     "tag": "cosh"},
]


def test_ellipsoid_membership_and_defining():
    e = ellipsoid([2.0, 1.0])
    assert e.contains([1.0, 0.5])
    assert not e.contains([2.1, 0.0])
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    inside = e.contains(pts)
    assert inside.tolist() == [True, True, False]


def test_ellipsoid_support_closed_form():
    e = ellipsoid([2.0, 3.0], center=[1.0, -1.0])
    u = np.array([0.6, 0.8])
    # h(u) = <u, c> + ||diag(a) u||
    expect = u @ [1.0, -1.0] + math.hypot(2.0 * 0.6, 3.0 * 0.8)
    assert e.support(u) == pytest.approx(expect, rel=1e-12)


def test_support_positive_homogeneity():
    e = ellipsoid([1.5, 0.7, 2.0])
    u = np.array([0.3, -1.2, 0.5])
    assert e.support(3.0 * u) == pytest.approx(3.0 * e.support(u), rel=1e-12)


def test_paraboloid_support_finite_iff_downward():
    p = paraboloid_epigraph([1.0, 2.0])
    assert p.support([0.0, 0.0, 1.0]) == INF
    assert p.support([1.0, 0.0, 0.0]) == INF
    u = np.array([0.3, 0.4, -1.0])
    # max of <u,x> - q x'^2 terms: sum u_i^2 / (4 q_i s)
    expect = 0.3 ** 2 / 4.0 + 0.4 ** 2 / 8.0
    assert p.support(u) == pytest.approx(expect, rel=1e-12)


def test_hyperboloid_support_cases():
    h = hyperboloid_sheet([1.0, 1.0])
    assert h.support([0.0, 0.0, -1.0]) == pytest.approx(-1.0)
    # asymptotic direction: sup of (x - sqrt(1+x^2)) is 0, never attained
    u_asym = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    assert h.support(u_asym) == pytest.approx(0.0, abs=1e-12)
    assert not h.support_attained(u_asym)
    assert h.support([0.0, 0.0, 1.0]) == INF
    u = np.array([0.3, 0.0, -1.0])
    assert h.support(u) == pytest.approx(-math.sqrt(1.0 - 0.09), rel=1e-12)


def test_inverse_gauss_round_trip_quadrics():
    bodies = [
        ellipsoid([2.0, 0.8, 1.3], center=[0.5, 0.0, -1.0]),
        paraboloid_epigraph([1.0, 0.5]),
        hyperboloid_sheet([1.0, 2.0]),
        superellipsoid(4.0, shift=[0.5, -0.3]),
        superellipsoid(3.0, dim=3, shift=[0.0, 1.0, -0.5]),
    ] + [function_epigraph(tag, shift=[-0.4, 1.2])
         for tag in ("square", "quartic", "exp", "cosh")]
    rng = np.random.default_rng(7)
    for body in bodies:
        for _ in range(20):
            u = rng.normal(size=body.ambient_dim)
            u /= np.linalg.norm(u)
            if not body.support_attained(u):
                continue
            x = body.inverse_gauss(u)
            n = body.outer_normal(x)
            assert np.linalg.norm(n - u) < 1e-9
            # touching point realizes the support value
            assert u @ x == pytest.approx(body.support(u), abs=1e-10)


def test_epigraph_support_closed_form():
    # h(u) / (-u_y) = sup over x of m*x - f(x), with m = u_x / (-u_y)
    conjugates = {
        "square": lambda m: m ** 2 / 4.0,
        "quartic": lambda m: 3.0 * abs(m) ** (4.0 / 3.0) / 4.0 ** (4.0 / 3.0),
        "exp": lambda m: m * math.log(m) - m,
        "cosh": lambda m: m * math.asinh(m) - math.sqrt(1.0 + m * m),
    }
    for tag, conj in conjugates.items():
        p = function_epigraph(tag)
        for m in (0.5, -1.2, 2.0, 7.5):
            if tag == "exp" and m <= 0.0:
                continue
            u = np.array([m, -1.0])
            u = u / np.linalg.norm(u)
            expect = conj(m) / math.hypot(m, 1.0)
            assert p.support(u) == pytest.approx(expect, rel=1e-12, abs=1e-14)


def test_exp_epigraph_support_edge_cases():
    e = function_epigraph("exp")
    assert e.support([1.0, 0.0]) == INF  # +x is recessive? no: unbounded graph
    assert e.support([0.0, -1.0]) == pytest.approx(0.0, abs=1e-12)
    assert e.support([0.0, 1.0]) == INF
    u = np.array([1.0, -1.0]) / math.sqrt(2.0)
    # sup of x - e^x at x = 0 is -1, scaled
    assert e.support(u) == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-9)


def test_gauge_on_ellipsoid():
    e = ellipsoid([2.0, 1.0])
    assert e.gauge([2.0, 0.0]) == pytest.approx(1.0, rel=1e-9)
    assert e.gauge([1.0, 0.0]) == pytest.approx(0.5, rel=1e-9)
    with pytest.raises(OriginNotInterior):
        ellipsoid([1.0, 1.0], center=[5.0, 0.0]).gauge([1.0, 0.0])


def test_gauge_zero_on_recession_direction():
    p = function_epigraph("square", shift=[0.0, -1.0])  # origin interior
    assert p.gauge([0.0, 1.0]) == pytest.approx(0.0, abs=1e-9)
    assert p.gauge([1.0, 0.0]) == pytest.approx(1.0, rel=1e-6)


def test_boundary_hit_and_outer_normal():
    s = unit_sphere(center=[1.0, 0.0, 0.0])
    hits, _ = ray_hits_batch(s, np.array([1.0, 0.0, 0.0]), np.array([[0.0, 0.0, 1.0]]))
    dist = float(hits[0])
    assert dist == pytest.approx(1.0, abs=1e-9)
    x = np.array([1.0, 0.0, dist])
    n = s.outer_normal(x)
    assert np.allclose(n, [0.0, 0.0, 1.0], atol=1e-9)
    with pytest.raises(NotOnBoundary):
        s.outer_normal([1.0, 0.0, 0.5])


@pytest.mark.parametrize("x", [[math.nan, 0.0, 1.0], [0.0, math.inf, 1.0], [0.0, 0.0, -math.inf]],
                         ids=["nan", "inf", "-inf"])
def test_outer_normal_refuses_a_point_that_is_not_finite(x):
    # abs(F) > tol is False for a NaN F, which would pass a NaN normal on
    with pytest.raises(ValueError, match="finite"):
        unit_sphere().outer_normal(x)


def test_epigraph_normals_at_the_edge_are_not_attained():
    # within 1e-15 of the edge of the attained normals, support gives the
    # limit, so the Gauss map must not claim a contact point there
    cases = [(tag, [sx, -1e-16], INF) for tag in ("square", "quartic", "cosh")
             for sx in (1.0, -1.0)] + [("exp", [1e-16, -1.0], 0.0)]
    for tag, u, h in cases:
        body = function_epigraph(tag)
        assert not body.support_attained(u)
        with pytest.raises(InadmissibleNormal):
            body.inverse_gauss(u)
        assert body.support(u) == h


def test_recession_cones():
    assert ellipsoid([1.0, 1.0]).recession_cone().kind == "zero"
    assert superellipsoid(4.0).recession_cone().kind == "zero"
    assert paraboloid_epigraph([1.0, 1.0]).recession_cone().kind == "ray"
    assert function_epigraph("cosh").recession_cone().kind == "ray"
    assert hyperboloid_sheet([1.0]).recession_cone().kind == "elliptic"
    assert circular_cone(2.0, dim=3).recession_cone().kind == "elliptic"
    assert function_epigraph("exp").recession_cone().kind == "quadrant"


def test_cone_descriptor_positive_on():
    c = hyperboloid_sheet([1.0, 2.0]).recession_cone()
    assert c.positive_on([0.0, 0.0, 1.0])
    assert not c.positive_on([0.0, 0.0, -1.0])
    # needs u_z > ||diag(alpha) u'||
    assert c.positive_on([0.1, 0.0, 1.0])
    assert not c.positive_on([2.0, 0.0, 1.0])
    q = function_epigraph("exp").recession_cone()
    assert q.positive_on([-1.0, 1.0])
    assert not q.positive_on([1.0, 1.0])
    assert not q.positive_on([-1.0, 0.0])


def test_cone_meets_hyperplane():
    c = hyperboloid_sheet([1.0]).recession_cone()
    assert not c.meets_hyperplane(np.array([0.0, 1.0]))
    # 45-degree asymptote lies in the plane with normal (1,1)/sqrt2
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert c.meets_hyperplane(u)


def test_json_round_trip():
    bodies = [
        ellipsoid([2.0, 1.0], center=[0.5, -0.5]),
        function_epigraph("cosh", shift=[1.0, 2.0]),
        superellipsoid(4.0),
        hyperboloid_sheet([1.0, 2.0], shift=[0.0, 0.0, 1.0]),
    ]
    for b in bodies:
        b2 = BodySpec.from_json(b.to_json())
        assert b2.to_json() == b.to_json()


def test_validation_rejects_bad_specs():
    with pytest.raises(ValueError):
        ellipsoid([1.0, -1.0])
    with pytest.raises(ValueError):
        superellipsoid(1.5)
    with pytest.raises(ValueError):
        function_epigraph("cubic")
    with pytest.raises(ValueError):
        BodySpec("ellipsoid", (1.0, 1.0, 1.0, 1.0), None, ambient_dim=4)
    for bad in BAD_SPECS:
        with pytest.raises(ValueError):
            BodySpec.from_json(bad)


def test_schema_matches_the_spec_checks():
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))
    specs = [cfg["body"] for presets in PRESETS.values() for cfg in presets.values()]
    for spec in specs + [b.to_json() for b in CATALOG]:
        validator.validate(spec)
    for bad in BAD_SPECS:
        assert not validator.is_valid(bad)


def test_support_rejects_non_finite_directions():
    for body in CATALOG:
        for bad in (math.nan, math.inf, -math.inf):
            for i in range(body.ambient_dim):
                u = np.full(body.ambient_dim, -0.5)
                u[i] = bad
                with pytest.raises(ValueError):
                    body.support(u)


def test_defining_gradient_matches_fd():
    bodies = [
        ellipsoid([1.5, 0.8], center=[0.3, 0.1]),
        function_epigraph("quartic"),
        hyperboloid_sheet([2.0]),
    ]
    rng = np.random.default_rng(3)
    for b in bodies:
        for _ in range(10):
            x = rng.normal(size=2) * 1.5
            x[1] = abs(x[1]) + 1.0
            g = b.defining_gradient(x)
            fd = np.zeros(2)
            h = 1e-6
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd[j] = (b.defining(x + e) - b.defining(x - e)) / (2 * h)
            assert np.allclose(g, fd, atol=1e-5 * max(1.0, np.linalg.norm(g)))


def test_validation_rejects_non_finite_specs():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ellipsoid([1.0, bad])
        with pytest.raises(ValueError):
            ellipsoid([1.0, 1.0], center=[0.0, bad])
        with pytest.raises(ValueError):
            hyperboloid_sheet([bad, 1.0])
        with pytest.raises(ValueError):
            circular_cone(2.0, dim=3, shift=[bad, 0.0, 0.0])


def test_unit_direction_check_rejects_nan():
    with pytest.raises(ValueError):
        unit_sphere().support_attained([math.nan, 0.0, 1.0])
    with pytest.raises(ValueError):
        unit_disk().inverse_gauss([math.nan, 1.0])


def test_gauge_is_norm_over_boundary_hit():
    e = ellipsoid([2.0, 1.0, 0.5], center=[0.1, 0.0, -0.1])
    x = np.array([0.3, -1.7, 0.4])
    # the boundary point along x lies at x / gauge(x)
    assert e.defining(x / e.gauge(x)) == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("body", CATALOG, ids=lambda b: f"{b.tag or b.kind}-{b.ambient_dim}d")
@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 30), st.just(3)),
              elements=st.floats(-3.0, 3.0) | st.floats(-1e3, 1e3) | st.floats(-1e300, 1e300)))
def test_defining_does_not_depend_on_the_batch_layout(body, x):
    # the root-finder and the shell scan hand F coordinate-major views; points
    # run from inside the body to far outside, where exp, cosh and powers overflow
    x = np.ascontiguousarray(x[..., :body.ambient_dim])
    view = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)
    with np.errstate(all="ignore"):
        for batch, strided in ((x, view), (x[0], view[0])):
            assert np.array_equal(body.defining(batch), body.defining(strided), equal_nan=True)


# each kind and dimension of CATALOG, unmoved, and one body moved by -0.0
UNMOVED = [BodySpec(b.kind, b.params, ambient_dim=b.ambient_dim, tag=b.tag) for b in CATALOG]
ZERO_SHIFTS = UNMOVED + [ellipsoid([2.0, 0.7], center=[-0.0, 0.0])]


def _signed_zero_batch(dim):
    """A (4, 6, dim) batch of inside, boundary and far points, +0.0 and -0.0
    among its coordinates, and its coordinate-major view."""
    values = np.array([0.0, -0.0, 0.3, -0.7, 1.0, -2.5, 40.0, -1e3, 1e300])
    x = np.random.default_rng(7).choice(values, size=(4, 6, dim))
    x[0, :2] = [[0.0] * dim, [-0.0] * dim]
    view = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)
    return x, view


@pytest.mark.parametrize("body", ZERO_SHIFTS, ids=lambda b: f"{b.tag or b.kind}-{b.ambient_dim}d"
                         f"{'-minus-zero' if np.any(np.signbit(b.translation)) else ''}")
def test_defining_on_a_zero_translation_is_f_of_the_local_point(body):
    # an unmoved body skips the subtraction of its translation, which
    # changes no bit: F(x) is F(x - translation), and grad F likewise, at
    # +0.0 and -0.0 alike (a -0.0 translation turns -0.0 into +0.0)
    x, view = _signed_zero_batch(body.ambient_dim)
    with np.errstate(all="ignore"):
        for batch in (x, view, x[1], view[1]):
            got = body.defining(batch)
            ref = body._impl.F(batch - body.translation)
            assert got.tobytes() == ref.tobytes()
        for point in x[0]:
            try:
                ref = body._impl.grad(point - body.translation)
            except NotOnBoundary:  # the cone's apex
                continue
            assert body.defining_gradient(point).tobytes() == ref.tobytes()


@pytest.mark.parametrize("body", UNMOVED + CATALOG, ids=lambda b: f"{b.tag or b.kind}-"
                         f"{b.ambient_dim}d{'-moved' if np.any(b.translation) else ''}")
def test_defining_reads_a_read_only_batch(body):
    # an unmoved body hands F the caller's array uncopied: no kind may write into it
    x, _ = _signed_zero_batch(body.ambient_dim)
    point = x[1, 2] + 0.25  # off the cone's apex
    keep = x.copy(), point.copy()
    for arr in (x, point):
        arr.flags.writeable = False
    with np.errstate(all="ignore"):
        body.defining(x)
        body.defining(x[1])
        body.defining_gradient(point)
    assert np.array_equal(x, keep[0]) and np.array_equal(point, keep[1])
