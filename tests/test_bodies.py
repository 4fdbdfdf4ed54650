import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ccgeom import (
    BodySpec,
    ConeDescriptor,
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


@pytest.mark.parametrize("axes", [[1.0, 1.0], [1.0, 1.4], [0.8]])
def test_sheet_support_near_its_asymptotic_cone_normals(axes):
    # s = -u_d just above r = |p u'|: h(u) = -sqrt(s^2 - r^2) and x(u) =
    # (p^2 u', s) / sqrt(s^2 - r^2), where s^2 - r^2 cancels; each is
    # exact to a few rounding errors of u's own entries (50-digit mpmath)
    body = hyperboloid_sheet(axes)
    p = np.array(axes)
    for gap in (1e-12, 1e-10, 1e-8):
        for k in range(7):
            phi = 2.0 * math.pi * k / 7.0 + 0.1
            v = np.array([math.cos(phi), math.sin(phi)])[:len(axes)] / p
            u = np.append(0.6 * v / np.linalg.norm(p * v), -(0.6 + gap))
            u /= np.linalg.norm(u)
            h, X, on = body.gauss_map(u[None])
            assert on[0]
            with mpmath.workdps(50):
                mu = [mpmath.mpf(float(x)) for x in u]
                s2 = mu[-1] ** 2 - sum((mpmath.mpf(float(a)) * x) ** 2 for a, x in zip(p, mu))
                root = mpmath.sqrt(s2)
                exact_x = [mpmath.mpf(float(a)) ** 2 * x / root for a, x in zip(p, mu)] + [
                    -mu[-1] / root]
                assert abs(h[0] + root) <= 4 * np.finfo(float).eps * root
                for x, e in zip(X[0], exact_x):
                    assert abs(x - e) <= 4 * np.finfo(float).eps * abs(e)


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


def _gauss_rows(body):
    """Unit normals of every case the Gauss map tells apart, for body: seeded
    ones, normals with u_d = +-0.0 and +-1, the paraboloid's nearly
    horizontal ones, whose boundary point overflows, and each kind's
    normals of limit 0 (the hyperboloid's s == r, exactly where p_1 = 1, the
    circular cone's polar normals, exp's edge within _EDGE_TOL)."""
    d = body.ambient_dim
    w = np.random.default_rng(11).normal(size=(12, d))
    rows = list(w / np.linalg.norm(w, axis=1, keepdims=True))
    e = np.eye(d)
    rows += [e[-1], -e[-1], e[0], -e[0], np.where(e[-1] == 1.0, -0.0, e[0])]
    horizontal = np.append(np.full(d - 1, 1.0 / math.sqrt(d - 1)), -1e-155)
    rows += [horizontal / np.linalg.norm(horizontal)]
    c = 1.0 / math.sqrt(1.0 + body.params[0] ** 2) if body.params else 0.0
    edge = np.zeros(d)
    edge[0], edge[-1] = c, -(body.params[0] * c) if body.params else -1.0
    rows += [edge, e[0] * 0.1 - e[-1] * math.sqrt(0.99)]
    if body.tag == "exp":
        rows += [np.array([1e-16, -1.0]), np.array([-1e-16, -1.0]), np.array([2e-15, -1.0])]
    return np.array(rows)


def _exact_square_gap(u, p):
    """s^2 - |p u'|^2, s = -u_d, as a fraction."""
    return Fraction(u[-1]) ** 2 - sum((Fraction(a) * Fraction(b)) ** 2 for a, b in zip(p, u[:-1]))


def _row_bytes(arrays, i):
    return tuple(np.asarray(a)[i].tobytes() for a in arrays)


@pytest.mark.parametrize("body", UNMOVED + CATALOG, ids=lambda b: f"{b.tag or b.kind}-"
                         f"{b.ambient_dim}d{'-moved' if np.any(b.translation) else ''}")
def test_gauss_map_rows_are_their_one_row_calls_bitwise(body):
    # each row's h, boundary point and attained flag are bitwise its lone
    # call's, in any order and any number of rows, with no numpy warning
    U = _gauss_rows(body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = body.gauss_map(U)
        for i in range(len(U)):
            assert _row_bytes(out, i) == _row_bytes(body.gauss_map(U[i:i + 1]), 0)
        order = np.random.default_rng(3).permutation(len(U))
        assert _row_bytes(body.gauss_map(U[order]), slice(None)) == _row_bytes(out, order)
        tiled = body.gauss_map(np.tile(U, (3, 1)))
        thrice = [np.tile(a, 3 if a.ndim == 1 else (3, 1)) for a in out]
        assert _row_bytes(tiled, slice(None)) == _row_bytes(thrice, slice(None))
        h, X, on = out
        # every case is there: attained rows (the cone has none), +inf and
        # limit-0 rows as the kind has them
        assert on.any() != (body.kind == "circular-cone")
        if body.recession_cone().dim:
            assert np.any(h == INF)
        if body.kind == "circular-cone" or body.tag == "exp" or body.params == (1.0, 2.0):
            assert np.any(~on & (h < INF))
        if body.kind == "hyperboloid-upper-sheet":
            # attained where s^2 > |p u'|^2, s = -u_d > 0, and of limit 0 where
            # they are equal, in exact arithmetic (a unit normal of the [0.8]
            # hyperbola never meets the equality)
            gaps = [_exact_square_gap(u, body.params) for u in U]
            assert on.tolist() == [g > 0 and u[-1] < 0 for g, u in zip(gaps, U)]
            assert (~on & (h < INF)).tolist() == [g == 0 and u[-1] < 0 for g, u in zip(gaps, U)]
        # the public oracles are one-row calls of it
        for u, hu, x, a in zip(U, h, X, on):
            assert body.support_attained(u) == a
            if a and np.all(np.isfinite(x)):
                assert body.inverse_gauss(u).tobytes() == x.tobytes()
    # and support reads the row of u rescaled by its float norm
    nrm = np.sqrt(np.vecdot(U, U))
    rows = nrm * body.gauss_map(U / nrm[:, None])[0]
    assert np.array([body.support(u) for u in U]).tobytes() == rows.tobytes()


CONE_KINDS = [ConeDescriptor("zero", 2), ConeDescriptor("zero", 3),
              ConeDescriptor("ray", 2, (0.6, 0.8)), ConeDescriptor("ray", 3, (0.0, 0.0, 1.0)),
              ConeDescriptor("quadrant", 2), ConeDescriptor("elliptic", 2, (0.5,)),
              ConeDescriptor("elliptic", 3, (1.0, 2.0))]


@pytest.mark.parametrize("cone", CONE_KINDS, ids=lambda c: f"{c.kind}-{c.ambient_dim}d")
def test_cone_margin_rows_are_their_one_row_calls_bitwise(cone):
    # margins and sides of each row, boundary and +-0.0 rows among them, are
    # bitwise their lone calls', and the scalar predicates are one-row calls
    d = cone.ambient_dim
    w = np.random.default_rng(5).normal(size=(10, d))
    U = np.vstack([w / np.linalg.norm(w, axis=1, keepdims=True), np.eye(d), -np.eye(d),
                   np.where(np.eye(d) == 0.0, -0.0, 1.0) / math.sqrt(1.0)])
    if cone.dim:
        U = np.vstack([U, cone.boundary_rays(8)])
    margins = cone._impl.margin
    m, (meets, up) = margins(U), cone.sides(U)
    for i, u in enumerate(U):
        assert m[i].tobytes() == margins(U[i:i + 1]).tobytes()
        assert (meets[i], up[i]) == tuple(s[0] for s in cone.sides(U[i:i + 1]))
        assert cone.meets_hyperplane(u) == meets[i] and cone.positive_on(u) == up[i]
    order = np.random.default_rng(2).permutation(len(U))
    assert margins(U[order]).tobytes() == m[order].tobytes()
    assert margins(np.tile(U, (2, 1))).tobytes() == np.tile(m, 2).tobytes()


@pytest.mark.parametrize("body, u, h", [
    (paraboloid_epigraph([1.0, 0.7]), [0.7071, 0.7071, -1e-155], 0.7071 ** 2 * (0.25 + 0.25 / 0.7)),
    (paraboloid_epigraph([1.0]), [1.0, -1e-155], 0.25),
], ids=["3d", "2d"])
def test_paraboloid_support_is_finite_where_its_boundary_point_overflows(body, u, h):
    # h = sum u_i^2 / (4 p_i |u_d|) is a float though the height of x(u)
    # overflows: no -inf, no warning; inverse_gauss names the overflow
    u = np.array(u) / np.linalg.norm(u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert body.support(u) == pytest.approx(h / 1e-155, rel=1e-4)
        assert body.support_attained(u)
        with pytest.raises(ValueError, match="overflows"):
            body.inverse_gauss(u)
        # where h itself overflows it is +inf
        assert body.support(np.append(u[:-1], -1e-310)) == INF


@pytest.mark.parametrize("body", [
    paraboloid_epigraph([1.0, 0.7]), hyperboloid_sheet([1.0, 1.0]), function_epigraph("exp"),
    circular_cone(1.0, dim=3)], ids=lambda b: b.tag or b.kind)
def test_graph_gradient_at_a_nan_point_is_nan_and_only_the_apex_is_refused(body):
    # a NaN point has a NaN gradient, as every graph kind gives it; the cone
    # apex error is the circular cone's alone, at its apex
    x = np.full(body.ambient_dim, np.nan)
    assert np.isnan(body.defining_gradient(x)).any()
    if body.kind == "circular_cone":
        with pytest.raises(NotOnBoundary, match="cone apex"):
            body.defining_gradient(np.zeros(body.ambient_dim))
