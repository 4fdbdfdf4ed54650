"""Randomized invariant suites at fixed seed.

Sample budget: the membership/support/round-trip suites each draw 1e4
samples; the quadrature-backed suites (sections, cut volumes) use smaller
draws since every sample costs an adaptive integration.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgeom import (
    cone_shell_points,
    ellipsoid,
    function_epigraph,
    halfspace_cut_volume,
    hyperboloid_sheet,
    paraboloid_epigraph,
    section_stats,
    superellipsoid,
    unit_disk,
)

from oracles import disk_segment_area, sphere_cap_volume

SEED = 20240817

BODIES_WITH_BOXES = [
    (ellipsoid([1.5, 0.7], center=[0.3, -0.2]), [(-1.3, 1.9), (-0.95, 0.55)]),
    (ellipsoid([1.0, 2.0, 0.5], center=[0.0, 1.0, 0.0]),
     [(-1.1, 1.1), (-1.1, 3.1), (-0.6, 0.6)]),
    (superellipsoid(4.0), [(-1.05, 1.05), (-1.05, 1.05)]),
    (function_epigraph("square"), [(-2.0, 2.0), (-0.5, 5.0)]),
    (function_epigraph("cosh"), [(-2.0, 2.0), (0.5, 5.0)]),
    (hyperboloid_sheet([1.0, 1.5]), [(-3.0, 3.0), (-4.0, 4.0), (0.5, 4.0)]),
]


def _interior_samples(body, box, n, rng):
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    out = []
    while sum(len(a) for a in out) < n:
        pts = rng.uniform(lo, hi, size=(4 * n, len(box)))
        out.append(pts[body.contains(pts)])
    return np.concatenate(out)[:n]


def test_convexity_midpoints_inside():
    rng = np.random.default_rng(SEED)
    for body, box in BODIES_WITH_BOXES:
        pts = _interior_samples(body, box, 20_000, rng)
        mids = 0.5 * (pts[:10_000] + pts[10_000:])
        assert bool(body.contains(mids).all()), body.kind


def test_support_duality():
    # every body point respects <u, x> <= h(u) for every admissible u
    rng = np.random.default_rng(SEED + 1)
    for body, box in BODIES_WITH_BOXES:
        pts = _interior_samples(body, box, 100, rng)
        checked = 0
        while checked < 100:
            u = rng.normal(size=body.ambient_dim)
            u /= np.linalg.norm(u)
            h = body.support(u)
            if not math.isfinite(h):
                continue
            checked += 1
            assert float((pts @ u).max()) <= h + 1e-9 * max(1.0, abs(h))


def test_gauss_round_trip_closed_form_kinds():
    rng = np.random.default_rng(SEED + 2)
    bodies = [
        ellipsoid([1.5, 0.7, 2.0], center=[0.4, 0.0, -0.3]),
        paraboloid_epigraph([1.0, 0.5]),
        hyperboloid_sheet([1.0, 2.0]),
        superellipsoid(4.0),
    ]
    done = 0
    while done < 10_000:
        body = bodies[done % len(bodies)]
        u = rng.normal(size=body.ambient_dim)
        u /= np.linalg.norm(u)
        if not body.support_attained(u):
            continue
        x = body.inverse_gauss(u)
        assert abs(float(u @ x) - body.support(u)) <= 1e-9 * body.scale
        assert np.linalg.norm(body.outer_normal(x) - u) <= 1e-8
        done += 1


def test_support_positive_homogeneity_random():
    rng = np.random.default_rng(SEED + 3)
    e = ellipsoid([2.0, 0.5, 1.0], center=[0.1, 0.2, 0.3])
    for _ in range(10_000):
        u = rng.normal(size=3)
        lam = rng.uniform(0.1, 10.0)
        h1 = e.support(lam * u)
        h2 = lam * e.support(u)
        assert h1 == pytest.approx(h2, rel=1e-11)


def test_gauge_scaling_and_membership():
    rng = np.random.default_rng(SEED + 4)
    d = ellipsoid([1.5, 0.7])
    for _ in range(500):
        x = rng.normal(size=2)
        g = d.gauge(x)
        lam = rng.uniform(0.2, 3.0)
        assert d.gauge(lam * x) == pytest.approx(lam * g, rel=1e-6, abs=1e-9)
        assert bool(d.contains(x)) == (g <= 1.0 + 1e-9)


def test_cone_scaling_invariance():
    # the recession cone is scale-invariant: shell points scale linearly
    # and membership is positively homogeneous
    rng = np.random.default_rng(SEED + 5)
    cones = [
        hyperboloid_sheet([1.0]).recession_cone(),
        hyperboloid_sheet([1.0, 2.0]).recession_cone(),
        paraboloid_epigraph([1.0, 1.0]).recession_cone(),
        function_epigraph("exp").recession_cone(),
    ]
    for c in cones:
        a = cone_shell_points(c, 7.0)
        b = cone_shell_points(c, 21.0)
        assert np.allclose(3.0 * np.asarray(a), np.asarray(b), atol=1e-9)
        for _ in range(2_500):
            v = rng.normal(size=c.ambient_dim)
            lam = rng.uniform(0.1, 10.0)
            assert c.contains(v) == c.contains(lam * v)


def test_section_centroid_affine_equivariance():
    # centroids commute with axis-aligned scaling plus translation
    rng = np.random.default_rng(SEED + 6)
    for _ in range(60):
        dim = int(rng.integers(2, 4))
        axes = rng.uniform(0.5, 2.0, size=dim)
        center = rng.normal(size=dim)
        scale = rng.uniform(0.5, 2.0, size=dim)
        shift = rng.normal(size=dim)
        body = ellipsoid(axes, center=center)
        image = ellipsoid(axes * scale, center=center * scale + shift)
        u = rng.normal(size=dim)
        u /= np.linalg.norm(u)
        t = float(u @ center) + rng.uniform(-0.3, 0.3) * float(min(axes))
        v = u / scale
        nv = np.linalg.norm(v)
        v /= nv
        t_img = (t + float((u / scale) @ shift)) / nv
        s = section_stats(body, u, t)
        s_img = section_stats(image, v, t_img)
        assert np.allclose(s_img.centroid, scale * s.centroid + shift, atol=1e-7)


def test_cut_volume_monotone_in_level():
    rng = np.random.default_rng(SEED + 7)
    bodies = [
        unit_disk(center=[0.0, 3.0]),
        function_epigraph("square"),
        hyperboloid_sheet([1.0]),
    ]
    for _ in range(60):
        body = bodies[int(rng.integers(len(bodies)))]
        u = rng.normal(size=2)
        u[1] = abs(u[1]) + 0.5
        u /= np.linalg.norm(u)
        t1 = rng.uniform(0.5, 2.0)
        t2 = t1 + rng.uniform(0.1, 2.0)
        v1 = halfspace_cut_volume(body, u, t1)
        v2 = halfspace_cut_volume(body, u, t2)
        assert v1 <= v2 + 1e-9 * max(1.0, v2)


def test_fubini_matches_closed_form_segments():
    rng = np.random.default_rng(SEED + 8)
    d = unit_disk(center=[0.0, 3.0])
    s = ellipsoid([1.0, 1.0, 1.0], center=[0.0, 0.0, 3.0])
    for _ in range(40):
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        dd = rng.uniform(-0.9, 0.9)
        t = float(u @ [0.0, 3.0]) + dd
        assert halfspace_cut_volume(d, u, t) == pytest.approx(
            disk_segment_area(1.0, dd), rel=1e-6, abs=1e-9)
    for _ in range(15):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        dd = rng.uniform(-0.9, 0.9)
        t = float(u @ [0.0, 0.0, 3.0]) + dd
        assert halfspace_cut_volume(s, u, t) == pytest.approx(
            sphere_cap_volume(1.0, dd), rel=1e-5, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=-5.0, max_value=5.0))
def test_epigraph_membership_matches_graph(x, y):
    p = function_epigraph("square")
    if abs(y - x * x) <= 1e-9:  # membership has a boundary tolerance band
        return
    assert bool(p.contains([x, y])) == (y > x * x)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0))
def test_hyperbola_sections_symmetric(t_offset):
    h = hyperboloid_sheet([1.0])
    t = 1.5 + abs(t_offset)
    s = section_stats(h, np.array([0.0, 1.0]), t)
    assert s.centroid[0] == pytest.approx(0.0, abs=1e-9)
    assert s.measure == pytest.approx(2.0 * math.sqrt(t * t - 1.0), rel=1e-9)
