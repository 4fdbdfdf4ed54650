"""Recession cone predicates against an independent oracle, and input checks.

The oracle reads each predicate off min and max of <u, g> over densely
sampled unit boundary rays g of the cone, parametrised here and not taken
from the library: the cone is the conic hull of those rays, so <u, v> > 0 on
the cone minus 0 iff the min is > 0, <u, v> <= 0 on the cone iff the max is
<= 0, and u-perp meets the cone in more than 0 iff min <= 0 <= max. The
conjugate direction is checked against the centroid of the section through
the same rays.
"""
import math

import numpy as np
import pytest

from ccgeom import ConeDescriptor
from ccgeom.errors import GeometryError

INF = math.inf


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _elliptic_rays(alpha, n=20000):
    """Unit rays (x', 1) with |x' / alpha| = 1, by the polar angle of x'."""
    alpha = np.asarray(alpha, dtype=float)
    if len(alpha) == 1:
        return _unit([[alpha[0], 1.0], [-alpha[0], 1.0]])
    phi = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    w = np.column_stack([np.cos(phi), np.sin(phi)])
    r = 1.0 / np.linalg.norm(w / alpha, axis=-1)
    return _unit(np.column_stack([r[:, None] * w, np.ones(n)]))


# (cone, its unit boundary rays, the oracle's sampling error)
CONES = [
    (ConeDescriptor("zero", 2), np.empty((0, 2)), 0.0),
    (ConeDescriptor("zero", 3), np.empty((0, 3)), 0.0),
    (ConeDescriptor("ray", 2, (0.0, 1.0)), np.array([[0.0, 1.0]]), 0.0),
    (ConeDescriptor("ray", 3, tuple(_unit([0.3, -0.4, 1.0]))),
     _unit([[0.3, -0.4, 1.0]]), 0.0),
    (ConeDescriptor("quadrant", 2), np.array([[-1.0, 0.0], [0.0, 1.0]]), 0.0),
    (ConeDescriptor("elliptic", 2, (1.0,)), _elliptic_rays([1.0]), 0.0),
    (ConeDescriptor("elliptic", 2, (0.4,)), _elliptic_rays([0.4]), 0.0),
    (ConeDescriptor("elliptic", 3, (1.0, 1.0)), _elliptic_rays([1.0, 1.0]), 1e-6),
    (ConeDescriptor("elliptic", 3, (1.0, 2.5)), _elliptic_rays([1.0, 2.5]), 1e-6),
]


@pytest.mark.parametrize("cone, rays, sampling", CONES,
                         ids=[f"{c.kind}-{c.ambient_dim}d" for c, _, _ in CONES])
def test_predicates_match_the_boundary_ray_oracle(cone, rays, sampling):
    rng = np.random.default_rng(11)
    U = _unit(rng.normal(size=(2000, cone.ambient_dim)))
    dots = U @ rays.T
    lo = dots.min(axis=1, initial=INF)
    hi = dots.max(axis=1, initial=-INF)
    # skip directions whose answer the sampled rays cannot decide
    far = 10.0 * sampling + 1e-9
    checked = 0
    for u, a, b in zip(U, lo, hi):
        if abs(a) <= far or abs(b) <= far:
            continue
        checked += 1
        assert cone.positive_on(u) == (a > 0.0)
        assert cone.support(u) == (0.0 if b <= 0.0 else INF)
        assert cone.meets_hyperplane(u) == (a <= 0.0 <= b)
    assert checked >= 1900


def _section_centroid(v):
    """Centroid of the section through the points v on consecutive boundary
    rays: the chord's midpoint for two points, else the area centroid of the
    planar polygon v, summed over the triangles of a fan from its mean."""
    c = v.mean(axis=0)
    if len(v) == 2:
        return c
    nxt = np.roll(v, -1, axis=0)
    area = np.linalg.norm(np.cross(v - c, nxt - c), axis=-1)
    return ((v + nxt + c) / 3.0 * area[:, None]).sum(axis=0) / area.sum()


@pytest.mark.parametrize("cone, rays, sampling", CONES,
                         ids=[f"{c.kind}-{c.ambient_dim}d" for c, _, _ in CONES])
def test_conjugate_direction_points_at_the_section_centroids(cone, rays, sampling):
    if cone.dim < cone.ambient_dim:
        with pytest.raises(GeometryError):
            cone.conjugate_direction(_unit(np.ones(cone.ambient_dim)))
        return
    rng = np.random.default_rng(12)
    U = _unit(rng.normal(size=(100, cone.ambient_dim)))
    dots = U @ rays.T
    # keep the normals whose sections are bounded with margin 0.05: <u, g> has
    # one sign on every ray g. The section {<u, x> = sign} meets g at g/|<u, g>|,
    # and g/<u, g> is that point times the sign, which leaves the line unchanged
    bounded = (dots.min(axis=1) >= 0.05) | (dots.max(axis=1) <= -0.05)
    assert np.count_nonzero(bounded) >= 10
    for u, d in zip(U[bounded], dots[bounded]):
        c = _unit(_section_centroid(rays / d[:, None]))
        w = _unit(cone.conjugate_direction(u))
        # the sine of the angle between the two lines
        assert np.linalg.norm(w - (w @ c) * c) <= sampling + 1e-12


def test_meets_hyperplane_counts_margins_within_1e_14_as_zero():
    # the 45-degree asymptote of the elliptic cone with alpha = 1 lies in the
    # plane with normal (1, 1)/sqrt(2); normals off it by a margin up to 1e-14
    # still count as meeting it, beyond that they do not
    c = ConeDescriptor("elliptic", 2, (1.0,))
    assert c.meets_hyperplane(_unit([1.0, 1.0]))
    assert c.meets_hyperplane(_unit([1.0, 1.0 + 1e-15]))
    assert c.meets_hyperplane(_unit([1.0, 1.0 - 1e-15]))
    assert not c.meets_hyperplane(_unit([1.0, 1.0 + 1e-13]))
    assert c.positive_on(_unit([1.0, 1.0 + 1e-15]))


@pytest.mark.parametrize("args", [
    ("cone", 2, ()),
    ("zero", 4, ()),
    ("elliptic", 1, ()),
    ("quadrant", 3, ()),
    ("zero", 2, (1.0,)),
    ("quadrant", 2, (1.0, 0.0)),
    ("ray", 2, (1.0, 1.0)),
    ("ray", 2, (0.0, 0.0, 1.0)),
    ("ray", 3, (0.0, 1.0)),
    ("ray", 2, (math.nan, 1.0)),
    ("ray", 2, (math.inf, 0.0)),
    ("elliptic", 2, ()),
    ("elliptic", 3, (1.0,)),
    ("elliptic", 2, (1.0, 1.0)),
    ("elliptic", 2, (0.0,)),
    ("elliptic", 3, (1.0, -2.0)),
    ("elliptic", 2, (math.inf,)),
    ("elliptic", 2, (math.nan,)),
])
def test_cone_descriptor_rejects_bad_input(args):
    with pytest.raises(ValueError):
        ConeDescriptor(*args)

