import math

import numpy as np
import pytest

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
    trend_verdict,
    unit_disk,
)
from ccgeom.errors import EmptyShellIntersection


def test_body_shell_points_on_hyperbola():
    h = hyperboloid_sheet([1.0])
    R = 50.0
    pts = body_shell_points(h, R)
    assert len(pts) >= 2
    # all points on the sphere and on the boundary
    assert np.allclose(np.linalg.norm(pts, axis=1), R, rtol=1e-9)
    assert np.all(np.abs(h.defining(pts)) < 1e-6 * R * R)


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


def test_hyperbola_shell_distance_decays_like_half_over_r():
    h = hyperboloid_sheet([1.0])
    cone = h.recession_cone()
    for R in (10.0, 100.0):
        sd = shell_distance(h, cone, R)
        # boundary-to-asymptote gap at radius R is a^2/(2R) + O(R^-3)
        assert sd.d_asym == pytest.approx(0.5 / R, rel=1e-3)


def test_exp_epigraph_distance_grows_like_log():
    e = function_epigraph("exp")
    cone = e.recession_cone()
    sd = shell_distance(e, cone, 1.0e4)
    assert sd.d_asym == pytest.approx(math.log(1.0e4), rel=0.01)
    assert sd.d_blowdown == pytest.approx(math.log(1.0e4) / 1.0e4, rel=0.01)


def test_blowdown_check_recentres():
    e = function_epigraph("exp")
    assert blowdown_check(e, 1.0e4) <= 1e-3


def test_circular_cone_is_its_own_shadow():
    c = circular_cone(2.0, dim=2)
    sd = shell_distance(c, c.recession_cone(), 100.0)
    assert sd.d_asym <= 1e-6


def test_trend_verdict_rules():
    assert trend_verdict([1.0, 0.1, 0.01, 0.001]) == "asymptotic"
    assert trend_verdict([1.0, 2.0, 3.0, 4.0]) == "not_asymptotic"
    assert trend_verdict([1.0, 0.9, 0.85, 0.84]) == "inconclusive"


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
    with pytest.raises(ValueError):
        shell_distance(h, h.recession_cone(), 60.0)


def test_paraboloid_3d_not_asymptotic_to_its_ray():
    pb = paraboloid_epigraph([1.0, 1.0])
    cone = pb.recession_cone()
    d = [shell_distance(pb, cone, R).d_asym for R in (100.0, 1000.0, 10000.0)]
    assert d[0] < d[1] < d[2]
    # sqrt growth of the shell gap
    assert d[2] == pytest.approx(math.sqrt(10000.0), rel=0.05)
