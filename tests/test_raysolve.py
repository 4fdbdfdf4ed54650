"""The batched boundary root-finder: accuracy, batch independence, hard rays."""
import math
import warnings

import mpmath
import numpy as np
import pytest

from ccgeom import (
    BodySpec,
    admissible_levels,
    circular_cone,
    cut_gradient,
    ellipsoid,
    function_epigraph,
    halfspace_cut_volume,
    hyperboloid_sheet,
    paraboloid_epigraph,
    section_measure,
    section_stats,
    superellipsoid,
    unit_sphere,
)
from ccgeom import bodies, sections
from ccgeom.bodies import ray_hits_batch
from ccgeom.errors import GeometryError, NotInterior

from oracles import quadric_form
from test_bodies import CATALOG

EPS = np.finfo(float).eps


def _directions(n, seed, dim=3):
    w = np.random.default_rng(seed).normal(size=(n, dim))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


@mpmath.workdps(40)
def _exit_root(a, b, c, z0=None, wz=None):
    """Smallest positive root of a s^2 + b s + c (with z0 + s wz > 0 if given)."""
    a, b, c = (mpmath.mpf(float(v)) for v in (a, b, c))
    disc = mpmath.sqrt(b * b - 4 * a * c)
    roots = sorted(r for r in ((-b - disc) / (2 * a), (-b + disc) / (2 * a)) if r > 0)
    if z0 is not None:
        roots = [r for r in roots if z0 + r * wz > 0]
    return roots[0]


@mpmath.workdps(40)
def _ellipsoid_hit(axes, center, o, w):
    y = [mpmath.mpf(float(v)) for v in o - center]
    w = [mpmath.mpf(float(v)) for v in w]
    k = [1 / mpmath.mpf(float(v)) ** 2 for v in axes]
    return _exit_root(sum(ki * wi * wi for ki, wi in zip(k, w)),
                      sum(2 * ki * yi * wi for ki, yi, wi in zip(k, y, w)),
                      sum(ki * yi * yi for ki, yi in zip(k, y)) - 1)


@mpmath.workdps(40)
def _paraboloid_hit(q, o, w):
    o = [mpmath.mpf(float(v)) for v in o]
    w = [mpmath.mpf(float(v)) for v in w]
    q = [mpmath.mpf(float(v)) for v in q]
    return _exit_root(sum(qi * wi * wi for qi, wi in zip(q, w[:-1])),
                      sum(2 * qi * oi * wi for qi, oi, wi in zip(q, o, w)) - w[-1],
                      sum(qi * oi * oi for qi, oi in zip(q, o)) - o[-1])


@mpmath.workdps(40)
def _hyperboloid_hit(axes, o, w):
    # sqrt(1 + sum (x_i/a_i)^2) = z on the sheet, i.e. z^2 - sum(...) - 1 = 0, z > 0
    o = [mpmath.mpf(float(v)) for v in o]
    w = [mpmath.mpf(float(v)) for v in w]
    k = [1 / mpmath.mpf(float(v)) ** 2 for v in axes]
    a = w[-1] ** 2 - sum(ki * wi * wi for ki, wi in zip(k, w))
    b = 2 * o[-1] * w[-1] - sum(2 * ki * oi * wi for ki, oi, wi in zip(k, o, w))
    c = o[-1] ** 2 - sum(ki * oi * oi for ki, oi in zip(k, o)) - 1
    return _exit_root(a, b, c, o[-1], w[-1])


@mpmath.workdps(40)
def _cone_hit(k, o, w):
    # k |x'| = z on the cone, i.e. k^2 |x'|^2 - z^2 = 0, z > 0
    o = [mpmath.mpf(float(v)) for v in o]
    w = [mpmath.mpf(float(v)) for v in w]
    k2 = mpmath.mpf(float(k)) ** 2
    a = k2 * sum(wi * wi for wi in w[:-1]) - w[-1] ** 2
    b = 2 * k2 * sum(oi * wi for oi, wi in zip(o, w[:-1])) - 2 * o[-1] * w[-1]
    c = k2 * sum(oi * oi for oi in o[:-1]) - o[-1] ** 2
    return _exit_root(a, b, c, o[-1], w[-1])


def test_references_leave_mpmath_at_its_default_precision():
    # each reference raises the precision only while it computes, so mpmath
    # elsewhere in the process keeps its 15 digits whichever test files ran
    root = _ellipsoid_hit(np.ones(3), np.zeros(3), np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert root == 1 and mpmath.mp.dps == 15


def _assert_rel(got, exact, rtol=1e-12):
    for g, e in zip(got, exact):
        assert abs(g - float(e)) <= rtol * float(e), (g, e)


# relative offsets of guesses from the root: within the inner probe pair,
# between an inner and an outer probe, outside both pairs, and so far below
# (-0.5) that every probe is inside and the ray climbs the ladder
_GUESS_OFFSETS = np.array([0.0, 3e-13, -3e-13, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3, 0.5, -0.5])


def _assert_hits(body, o, w, exact):
    """Unguessed hits, and hits guessed at every offset, match the roots exact."""
    _assert_rel(ray_hits_batch(body, o, w)[0], exact)
    guess = np.array([float(e) for e in exact]) * (1.0 + np.resize(_GUESS_OFFSETS, len(w)))
    _assert_rel(ray_hits_batch(body, o, w, guess=guess)[0], exact)


def test_ellipsoid_hits_match_closed_form():
    axes, center = np.array([2.0, 0.7, 1.3]), np.array([0.5, -1.0, 3.0])
    body = ellipsoid(axes, center=center)
    o = center + np.array([0.4, 0.1, -0.5])
    w = _directions(200, 1)
    _assert_hits(body, o, w, [_ellipsoid_hit(axes, center, o, d) for d in w])


def test_paraboloid_hits_match_closed_form():
    q = np.array([1.0, 0.4])
    body = paraboloid_epigraph(q)
    o = np.array([0.3, -0.2, 2.0])
    w = _directions(200, 2)
    w = w[~np.asarray(body.recession_cone().contains(w))]
    _assert_hits(body, o, w, [_paraboloid_hit(q, o, d) for d in w])


def test_hyperboloid_sheet_hits_match_closed_form():
    axes = np.array([1.0, 1.4])
    body = hyperboloid_sheet(axes)
    o = np.array([0.2, 0.1, 3.0])
    w = _directions(300, 3)
    # directions inside the recession cone never leave the body
    w = w[w[:, 2] < 0.9 * np.linalg.norm(w[:, :2] / axes, axis=1)]
    _assert_hits(body, o, w, [_hyperboloid_hit(axes, o, d) for d in w])


def _sheet_and_cone_rays():
    """(body, origin, directions, mpmath roots) on hyperboloid sheets and
    circular cones in 2D and 3D. The directions avoid the recession cone by
    a margin; 20 or more point steeply down, inside the lower nappe of
    the asymptotic cone, where G = F (F + 2 y_d) has two positive roots
    along the ray: it leaves the upper sheet, then meets the lower one."""
    cases = []
    for body, o in ((hyperboloid_sheet([1.0]), np.array([0.3, 2.0])),
                    (hyperboloid_sheet([1.0, 1.4]), np.array([0.2, 0.1, 3.0])),
                    (circular_cone(0.7), np.array([0.1, 2.0])),
                    (circular_cone(1.3, dim=3), np.array([0.1, -0.2, 2.0]))):
        dim = body.ambient_dim
        if body.kind == "circular-cone":
            axes, hit = np.full(dim - 1, 1.0 / body.params[0]), _cone_hit
            args = (body.params[0],)
        else:
            axes, hit, args = np.array(body.params), _hyperboloid_hit, (body.params,)
        w = _directions(300, 11, dim)
        slope = w[:, -1] / np.linalg.norm(w[:, :-1] / axes, axis=1)
        w = w[slope < 0.9]
        cases.append((body, o, w, [hit(*args, o, d) for d in w], slope[slope < 0.9] < -1.0))
    return cases


@pytest.mark.parametrize("body, o, w, exact, steep", _sheet_and_cone_rays(),
                         ids=["hyperbola", "sheet", "cone-2d", "cone-3d"])
def test_sheet_and_cone_hits_match_closed_form_in_two_calls(monkeypatch, body, o, w, exact,
                                                              steep):
    # G is a quadratic along every ray, so its smallest positive root guesses
    # each unguessed ray, also where G opens downward, and the guess's probes
    # end it in the first call, with the origin's F
    assert steep.sum() >= 20 and not steep.all()
    batches = record_defining(monkeypatch)
    hits, _ = ray_hits_batch(body, o, w)
    assert len(batches) == 1
    _assert_rel(hits, exact)
    _assert_hits(body, o, w, exact)


def test_guess_good_to_rounding_ends_with_both_inner_probes_outside(monkeypatch):
    # a chord of the disk at (0, 3), 0.006 long: the quadratic's guess is
    # within F's rounding of the root, but both inner probes read F >= 0, so
    # the ray ends on its outside end, inner probe g (1 - 2^-41), whose F is
    # within 4 eps T of 0: one call, the origin and the guess's probes
    body = ellipsoid([1.0, 1.0], center=[0.0, 3.0])
    o = np.array([-0.1104771985567295, 2.0061405279327884])
    w = np.array([[0.9938784247051028, -0.11047930532775527]])
    batches = record_defining(monkeypatch)
    [hit], _ = ray_hits_batch(body, o, w)
    assert len(batches) == 1
    f = body.defining(batches[0][1:])
    assert f[0] < 0.0 <= f[1] and f[2] >= 0.0
    root = float(_ellipsoid_hit(np.ones(2), body.translation, o, w[0]))
    p = o + root * w[0]
    T = float(body.defining(p)) + 2.0
    slope = abs(body.defining_gradient(p) @ w[0])
    assert abs(hit - root) <= 4.0 * EPS * T / slope


def test_root_does_not_depend_on_the_batch():
    body = hyperboloid_sheet([1.0, 1.4])
    o = np.array([0.0, 0.0, 2.0])
    w = _directions(400, 4)
    w = w[w[:, 2] < 0.5]
    guess = np.linspace(0.5, 40.0, len(w))
    batch = ray_hits_batch(body, o, w)[0]
    batch_guess = ray_hits_batch(body, o, w, guess=guess)[0]
    for i in range(0, len(w), 17):
        assert ray_hits_batch(body, o, w[i:i + 1])[0][0] == batch[i]
        assert ray_hits_batch(body, o, w[i:i + 1], guess=guess[i:i + 1])[0][0] == batch_guess[i]


@pytest.mark.parametrize("body", CATALOG, ids=lambda b: f"{b.tag or b.kind}-{b.ambient_dim}d")
def test_grouped_origins_match_one_origin_calls(body):
    # rays j*k .. (j+1)*k - 1 from origin j: bitwise the one-origin hits and counts
    d, k = body.ambient_dim, 6
    origins = body.interior_point() + 0.05 * np.random.default_rng(2).normal(size=(4, d))
    assert bool(body.contains(origins).all())
    w = _directions(4 * k, 5, d)
    w[:, -1] = -np.abs(w[:, -1]) - 0.3  # downward: no body of the catalog recedes there
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    for guess in (None, np.linspace(0.3, 3.0, len(w))):
        hits, n_evals = ray_hits_batch(body, origins, w, guess=guess)
        alone = [ray_hits_batch(body, o, w[j * k:(j + 1) * k],
                                guess=None if guess is None else guess[j * k:(j + 1) * k])
                 for j, o in enumerate(origins)]
        assert np.array_equal(hits, np.concatenate([h for h, _ in alone]))
        assert n_evals.tolist() == [n for _, n in alone]
        assert int(n_evals.sum()) == sum(n for _, n in alone)


@pytest.mark.parametrize("body", CATALOG, ids=lambda b: f"{b.tag or b.kind}-{b.ambient_dim}d")
def test_transposed_views_give_the_same_hits(body):
    # the polar rule passes its directions as the transposed view of a (d, rays) array
    d, k = body.ambient_dim, 5
    origins = body.interior_point() + 0.05 * np.random.default_rng(3).normal(size=(3, d))
    w = _directions(3 * k, 6, d)
    w[:, -1] = -np.abs(w[:, -1]) - 0.3
    w /= np.linalg.norm(w, axis=1, keepdims=True)

    def view(a):
        return np.ascontiguousarray(a.T).T

    for guess in (None, np.linspace(0.3, 3.0, len(w))):
        hits, n_evals = ray_hits_batch(body, origins, w, guess=guess)
        for o, v in ((view(origins), w), (origins, view(w)), (view(origins), view(w))):
            h, n = ray_hits_batch(body, o, v, guess=guess)
            assert np.array_equal(h, hits) and np.array_equal(n, n_evals)


def coordinate_major(x):
    """Whether each coordinate of the batch x is one contiguous block."""
    return x.strides[-1] == x.itemsize * (x.size // x.shape[-1])


def record_defining(monkeypatch):
    """The list of batches that every later call of BodySpec.defining appends to."""
    batches, defining = [], BodySpec.defining

    def recorded(self, x):
        batches.append(np.asarray(x))
        return defining(self, x)

    monkeypatch.setattr(BodySpec, "defining", recorded)
    return batches


@pytest.mark.parametrize("call,polar", [
    # (the section's closed form refused, so that it casts its polar batch)
    (lambda: section_stats(unit_sphere(), np.array([0.0, 0.6, 0.8]), 0.3), True),
    (lambda: cut_gradient(unit_sphere([0.0, 0.0, 3.0]), np.array([0.1, 0.2, 0.25])), False),
], ids=["sphere-section", "sphere-gradient"])
def test_root_finder_hands_f_coordinate_major_batches(monkeypatch, refuse_closed_forms, call,
                                                     polar):
    refuse_closed_forms(polar)
    batches = record_defining(monkeypatch)
    call()
    assert max(x.size // x.shape[-1] for x in batches) >= 64
    assert all(coordinate_major(x) for x in batches)


@pytest.mark.parametrize("body", [
    ellipsoid([1.3, 0.8, 1.0], center=[0.2, -0.1, 0.4]),
    paraboloid_epigraph([1.0, 0.7]),
    hyperboloid_sheet([1.0, 1.4]),
], ids=lambda b: b.kind)
def test_conic_guessed_first_polar_batch_takes_one_round(monkeypatch, refuse_closed_forms, body):
    # guessed from the section's ellipse, read off the kind's form, to
    # rounding, every ray of the first polar batch ends on its probes: one F
    # call for the whole batch (the closed form refused, so that the
    # sections cast it)
    refuse_closed_forms()
    batches, rounds = record_defining(monkeypatch), []

    def counted(*args, guess=None):
        before = len(batches)
        out = ray_hits_batch(*args, guess=guess)
        rounds.append((guess is not None, len(batches) - before))
        return out

    monkeypatch.setattr(sections, "ray_hits_batch", counted)
    for u in ([0.3, -0.2, 0.93], [0.0, 0.0, 1.0]):
        u = np.array(u) / np.linalg.norm(u)
        lo, hi = admissible_levels(body, u)
        for t in (lo + 0.3 * min(hi - lo, 10.0), lo + 0.7 * min(hi - lo, 10.0)):
            rounds.clear()
            section_stats(body, u, t)
            # no centring batch: the first batch is the first polar one
            assert rounds[0] == (True, 1), (u, t, rounds)


def test_unguessed_ray_brackets_a_far_root_in_two_rounds(monkeypatch):
    # near the paraboloid's axis the root is 1.1e3 body scales out, far past
    # a probe at the body scale: the ray's quadratic guesses it, and the
    # guess's probes bracket the root in the first round, which ends the ray
    body, o = paraboloid_epigraph([1.0, 0.7]), np.array([0.0, 0.0, 1.0])
    w = np.array([[0.03, 0.0, math.sqrt(1.0 - 0.03 ** 2)]])
    root = float(_paraboloid_hit([1.0, 0.7], o, w[0]))
    assert root > 1e3 * body.scale
    batches = record_defining(monkeypatch)
    [hit], n = ray_hits_batch(body, o, w)
    assert len(batches) == 1 and n == 1 + 4
    # the bracket: the last of the round's probes (after the origin) inside
    # before the first outside one, and that one
    s = (batches[0][1:] - o) @ w[0]
    f = body.defining(batches[0][1:])
    c = int(np.argmin(f <= 0.0))
    assert f[c] > 0.0 and np.all(f[:c] <= 0.0) and 1 <= c <= 3
    assert s[c - 1] < root < s[c]
    _assert_rel([hit], [root])


def _quadratic_f_rays():
    """(body, origin, directions, mpmath roots) for bodies whose F is a
    quadratic along every ray: the disk and the sphere at height 3, the
    [1, 0.7] paraboloid and the square epigraph."""
    cases = []
    for dim in (2, 3):
        center = np.append(np.zeros(dim - 1), 3.0)
        o, w = center + np.array([0.3, -0.4, 0.2][:dim]), _directions(60, dim, dim)
        cases.append((ellipsoid(np.ones(dim), center=center), o, w,
                      [_ellipsoid_hit(np.ones(dim), center, o, d) for d in w]))
    for q, o in (([1.0, 0.7], np.array([0.3, -0.2, 2.0])), ([1.0], np.array([0.3, 2.0]))):
        w = _directions(80, 7, len(o))
        w = w[w[:, -1] < 0.9]  # away from the axis, where the root runs off
        body = paraboloid_epigraph(q) if len(q) == 2 else function_epigraph("square")
        cases.append((body, o, w, [_paraboloid_hit(q, o, d) for d in w]))
    return cases


@pytest.mark.parametrize("body, o, w, exact", _quadratic_f_rays(),
                         ids=["disk", "sphere", "paraboloid", "square"])
def test_unguessed_rays_on_a_quadratic_f_end_in_two_calls(monkeypatch, body, o, w, exact):
    # F is the kind's ray quadratic, so its root is the guess, and the
    # guess's inner probes end every ray in the first call
    batches = record_defining(monkeypatch)
    hits, _ = ray_hits_batch(body, o, w)
    assert len(batches) == 1
    _assert_rel(hits, exact)


# one body of each kind with a ray quadratic, moved and not, in 2D and 3D
QUADRIC_BODIES = [
    ellipsoid([2.0, 0.7], center=[0.4, -1.1]),
    ellipsoid([1.3, 0.8, 1.0], center=[0.2, -0.1, 0.4]),
    paraboloid_epigraph([1.5]),
    paraboloid_epigraph([1.0, 0.7], shift=[0.1, -0.2, 1.0]),
    function_epigraph("square", shift=[0.0, 1.0]),
    hyperboloid_sheet([0.8]),
    hyperboloid_sheet([1.0, 1.4], shift=[0.3, 0.0, -0.5]),
    circular_cone(0.7, shift=[0.1, 0.2]),
    circular_cone(1.3, dim=3, shift=[-0.2, 0.1, 0.3]),
]


@mpmath.workdps(40)
def _form_along(form, y, w):
    """(a, b, c) of Q(y + s w) for Q(y) = y.P y + g.y + c0, and the sums
    of the magnitudes of each one's terms, in mpmath."""
    P, g, c0 = form
    y, w = [mpmath.mpf(float(v)) for v in y], [mpmath.mpf(float(v)) for v in w]
    P, g = [[mpmath.mpf(float(v)) for v in row] for row in P], [mpmath.mpf(float(v)) for v in g]
    n = range(len(y))
    terms = ([P[i][k] * w[i] * w[k] for i in n for k in n],
             [2 * P[i][k] * y[i] * w[k] for i in n for k in n] + [g[i] * w[i] for i in n],
             [P[i][k] * y[i] * y[k] for i in n for k in n] + [g[i] * y[i] for i in n]
             + [mpmath.mpf(float(c0))])
    return [sum(t) for t in terms], [sum(abs(v) for v in t) for t in terms]


@pytest.mark.parametrize("body", QUADRIC_BODIES, ids=lambda b: f"{b.tag or b.kind}-"
                         f"{b.ambient_dim}d{'-moved' if np.any(b.translation) else ''}")
def test_ray_quadratic_matches_the_quadric_form(body):
    # each kind's (a, b, c) against y.P y + g.y + c0 along the ray, and the
    # guess, its smallest positive root, against the exact one from origins
    # inside; steep rays down the sheet and the cone, where G opens
    # downward (a < 0), are among them
    d, form = body.ambient_dim, quadric_form(body)
    rng = np.random.default_rng(17)
    o = body.interior_point() + 0.2 * rng.normal(size=(60, d))
    o = o[np.asarray(body.contains(o))]
    w = _directions(len(o), 18, d)
    y = o - body.translation
    a, b, c = body._impl.ray_quadratic(y.T, w.T)
    guess = bodies._quadratic_roots(body, o.T, w.T)
    for j in range(len(o)):
        exact, size = _form_along(form, y[j], w[j])
        for got, e, m in zip((a[j], b[j], c[j]), exact, size):
            assert abs(got - float(e)) <= 8.0 * EPS * float(m), (j, got, e)
        A, B, C = exact
        with mpmath.workdps(40):
            disc = B * B - 4 * A * C
            roots = [] if disc < 0 else [r for r in ((-B - mpmath.sqrt(disc)) / (2 * A),
                                                     (-B + mpmath.sqrt(disc)) / (2 * A)) if r > 0]
        if roots:
            _assert_rel([guess[j]], [min(roots)])
        else:  # along the recession cone: no root, the ray is probed at the body scale
            assert np.isnan(guess[j])
    if body.kind in ("hyperboloid-upper-sheet", "circular-cone"):
        assert np.count_nonzero(a < 0.0) >= 5 and np.count_nonzero(a > 0.0) >= 5


def test_rays_without_a_root_are_probed_at_the_body_scale(monkeypatch):
    # a ray whose quadratic gives no root (NaN) starts from its probe at the
    # body scale, in the same first call as the guessed rays' probes, and
    # its hit is bitwise the one it gets in a batch of such rays alone
    axes, center = np.array([1.3, 0.8, 1.0]), np.array([0.2, -0.1, 0.4])
    body, o, w = ellipsoid(axes, center=center), center + 0.1, _directions(12, 9)
    exact = [_ellipsoid_hit(axes, center, o, d) for d in w]
    roots = bodies._quadratic_roots

    def bare(every):
        def some_roots(body, P, W):
            g = roots(body, P, W)
            g[::every] = np.nan
            return g
        monkeypatch.setattr(bodies, "_quadratic_roots", some_roots)
        return ray_hits_batch(body, o, w)[0]

    batches = record_defining(monkeypatch)
    mixed = bare(3)
    assert len(batches[0]) == 1 + 4 * 8 + 4
    _assert_rel(mixed, exact)
    assert np.array_equal(mixed[::3], bare(1)[::3])


@pytest.mark.parametrize("body", [superellipsoid(4.0), superellipsoid(3.0, dim=3)] + [
    function_epigraph(tag) for tag in ("quartic", "exp", "cosh")], ids=lambda b: b.tag or b.kind)
def test_other_kinds_have_no_ray_quadratic(body):
    d = body.ambient_dim
    assert body._impl.ray_quadratic(np.zeros((d, 1)), np.ones((d, 1))) is None
    assert bodies._quadratic_roots(body, np.zeros((d, 1)), np.ones((d, 1))) is None


def test_tiny_sphere_sections_end_their_first_polar_batch_in_two_calls(monkeypatch,
                                                                      refuse_closed_forms):
    # sections near the top of the sphere at height 3, squared radius 1e-5
    # to 5e-5: F at the anchor is about -2e-5, and each ray ends once F at
    # its inside end is within F's own rounding, 4 eps T, of 0 (the closed
    # form refused, so that the sections cast their polar batches)
    refuse_closed_forms()
    body = unit_sphere([0.0, 0.0, 3.0])
    u = np.array([0.3, -0.2, 0.9]) / np.linalg.norm([0.3, -0.2, 0.9])
    levels = float(u @ body.translation) + np.sqrt(1.0 - np.linspace(1e-5, 5e-5, 5))
    batches, rounds = record_defining(monkeypatch), []

    def counted(*args, guess=None):
        before = len(batches)
        out = ray_hits_batch(*args, guess=guess)
        rounds.append(len(batches) - before)
        return out

    monkeypatch.setattr(sections, "ray_hits_batch", counted)
    for t in [*levels, levels]:
        rounds.clear()
        section_stats(body, u, t)
        # no centring batch: the first batch is the first polar one
        assert rounds[0] <= 2, (t, rounds)


@pytest.mark.parametrize("body, u, calls", [
    (hyperboloid_sheet([1.0]), [0.3, 1.0], 6),
    (superellipsoid(4.0), [0.4, 0.9], 11),
], ids=["hyperbola", "superellipse"])
def test_chords_on_a_non_quadratic_f_take_no_more_calls(monkeypatch, body, u, calls):
    # F is no quadratic along these chords, so each ray goes on from its
    # probe at s, and the batch takes no more calls than a start from that
    # probe alone
    u = np.array(u) / np.linalg.norm(u)
    lo, hi = admissible_levels(body, u)
    levels = lo + (min(hi, lo + 10.0) - lo) * (np.arange(21) + 0.5) / 21
    batches = record_defining(monkeypatch)
    section_measure(body, u, levels)
    assert len(batches) <= calls


def test_ladder_reaches_a_root_1e40_out():
    # 1e40 out along a ray 1e-20 off the paraboloid's axis: within the
    # ladder's reach of 2^204 body scales
    q, o = np.array([1.0, 1.0]), np.array([0.0, 0.0, 1.0])
    w = np.array([[1e-20, 0.0, 1.0]])
    exact = _paraboloid_hit(q, o, w[0])
    assert float(exact) == pytest.approx(1e40)
    _assert_rel(ray_hits_batch(paraboloid_epigraph(q), o, w)[0], [exact])


def test_bracket_counts_only_the_inside_points_before_the_first_outside():
    # near the root F's rounding can read a later probe inside again: the
    # probes inside, outside, inside leave the first inside as l, the
    # outside one as h, and the last inside one as p
    E = np.full((2, 4, 1), np.nan)  # position and F at Lp, l, h, p
    E[:, 1] = [[0.0], [-1.0]]  # the origin, slot l before the round
    probes = np.array([[[1.0], [2.0], [3.0]], [[-1e-12], [1e-13], [-1e-14]]])
    assert bodies._read(E, probes).tolist() == [1]
    assert E[0, :, 0].tolist() == [0.0, 1.0, 2.0, 3.0]
    assert E[1, :, 0].tolist() == [-1.0, -1e-12, 1e-13, -1e-14]


@pytest.mark.parametrize("fa, fb, c, slots", [
    (0.5, -0.25, 0, "Lp l a b"),  # a outside (b's sign is not read)
    (-0.5, -0.25, 2, "a b h p"),  # a and b inside
    (-0.5, 2.0, 1, "l a b h"),  # a inside, b outside
], ids=["a-outside", "both-inside", "a-inside-b-outside"])
def test_solver_step_moves_the_bracket_by_its_points_signs(fa, fb, c, slots):
    # the solver's points a < b sit between l and h; the sequence Lp, l, a,
    # b, h, p gives the new Lp, l, h, p from c on, in every layer
    # (position, F and band)
    before = {"Lp": (1.0, -3.0, 0.1), "l": (2.0, -1.0, 0.2),
              "h": (5.0, 4.0, 0.5), "p": (6.0, 9.0, 0.6)}
    points = {"a": (3.0, fa, 0.3), "b": (4.0, fb, 0.4)}
    E = np.array([before[k] for k in ("Lp", "l", "h", "p")]).T[:, :, None]
    new = np.array([points["a"], points["b"]]).T[:, :, None]
    assert bodies._read(E, new).tolist() == [c]
    expect = np.array([dict(before, **points)[k] for k in slots.split()]).T
    assert E[:, :, 0].tolist() == expect.tolist()


def test_compacted_batch_matches_rays_alone(monkeypatch):
    # 28 of 32 rays are guessed to rounding and end on their probes; the 4
    # rays of the step-cap test's direction start from 1, climb the ladder
    # and take 8 solver steps under a mask that holds their columns alone:
    # each hit and each origin's count is bitwise the one it gets alone
    body = superellipsoid(8.0)
    rng = np.random.default_rng(7)
    angle = rng.uniform(0.0, 2.0 * math.pi, 32)
    w = np.column_stack([np.cos(angle), np.sin(angle)])
    hard = [3, 11, 19, 27]
    w[hard] = [0.6, 0.8]
    origins = 0.05 * rng.normal(size=(4, 2))
    guess = np.array([ray_hits_batch(body, origins[j // 8], w[j:j + 1])[0][0]
                      for j in range(32)])
    guess[hard] = 1.0
    batches = record_defining(monkeypatch)
    hits, n_evals = ray_hits_batch(body, origins, w, guess=guess)
    # the probe round, one ladder round of the four, then their steps
    assert [len(x) for x in batches[:3]] == [4 * 32 + 4, 4 * 12, 4 * 2]
    assert len(batches) >= 3 + 6
    for j in range(32):
        assert ray_hits_batch(body, origins[j // 8], w[j:j + 1],
                              guess=guess[j:j + 1])[0][0] == hits[j]
    alone = [ray_hits_batch(body, o, w[8 * i:8 * i + 8], guess=guess[8 * i:8 * i + 8])
             for i, o in enumerate(origins)]
    assert np.array_equal(hits, np.concatenate([h for h, _ in alone]))
    assert n_evals.tolist() == [n for _, n in alone]


SHALLOW_SPHERE = unit_sphere(center=[0.0, 0.0, 3.0])
SHALLOW_NORMAL = np.array([0.10284860274165833, -0.5251933749582453, 0.8447449815264111])


@pytest.mark.parametrize("depth, rel", [(1e-9, 1e-5), (1e-11, 1e-4)])
def test_shallow_cut_brackets_through_rounding_noise(depth, rel):
    # the first polar batch of these tiny sections probes anchors where F is
    # -8e-13 to -1.2e-10, and rounding can read a probe past the root inside
    u = SHALLOW_NORMAL / np.linalg.norm(SHALLOW_NORMAL)
    lo = -SHALLOW_SPHERE.support(-u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = halfspace_cut_volume(SHALLOW_SPHERE, u, lo + depth)
    # the cap of height d of the unit sphere
    assert v == pytest.approx(math.pi * depth ** 2 * (1.0 - depth / 3.0), rel=rel, abs=0.0)


def test_rejects_a_guess_of_the_wrong_length():
    body, w = ellipsoid([1.0, 2.0]), np.array([[1.0, 0.0], [0.0, 1.0]])
    for guess in ([1.0], [1.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match="guess must hold one distance per ray: 2 expected"):
            ray_hits_batch(body, np.zeros(2), w, guess=guess)


def test_one_origin_keeps_its_shapes():
    body = ellipsoid([1.0, 2.0])
    w = np.array([[1.0, 0.0], [0.0, -1.0]])
    hits, n = ray_hits_batch(body, np.zeros(2), w)
    grouped, counts = ray_hits_batch(body, np.zeros((1, 2)), w)
    assert isinstance(n, int) and counts.tolist() == [n]
    assert np.array_equal(hits, grouped)
    for origins in (np.zeros((2, 2)), np.zeros((0, 2))):
        with pytest.raises(ValueError):
            ray_hits_batch(body, origins, w[:1])


def test_flat_quartic_chord():
    # F = x^4 - y is nearly flat along the chord: a plain regula falsi stalls here
    body = function_epigraph("quartic")
    y0 = 1.1634e-5
    hits, _ = ray_hits_batch(body, np.array([0.0, y0]), np.array([[1.0, 0.0], [-1.0, 0.0]]))
    _assert_rel(hits, [y0 ** 0.25] * 2)


def test_exp_epigraph_rays_through_overflow():
    body = function_epigraph("exp")
    # bracketing from the body scale doubles past x = 709, where exp overflows
    y0 = 1e300
    hit, _ = ray_hits_batch(body, np.array([0.0, y0]), np.array([[1.0, 0.0]]))
    _assert_rel(hit, [math.log(y0)])
    # a guess far out starts the bracket at F = inf
    w = np.array([[1.0, 0.0], [0.6, -0.8]])
    hits, _ = ray_hits_batch(body, np.array([0.0, 2.0]), w, guess=[1e4, 2e3])
    with mpmath.workdps(40):
        s = mpmath.findroot(lambda s: mpmath.exp(0.6 * s) - 2 + 0.8 * s, 0.5)
    _assert_rel(hits, [math.log(2.0), s])


def test_gauge_is_zero_along_recession_directions():
    # shifted down by 1 so that 0 is interior; the vertical ray never leaves it
    pb = paraboloid_epigraph([1.0, 1.0], shift=[0.0, 0.0, -1.0])
    assert pb.gauge([0.0, 0.0, 5.0]) == 0.0
    # across the axis the boundary is at x^2 = 1
    assert pb.gauge([3.0, 0.0, 0.0]) == pytest.approx(3.0, rel=1e-12)


def test_rejects_directions_of_the_wrong_shape():
    body = ellipsoid([1.0, 1.0, 1.0])
    for w in (np.array([0.0, 0.0, 1.0]), np.array([[0.0, 1.0]]), np.zeros((1, 1, 3))):
        with pytest.raises(ValueError, match="directions"):
            ray_hits_batch(body, np.zeros(3), w)


def test_rejects_non_finite_rays():
    body = ellipsoid([1.0, 1.0])
    with pytest.raises(ValueError):
        ray_hits_batch(body, np.array([np.nan, 0.0]), np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        ray_hits_batch(body, np.zeros(2), np.array([[np.inf, 0.0]]))


def test_recessive_ray_fails_bracketing():
    # up the paraboloid's axis every point of the 17 ladder rounds stays inside
    body = paraboloid_epigraph([1.0, 1.0])
    with pytest.raises(GeometryError, match="boundary bracketing failed"):
        ray_hits_batch(body, np.array([0.0, 0.0, 1.0]), np.array([[0.0, 0.0, 1.0]]))


def test_origin_outside_the_body_is_refused():
    with pytest.raises(NotInterior):
        ray_hits_batch(ellipsoid([1.0, 2.0]), np.array([3.0, 0.0]), np.array([[0.0, 1.0]]))


def test_step_cap_takes_the_chord_root_of_the_open_bracket(monkeypatch):
    # |x|^8 + |y|^8 <= 1 takes 11 solver steps on this ray
    body, w = superellipsoid(8.0), np.array([[0.6, 0.8]])
    [root], _ = ray_hits_batch(body, np.zeros(2), w)
    batches = record_defining(monkeypatch)
    counts = []
    for cap in (4, 5, 6):
        monkeypatch.setattr(bodies, "_SOLVE_STEPS", cap)
        batches.clear()
        [hit], n = ray_hits_batch(body, np.zeros(2), w)
        # the bracket [l, h] left open: every point the solver evaluates lies
        # in it, so l and h are the farthest inside and nearest outside point
        # (read back off the points to rounding)
        points = np.concatenate(batches)
        s, f = points @ w[0], body.defining(points)
        inside = f <= 0.0
        l, fl = max(zip(s[inside], f[inside]))
        h, fh = min(zip(s[~inside], f[~inside]))
        # the hit is its chord root; F is convex along the ray, so that lies
        # inside the body, between l and the root
        assert hit == pytest.approx(l - fl * ((h - l) / (fh - fl)), rel=4 * EPS)
        assert 0.0 < l < hit < root < h and body.defining(hit * w[0]) <= 0.0
        counts.append(n)
    assert np.diff(counts).tolist() == [2, 2]
