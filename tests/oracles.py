"""Brute-force geometric oracles, independent of the library's quadrature.

Everything here works from the membership predicate alone: dense grids and
sign scans, no support functions, no adaptive integration.  Slow but dumb,
which is the point.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np


def chord_endpoints_brute(body, u, t, span, n=200_001):
    """Endpoints of the section {<u,x> = t} by dense scan along the line.

    Scans n points over s in [-span, span] in the in-plane direction and
    refines each boundary crossing by bisection on the membership predicate.
    Accuracy is limited only by the bisection, ~1e-12 * span.
    """
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    v = np.array([-u[1], u[0]])
    s = np.linspace(-span, span, n)
    pts = t * u[None, :] + s[:, None] * v[None, :]
    inside = body.contains(pts)
    if not inside.any():
        raise ValueError("no chord found in the scan window")
    idx = np.flatnonzero(inside)
    lo_i, hi_i = idx[0], idx[-1]
    if lo_i == 0 or hi_i == n - 1:
        raise ValueError("scan window too small")

    def refine(a, b):
        # membership flips exactly once in [a, b]
        fa = bool(body.contains(t * u + a * v))
        for _ in range(80):
            m = 0.5 * (a + b)
            if bool(body.contains(t * u + m * v)) == fa:
                a = m
            else:
                b = m
        return 0.5 * (a + b)

    s_lo = refine(s[lo_i - 1], s[lo_i])
    s_hi = refine(s[hi_i], s[hi_i + 1])
    return t * u + s_lo * v, t * u + s_hi * v


def chord_midpoint_brute(body, u, t, span, n=200_001):
    p, q = chord_endpoints_brute(body, u, t, span, n)
    return 0.5 * (p + q)


def chord_length_brute(body, u, t, span, n=200_001):
    p, q = chord_endpoints_brute(body, u, t, span, n)
    return float(np.linalg.norm(q - p))


def halfspace_area_brute(body, u, t, box, n=1500):
    """Area of {x in body : <u,x> <= t} by grid counting over `box`.

    box = (xmin, xmax, ymin, ymax) must contain the cut region.  Error is
    O(perimeter * cell), so roughly (box width / n) in absolute terms.
    """
    u = np.asarray(u, dtype=float)
    xmin, xmax, ymin, ymax = box
    xs = np.linspace(xmin, xmax, n)
    ys = np.linspace(ymin, ymax, n)
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X, Y], axis=-1)
    mask = body.contains(pts) & (pts @ u <= t)
    return float(mask.sum()) * cell


def epigraph_cut_area_brute(fn, x_lo, x_hi, line, n=400_001):
    """Area between the graph y = fn(x) and the chord line y = a*x + b,
    by composite midpoint rule on a dense grid."""
    a, b = line
    xs = np.linspace(x_lo, x_hi, n)
    mid = 0.5 * (xs[:-1] + xs[1:])
    gap = np.maximum(a * mid + b - fn(mid), 0.0)
    return float(gap.sum() * (xs[1] - xs[0]))


def parabola_chord_midpoint(m, c):
    """Closed form: midpoint of the chord of y = x^2 on the line y = m x + c."""
    disc = m * m + 4.0 * c
    if disc <= 0.0:
        raise ValueError("line misses the parabola")
    x_mid = m / 2.0
    return np.array([x_mid, m * x_mid + c])


def parabola_chord_area(m, c):
    """Closed form: area cut from the epigraph of y = x^2 by y = m x + c."""
    disc = m * m + 4.0 * c
    if disc <= 0.0:
        return 0.0
    return disc ** 1.5 / 6.0


def hyperbola_homothety_value(k):
    """Closed form for y = sqrt(1+x^2): area below y = k over the epigraph."""
    r = math.sqrt(k * k - 1.0)
    return k * 2.0 * r - (r * math.sqrt(1.0 + r * r) + math.asinh(r))


def disk_segment_area(radius, d):
    """Area of the disk part at signed distance <= d from the center."""
    if d <= -radius:
        return 0.0
    if d >= radius:
        return math.pi * radius * radius
    th = math.acos(-d / radius)
    return radius * radius * (th - math.sin(th) * math.cos(th)) + 0.0


def sphere_cap_volume(radius, d):
    """Volume of the ball part at signed distance <= d from the center."""
    if d <= -radius:
        return 0.0
    if d >= radius:
        return 4.0 / 3.0 * math.pi * radius ** 3
    h = radius + d
    return math.pi * h * h * (3.0 * radius - h) / 3.0


@mpmath.workdps(40)
def ellipsoid_cap_volume(semi_axes, centre, u, t):
    """Volume of the 3D ellipsoid part on the <= side of {<u,x> = t}, in
    40-digit arithmetic on the floats given: the map x = centre + diag(r) y
    takes it to the unit ball's cap at signed distance (t - <u, centre>) /
    |diag(r) u| from its centre, and multiplies volumes by prod r."""
    r, c, u = ([mpmath.mpf(float(v)) for v in w] for w in (semi_axes, centre, u))
    d = (mpmath.mpf(float(t)) - sum(a * b for a, b in zip(u, c))) / mpmath.sqrt(
        sum((a * b) ** 2 for a, b in zip(r, u)))
    h = min(max(1 + d, 0), 2)
    return float(r[0] * r[1] * r[2] * mpmath.pi * h * h * (3 - h) / 3)


def paraboloid_cap_volume(coeffs, shift, a):
    """Closed form: volume of {z >= sum q_i (x_i - b_i)^2 + b_z} on the <= side
    of {<a,x> = 1}, a_z > 0: pi D^2 / (2 sqrt(prod q)) for D the plane's
    greatest height above the surface."""
    q, b, a = (np.asarray(v, dtype=float) for v in (coeffs, shift, a))
    m = a[:-1] / a[-1]
    D = (1.0 - a[:-1] @ b[:-1]) / a[-1] - b[-1] + float(np.sum(m * m / (4.0 * q)))
    return math.pi * D * D / (2.0 * math.sqrt(float(np.prod(q)))) if D > 0.0 else 0.0


def cone_cap_volume(slope, apex, a):
    """Closed form: volume of {z - p_z >= slope |x' - p'|} on the <= side of
    {<a,x> = 1}, 0 <= |a'| < slope a_z: the plane z - p_z = c - <a', x' - p'> / a_z
    over it bounds a cone of volume (c / 3) pi (c / slope)^2 / (1 - e^2)^(3/2),
    e = |a'| / (slope a_z) the eccentricity of its section's shadow."""
    p, a = np.asarray(apex, dtype=float), np.asarray(a, dtype=float)
    c = (1.0 - a @ p) / a[-1]
    e = float(np.linalg.norm(a[:-1])) / (slope * a[-1])
    return c / 3.0 * math.pi * (c / slope) ** 2 / (1.0 - e * e) ** 1.5 if c > 0.0 else 0.0


def shell_points_bisection(body, R, n_azimuth=720):
    """Boundary points at distance R from the origin, by bisecting every sign
    change of F <= 0 on the shell scan's arcs for 56 steps.

    The same scan and bracket angle d as ``asymptotics.body_shell_points``,
    p(d) = R (cos(d) u0 + sin(d) t0) from each bracket's inside sample
    u0; each step halves every bracket with one ``defining`` call. Returns
    the inside end of each final bracket.
    """
    from ccgeom.asymptotics import _arcs

    R = float(R)
    dim = body.ambient_dim
    U, T, step = _arcs(dim, n_azimuth)
    inside = body.defining(R * U) <= 0.0
    arc, j = np.nonzero(inside[:, :-1] != inside[:, 1:])
    first_in = inside[arc, j][:, None]
    u0 = np.where(first_in, U[arc, j], U[arc, j + 1])
    t0 = np.where(first_in, T[arc, j], -T[arc, j + 1])

    def on_sphere(d):
        return R * (np.cos(d)[:, None] * u0 + np.sin(d)[:, None] * t0)

    lo, hi = np.zeros(len(j)), np.full(len(j), step)
    for _ in range(56):
        mid = 0.5 * (lo + hi)
        mid_in = body.defining(on_sphere(mid)) <= 0.0
        lo, hi = np.where(mid_in, mid, lo), np.where(mid_in, hi, mid)
    return on_sphere(lo)


def quadric_form(body):
    """(P, g, c) with Q(y) = y.P y + g.y + c negative exactly inside a
    quadric body, y about its translation: F on the ellipsoid, the elliptic
    paraboloid and the square epigraph, height^2 - y_d^2 on the hyperboloid
    sheet and the circular cone (on the side of the upper sheet)."""
    p = np.asarray(body.params, dtype=float)
    d = body.ambient_dim
    down = -np.eye(d)[-1]
    if body.kind == "ellipsoid":
        return np.diag(1.0 / p ** 2), np.zeros(d), -1.0
    if body.kind == "elliptic-paraboloid-epigraph":
        return np.diag(np.append(p, 0.0)), down, 0.0
    if body.tag == "square":
        return np.diag([1.0, 0.0]), down, 0.0
    if body.kind == "hyperboloid-upper-sheet":
        return np.diag(np.append(1.0 / p ** 2, -1.0)), np.zeros(d), 1.0
    assert body.kind == "circular-cone"
    return np.diag(np.append(np.full(d - 1, p[0] ** 2), -1.0)), np.zeros(d), 0.0


@mpmath.workdps(40)
def plane_ellipse(body, u, t):
    """Centre, semi-axes (a >= b) and form A of the ellipse that is the
    section {<u,x> = t} of a 3D quadric body, in 40-digit arithmetic on the
    floats u and t and ``quadric_form``: the section is the set of points x
    of its plane with (x - centre)^T A (x - centre) <= 1.

    In an orthonormal basis E of the plane through y0 = t u/|u|^2 (about the
    body's translation), Q(y0 + E s) = s^T M s + h^T s + Q(y0), with M =
    E^T P E and h = E^T (2 P y0 + g): the centre is s* = -M^-1 h / 2 and
    the section s^T M s <= kappa about it, kappa = -Q(y0 + E s*), so A =
    P / kappa on the plane and the semi-axes are sqrt(kappa / lambda) over
    M's eigenvalues lambda.
    """
    P, g, c = (mpmath.matrix(np.atleast_1d(v).tolist()) for v in quadric_form(body))
    c = c[0]
    u = mpmath.matrix([float(v) for v in u])
    uu = (u.T * u)[0]
    k = int(np.argmin(np.abs([float(v) for v in u])))
    e1 = mpmath.matrix([1 if i == k else 0 for i in range(3)]) - u * (u[k] / uu)
    e1 /= mpmath.norm(e1)
    e2 = mpmath.matrix([u[1] * e1[2] - u[2] * e1[1], u[2] * e1[0] - u[0] * e1[2],
                        u[0] * e1[1] - u[1] * e1[0]]) / mpmath.sqrt(uu)
    E = mpmath.matrix([[e1[i], e2[i]] for i in range(3)])
    x0 = u * (mpmath.mpf(float(t)) / uu)
    y0 = x0 - mpmath.matrix([float(v) for v in body.translation])
    M = E.T * P * E
    h = E.T * (2 * P * y0 + g)
    s = -(M ** -1 * h) / 2
    kappa = -((y0.T * P * y0)[0] + (g.T * y0)[0] + c + (h.T * s)[0] / 2)
    tr, det = M[0, 0] + M[1, 1], M[0, 0] * M[1, 1] - M[0, 1] ** 2
    root = mpmath.sqrt(tr * tr - 4 * det)
    lam = ((tr - root) / 2, (tr + root) / 2)
    centre = np.array([float(v) for v in x0 + E * s])
    A = np.array([[float(P[i, j] / kappa) for j in range(3)] for i in range(3)])
    return centre, float(mpmath.sqrt(kappa / lam[0])), float(mpmath.sqrt(kappa / lam[1])), A


def superellipsoid_section_stats(p, u, t):
    """Area and centroid of the section {<u,x> = t} of the 3D body
    |x|^p + |y|^p + |z|^p <= 1, by adaptive quadrature in polar coordinates.

    Each radius is a root of F along its ray from t*u (which must be inside),
    found by ``brentq``; ``quad`` integrates r^2/2 and r^3 (cos, sin)/3 over
    the arcs between the boundary points on the coordinate planes, where
    |x_i|^p is not smooth. Accurate to about 1e-13 for p near 2.
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq, minimize_scalar

    u = np.asarray(u, dtype=float) / np.linalg.norm(u)

    def F(x):
        return float(np.sum(np.abs(x) ** p)) - 1.0

    e1 = np.zeros(3)
    e1[(int(np.argmax(np.abs(u))) + 1) % 3] = 1.0
    e1 -= u * (u @ e1)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    c0 = t * u
    if F(c0) >= 0.0:
        raise ValueError("t*u is not inside the body")

    def radius(th):
        w = math.cos(th) * e1 + math.sin(th) * e2
        return brentq(lambda r: F(c0 + r * w), 0.0, 4.0, xtol=1e-16)

    breaks = [0.0, 2.0 * math.pi]
    for i in range(3):
        w = np.eye(3)[i] - u * u[i]  # in the plane, along which x_i changes
        d = np.cross(u, np.eye(3)[i])  # in the plane, along which x_i = const
        if abs(w[i]) < 1e-12:
            continue
        q = c0 - c0[i] / w[i] * w  # the point of the plane's line x_i = 0 nearest c0
        d /= np.linalg.norm(d)

        def g(s):
            return F(q + s * d)
        m = minimize_scalar(g, bracket=(-1.0, 1.0)).x
        if g(m) >= 0.0:
            continue
        for s in (brentq(g, m - 4.0, m, xtol=1e-16), brentq(g, m, m + 4.0, xtol=1e-16)):
            v = q + s * d - c0
            breaks.append(math.atan2(v @ e2, v @ e1) % (2.0 * math.pi))
    breaks.sort()

    def integral(f):
        return sum(quad(f, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                   for a, b in zip(breaks, breaks[1:]) if b > a)

    area = integral(lambda th: 0.5 * radius(th) ** 2)
    m1 = integral(lambda th: radius(th) ** 3 * math.cos(th) / 3.0)
    m2 = integral(lambda th: radius(th) ** 3 * math.sin(th) / 3.0)
    return area, c0 + (m1 * e1 + m2 * e2) / area


@mpmath.workdps(40)
def line_fit(points):
    """Base (the mean) and unit direction of the least-squares line through
    the float points, an (n, d) array, in 40-digit arithmetic: the direction
    is the scatter matrix's top eigenvector, as mpmath floats."""
    P = [[mpmath.mpf(float(v)) for v in row] for row in np.asarray(points)]
    n, d = len(P), len(P[0])
    base = [mpmath.fsum(row[j] for row in P) / n for j in range(d)]
    C = mpmath.matrix(d, d)
    for row in P:
        c = [row[j] - base[j] for j in range(d)]
        for i in range(d):
            for j in range(d):
                C[i, j] += c[i] * c[j]
    lam, Q = mpmath.eigsy(C)
    k = max(range(d), key=lambda j: lam[j])
    return base, [Q[j, k] for j in range(d)]
