"""Closed-form references for every value the benchmark times.

Nothing here calls into ccgeom: each function works from the body's
parameters alone, by classical formulas (caps, segments, conjugate
diameters, Archimedes' paraboloid volume) or, where a formula needs one
root of a smooth scalar equation, by scipy's Brent solver on that equation.
None of it shares code with the library's quadrature or root-finders.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq


def _unit(a):
    a = np.asarray(a, dtype=float)
    n = float(np.linalg.norm(a))
    return a / n, 1.0 / n, n


# -- balls (3D sphere, 2D disk) ----------------------------------------------


def ball_cut(center, a, r=1.0):
    """Cut {<a,x> <= 1} of the ball |x - center| <= r in 2D or 3D.

    Returns (volume, section measure, section centroid, section diameter,
    gradient of the volume in a).
    """
    center = np.asarray(center, dtype=float)
    u, t, nrm = _unit(a)
    delta = t - float(u @ center)  # signed offset of the plane from the center
    if abs(delta) >= r:
        raise ValueError("plane misses the ball")
    rho = math.sqrt(r * r - delta * delta)
    if center.shape[0] == 3:
        h = delta + r
        volume = math.pi * h * h * (3.0 * r - h) / 3.0
        measure = math.pi * rho * rho
    else:
        volume = r * r * math.acos(-delta / r) + delta * rho
        measure = 2.0 * rho
    centroid = center + delta * u
    grad = -measure * centroid / nrm
    return volume, measure, centroid, 2.0 * rho, grad


# -- elliptic paraboloid z >= sum q_i (x_i - s_i)^2 + s_n ---------------------


def paraboloid_cut(q, shift, a):
    """Cut {<a,x> <= 1} of a shifted paraboloid epigraph, 2D or 3D (a_n > 0).

    The cut is the region between the graph and a plane whose greatest
    vertical height above the graph is h. Its measure is (4/3) h^(3/2) /
    sqrt(q) for the parabola y >= q x^2 and pi h^2 / (2 sqrt(q1 q2)) for the
    paraboloid (Archimedes), whatever the tilt of the plane. The gradient is the exact
    derivative of that formula; the section measure and centroid follow from
    the identity grad V = -measure * centroid / |a|.

    Returns (volume, section measure, section centroid, gradient).
    """
    q = np.asarray(q, dtype=float)
    s = np.asarray(shift, dtype=float)
    a = np.asarray(a, dtype=float)
    an = a[-1]
    if an <= 0.0:
        raise ValueError("cut must bound the paraboloid from above")
    c = 1.0 - float(a @ s)
    ah = a[:-1]
    h = c / an + float(np.sum(ah * ah / (4.0 * q))) / an ** 2
    if h <= 0.0:
        raise ValueError("plane misses the paraboloid")
    dh = np.empty_like(a)
    dh[:-1] = -s[:-1] / an + ah / (2.0 * q * an ** 2)
    dh[-1] = -s[-1] / an - c / an ** 2 - float(np.sum(ah * ah / (2.0 * q))) / an ** 3
    if q.shape[0] == 2:
        k = math.pi / (2.0 * math.sqrt(q[0] * q[1]))
        volume = k * h * h
        grad = 2.0 * k * h * dh
    else:
        volume = 4.0 / 3.0 * h ** 1.5 / math.sqrt(q[0])
        grad = 2.0 * math.sqrt(h / q[0]) * dh
    nrm = float(np.linalg.norm(a))
    measure = -nrm * float(a @ grad)
    centroid = -nrm * grad / measure
    return volume, measure, centroid, grad


# -- hyperbola y >= sqrt(1 + x^2 / alpha^2) ------------------------------------


def hyperbola_cut(alpha, a):
    """Cut {<a,x> <= 1} of the hyperbola epigraph, by the hyperbolic angle.

    With x = alpha sinh s, y = cosh s the chord spans an angle D and the
    segment area is alpha (sinh D - D) / 2.
    Returns (area, chord length, chord midpoint).
    """
    A, B = float(a[0]) * alpha, float(a[1])
    K = math.sqrt(B * B - A * A)
    if not (B > abs(A) and K < 1.0):
        raise ValueError("cut is unbounded or misses the hyperbola")
    half = math.acosh(1.0 / K)
    s0 = math.atanh(A / B)
    ends = [np.array([alpha * math.sinh(s), math.cosh(s)])
            for s in (-s0 - half, -s0 + half)]
    D = 2.0 * half
    area = alpha * (math.sinh(D) - D) / 2.0
    return area, float(np.linalg.norm(ends[1] - ends[0])), 0.5 * (ends[0] + ends[1])


def hyperbola_homothety_area(alpha, k):
    """Area cut from the hyperbola by a tangent line scaled by k from the apex."""
    D = 2.0 * math.acosh(k)
    return alpha * (math.sinh(D) - D) / 2.0


def parabola_parallel_area(k):
    """Area between y = x^2 and any tangent line raised by k."""
    return 4.0 / 3.0 * k ** 1.5


# -- centroid lines -------------------------------------------------------------


def conjugate_line(center, form_inverse_diag, u):
    """Centroid line of a central quadric: through the center along Q^-1 u."""
    d = np.asarray(form_inverse_diag, dtype=float) * np.asarray(u, dtype=float)
    return np.asarray(center, dtype=float), d / np.linalg.norm(d)


def paraboloid_line(q, u):
    """Vertical centroid line through the contact point of the normal u."""
    q = np.asarray(q, dtype=float)
    u = np.asarray(u, dtype=float)
    foot = -u[:-1] / (2.0 * q * u[-1])
    e = np.zeros(u.shape[0])
    e[-1] = 1.0
    return np.concatenate([foot, [0.0]]), e


def line_gap(base, direction, ref_point, ref_dir):
    """(distance of ref_point from the line, gap between the unit directions).

    The gap is the distance between the two directions oriented alike, which
    is the angle between them to first order without the cancellation that
    1 - cos^2 suffers at small angles.
    """
    d = np.asarray(ref_point, dtype=float) - base
    off = d - (d @ direction) * direction
    sign = 1.0 if float(direction @ ref_dir) >= 0.0 else -1.0
    return float(np.linalg.norm(off)), float(np.linalg.norm(direction - sign * ref_dir))


def superellipse_residual(p, u, levels):
    """Collinearity residual of the chord midpoints of |x|^p + |y|^p <= 1.

    p must be an even integer, so that each chord's endpoints are the extreme
    real roots of a polynomial in the chord parameter; the roots are polished
    by Newton's method. The line fit is a plain principal-axis fit.
    Returns (residual_norm, mean of the midpoints).
    """
    u = np.asarray(u, dtype=float)
    w = np.array([-u[1], u[0]])
    pp = int(p)
    mids = []
    for t in levels:
        poly = (np.polynomial.Polynomial([t * u[0], w[0]]) ** pp
                + np.polynomial.Polynomial([t * u[1], w[1]]) ** pp - 1.0)
        roots = poly.roots()
        real = np.sort(roots[np.abs(roots.imag) < 1e-6].real)
        slope = poly.deriv()
        ends = []
        for s in (real[0], real[-1]):
            for _ in range(4):
                s = s - poly(s) / slope(s)
            ends.append(s)
        mids.append(t * u + 0.5 * (ends[0] + ends[1]) * w)
    pts = np.array(mids)
    base = pts.mean(axis=0)
    c = pts - base
    direction = np.linalg.svd(c, full_matrices=False)[2][0]
    along = c @ direction
    perp = c - np.outer(along, direction)
    rms = math.sqrt(float(np.mean(np.sum(perp ** 2, axis=-1))))
    return min(rms / math.sqrt(float(np.mean(along ** 2))), 1.0), base


# -- shell distances --------------------------------------------------------------


def hausdorff(A, B):
    d = np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=-1))
    return max(float(d.min(axis=1).max()), float(d.min(axis=0).max()))


def unit_hyperboloid_shell(R):
    """Shell distance of y >= sqrt(1 + |x|^2) (2D or rotationally 3D) at S_R."""
    z = math.sqrt((R * R + 1.0) / 2.0)
    r = math.sqrt((R * R - 1.0) / 2.0)
    return math.hypot(r - R / math.sqrt(2.0), z - R / math.sqrt(2.0))


def azimuth_shell_3d(kind, params, R, n_azimuth):
    """Shell distance sampled at the azimuths phi_k = 2 pi k / n.

    The boundary meets the sphere once in each azimuthal half-plane, at a
    radius solved in closed form; the cone is sampled at the same parameter
    angles as its own closed form. The Hausdorff distance of the two samples
    is then exact for that sampling.
    """
    p = np.asarray(params, dtype=float)
    phi = 2.0 * math.pi * np.arange(n_azimuth) / n_azimuth
    c, s = np.cos(phi), np.sin(phi)
    if kind == "hyperboloid":
        k2 = (c / p[0]) ** 2 + (s / p[1]) ** 2
        r = np.sqrt((R * R - 1.0) / (1.0 + k2))
        z = np.sqrt(1.0 + r * r * k2)
        cone = np.column_stack([p[0] * c, p[1] * s, np.ones(n_azimuth)])
        cone = R * cone / np.linalg.norm(cone, axis=-1, keepdims=True)
    else:  # paraboloid
        k2 = p[0] * c * c + p[1] * s * s
        z = (-1.0 / k2 + np.sqrt(1.0 / k2 ** 2 + 4.0 * R * R)) / 2.0
        r = np.sqrt(R * R - z * z)
        cone = np.array([[0.0, 0.0, R]])
    body = np.column_stack([r * c, r * s, z])
    return hausdorff(body, cone)


_RTOL = 4.0 * np.finfo(float).eps


def exp_shell(R, center_y=0.0):
    """Shell points of y >= e^x on the circle |x - (0, center_y)| = R.

    Returns the two crossings, relative to the circle's center.
    """
    left = brentq(lambda x: x * x + (math.exp(x) - center_y) ** 2 - R * R,
                  -R - 1.0, 0.0, xtol=1e-15 * R, rtol=_RTOL, maxiter=500)
    top = brentq(lambda y: math.log(y) ** 2 + (y - center_y) ** 2 - R * R,
                 max(center_y, 1.0), R + center_y + 1.0, xtol=1e-15 * R,
                 rtol=_RTOL, maxiter=500)
    return np.array([[left, math.exp(left) - center_y],
                     [math.log(top), top - center_y]])


def hyperbola_blowdown(R):
    """Blow-down distance of y >= sqrt(1 + x^2) seen from (0, 2) at radius R."""
    y = 1.0 + math.sqrt((R * R - 1.0) / 2.0)
    x = math.sqrt(y * y - 1.0)
    body = np.array([[x, y - 2.0], [-x, y - 2.0]])
    cone = R / math.sqrt(2.0) * np.array([[1.0, 1.0], [-1.0, 1.0]])
    return hausdorff(body, cone) / R


def quadrant_shell(points, R):
    """Hausdorff distance of 2D shell points to the quadrant's two rays at R."""
    return hausdorff(points, np.array([[-R, 0.0], [0.0, R]]))
