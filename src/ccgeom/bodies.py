"""Catalog of convex bodies in R^2 / R^3 with exact analytic oracles.

Every body is described by a global convex defining function F with
membership F(x) <= 0. Every boundary query (ray hits, chords, the gauge)
is a root of F along rays, solved by one batched bracketing root-finder,
``ray_hits_batch``, so downstream quadrature error is attributable to the
integration scheme, not the oracles. Only bodies go through it.

Each body kind lives in one class of the table ``_BODY_KINDS``: parameter
check, F, grad F, interior point, support limit, inverse Gauss map and
recession cone (built once per body), in the body's own frame, and two
hooks for the root-finder: ``terms``, the size of F's rounding, read off F
and the point's last local coordinate y_d (a function that computes it,
called only by the kinds that read it), and ``form``, a quadric Q with F's
sign, where the kind has one, whose coefficients along a ray
``ray_quadratic`` states (F itself on the ellipsoid, the elliptic
paraboloid and the square epigraph; F (F + 2 y_d) = height^2 - y_d^2 on
the hyperboloid sheet and the circular cone); the module function of that
name states them in space, for the root-finder's guesses, the centres
of quadric sections and the shell crossings of ``asymptotics``. The four
unbounded kinds are epigraphs y >= height(x') and share F, the inverse
Gauss map and ``_graph_contacts``, the boundary points and normals over
abscissae, which the other kinds refuse; the sheet and the cone are one
class, the upper nappe height = sqrt(k + sum (x_i / a_i)^2), with k = 1 on
the sheet and k = 0 on the cone. The support
function is read off the Gauss map, h(u) = <u, x(u)> with x(u) the
boundary point of outer normal u, exactly on the attained normals;
elsewhere h is its limit, 0 or +inf.

Each recession cone kind ({0}, ray, quadrant, elliptic) is one class of the
table ``_CONE_KINDS``, and every cone predicate is one comparison of its
margin m(a): m(a) > 0 exactly when <a, v> > 0 on the cone minus 0, and
m(a) >= 0 exactly when <a, v> >= 0 on the cone. A cone answers cone
questions only; a full-dimensional one, {x^T Q x <= 0}, also gives the
direction Q^-1 u of its sections' centroid line. No other module tests a
body or cone kind.

Membership and defining-value evaluation are vectorized over trailing
point batches (shape (..., dim)). F's value at a point must not depend on
the memory layout of its batch: the root-finder and the shell scan build
their batches coordinate-major, one contiguous row per coordinate, and
hand F the transposed view. The Gauss map and the cone margins take an
(n, d) array of unit normals, and the scalar oracles are one-row calls of
them. A row's result does not depend on the other rows: its sums are
taken along the row by ``np.add.reduce`` or by ``np.vecdot``, which calls
the dot kernel of ``u @ x`` once per row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    GeometryError,
    InadmissibleNormal,
    NotGraphLike,
    NotInterior,
    NotOnBoundary,
    OriginNotInterior,
)

INF = math.inf

_UNIT_TOL = 1e-12
# cone margins within this of 0 count as 0 in support and sides
_MARGIN_TOL = 1e-14
# epigraph normals this close to the edge of the attained set get h's limit
_EDGE_TOL = 1e-15
# ray root-finder: the probes around a guess, as factors of it (the inner
# pair is within _HIT_RTOL, so it ends a ray guessed to rounding), the probe
# of an unguessed ray, as a factor of the body scale, the outward ladder, as
# factors of the last inside point, the relative tolerance on each hit, caps
# on ladder rounds (a reach of 2^204) and on solver steps
_GUESS_PROBES = 1.0 + np.array([-2.0 ** -20, -2.0 ** -41, 2.0 ** -41, 2.0 ** -20])[:, None]
_SCALE_PROBE = np.ones((1, 1))
_LADDER = 2.0 ** np.arange(1, 13)[:, None]
_HIT_RTOL = 1e-12
_EPS = np.finfo(float).eps
_MAX = np.finfo(float).max
_BRACKET_ROUNDS = 17
_SOLVE_STEPS = 100


def _as_point(x, dim, what="point"):
    """x as a float array of points (or vectors: what names them) in R^dim."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != dim:
        raise ValueError(f"{what} has dimension {x.shape[-1] if x.ndim else 0}, "
                         f"body lives in R^{dim}")
    return x


def _check_units(U):
    """U as an (n, d) array of finite unit rows (within 1e-12)."""
    U = np.asarray(U, dtype=float)
    # written so that a NaN norm fails the test too
    if not np.maximum.reduce(np.abs(np.sqrt(np.vecdot(U, U)) - 1.0), initial=0.0) <= _UNIT_TOL:
        raise ValueError("direction must be a finite unit vector (within 1e-12)")
    return U


def _check_unit(u):
    u = np.asarray(u, dtype=float)
    _check_units(u.reshape(1, -1))
    return u


def _each(f, x):
    """f of each entry of x as a float (numpy's log, asinh and pow may differ
    from the C library's in the last bit)."""
    return np.array([f(v) for v in x.tolist()])


def _dots(a, b):
    """The scalar products of the columns (rays) of two (d, rays) arrays."""
    return np.add.reduce(a * b, axis=0)


# -- the cone kinds -------------------------------------------------------------


class _Cone:
    """Shared shape of a cone kind: rank ``dim``, F, the margin m of each row
    of an (n, d) array, a unit ``direction`` inside, unit boundary ``rays``
    and (full rank) ``conjugate``."""

    def __init__(self, ambient_dim, params):
        self.n, self.p = ambient_dim, np.array(params, dtype=float)
        if not self.valid():
            raise ValueError(self.needs)
        self.p.flags.writeable = False

    def sides(self, U):  # one margin call on the rows of U and -U
        up, down = self.margin(np.concatenate([U, -U])).reshape(2, -1)
        return np.maximum(up, down) <= _MARGIN_TOL, up > 0.0


class _ZeroCone(_Cone):
    needs = "the zero cone takes no params"
    dim = 0

    def valid(self):
        return self.p.size == 0

    def F(self, x):
        return np.linalg.norm(x, axis=-1)

    def margin(self, A):
        return np.full(len(A), INF)

    def rays(self, n_azimuth):
        return np.empty((0, self.n))


class _RayCone(_Cone):
    needs = "a ray needs a finite unit direction in the ambient space"
    dim = 1
    direction = property(lambda self: self.p)

    def valid(self):
        return self.p.shape == (self.n,) and abs(np.linalg.norm(self.p) - 1.0) <= _UNIT_TOL

    def F(self, x):
        proj = x @ self.p
        perp = x - proj[..., None] * self.p
        return np.maximum(np.linalg.norm(perp, axis=-1), -proj)

    def margin(self, A):
        return np.vecdot(A, self.p)

    def rays(self, n_azimuth):
        return self.p[None, :]


class _Quadrant(_Cone):
    needs = "the quadrant lives in R^2 and takes no params"
    dim = 2
    direction = np.array([-1.0, 1.0]) / math.sqrt(2.0)

    def valid(self):
        return self.n == 2 and self.p.size == 0

    def F(self, x):
        return np.maximum(x[..., 0], -x[..., 1])

    def margin(self, A):
        return np.minimum(-A[:, 0], A[:, 1])

    def conjugate(self, u):  # the form is xy
        return np.array([u[1], u[0]])

    def rays(self, n_azimuth):
        return np.array([[-1.0, 0.0], [0.0, 1.0]])


class _EllipticCone(_Cone):
    needs = "an elliptic cone needs ambient_dim - 1 positive finite semi-axes"
    dim = property(lambda self: self.n)
    direction = property(lambda self: np.eye(self.n)[-1])

    def valid(self):
        p = self.p
        return p.shape == (self.n - 1,) and bool(np.all(np.isfinite(p) & (p > 0)))

    def F(self, x):
        return np.sqrt(np.add.reduce((x[..., :-1] / self.p) ** 2, axis=-1)) - x[..., -1]

    def margin(self, A):
        pa = self.p * A[:, :-1]
        return A[:, -1] - np.sqrt(np.vecdot(pa, pa))

    def conjugate(self, u):  # the form is sum (x_i/alpha_i)^2 - x_d^2
        return np.append(self.p ** 2 * u[:-1], -u[-1])

    def rays(self, n_azimuth):
        if self.n == 2:
            vs = np.array([[self.p[0], 1.0], [-self.p[0], 1.0]])
        else:
            phi = 2.0 * math.pi * np.arange(n_azimuth) / n_azimuth
            vs = np.column_stack(
                [self.p[0] * np.cos(phi), self.p[1] * np.sin(phi), np.ones(n_azimuth)]
            )
        return vs / np.linalg.norm(vs, axis=-1, keepdims=True)


_CONE_KINDS = {"zero": _ZeroCone, "ray": _RayCone, "quadrant": _Quadrant,
               "elliptic": _EllipticCone}


@dataclass(frozen=True)
class ConeDescriptor:
    """Closed convex cone with apex at the origin, given in closed form.

    kind is one of:
      "zero"      -- {0}
      "ray"       -- {t*d : t >= 0} for a unit direction d (params)
      "quadrant"  -- {x <= 0, y >= 0} in R^2
      "elliptic"  -- {x_d >= sqrt(sum (x_i/alpha_i)^2)} (params = alpha)
    """

    kind: str
    ambient_dim: int
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in _CONE_KINDS:
            raise ValueError(f"unknown cone kind {self.kind!r}")
        if self.ambient_dim not in (2, 3):
            raise ValueError("ambient_dim must be 2 or 3")
        impl = _CONE_KINDS[self.kind](self.ambient_dim, self.params)
        object.__setattr__(self, "params", tuple(impl.p.tolist()))
        object.__setattr__(self, "_impl", impl)

    @property
    def dim(self) -> int:
        return self._impl.dim

    def defining(self, x):
        """Convex defining function; membership is defining(x) <= 0."""
        return self._impl.F(_as_point(x, self.ambient_dim))

    def contains(self, x):
        return self.defining(x) <= 1e-12

    def sides(self, U):
        """Per row u of an (n, d) array, whether the cone meets u-perp in more
        than 0 (within rounding) and whether it is positive on u; a
        ``ValueError`` naming both dimensions where d is not the cone's."""
        return self._impl.sides(_as_point(U, self.ambient_dim, "normal"))

    def support(self, u) -> float:
        """0 exactly when <u, v> <= 0 on the whole cone, +inf otherwise."""
        return 0.0 if self._impl.margin(-_check_unit(u)[None])[0] >= -_MARGIN_TOL else INF

    def positive_on(self, a) -> bool:
        """True iff <a, v> > 0 for every nonzero v in the cone."""
        return bool(self._impl.margin(np.asarray(a, dtype=float)[None])[0] > 0.0)

    def meets_hyperplane(self, u) -> bool:
        """True iff the cone meets u-perp in more than the origin."""
        return bool(self.sides(np.asarray(u, dtype=float)[None])[0][0])

    def interior_direction(self):
        """A unit direction strictly inside the cone (dim >= 1)."""
        if self.dim == 0:
            raise GeometryError("zero cone has no nonzero direction")
        return np.array(self._impl.direction)

    def boundary_rays(self, n_azimuth):
        """Unit vectors along the boundary rays (n_azimuth of them in 3D)."""
        return self._impl.rays(n_azimuth)

    def conjugate_direction(self, u):
        """Q^-1 u for a full-dimensional cone {x^T Q x <= 0}: the direction of
        the diameter conjugate to u, which holds the centroids of its sections."""
        if self.dim < self.ambient_dim:
            raise GeometryError(f"cone of kind {self.kind!r} has empty interior")
        return self._impl.conjugate(_check_unit(u))


# -- the body kinds, each in the body's own frame ------------------------------


class _Kind:
    """Shared defaults: a bounded body whose every unit normal is attained.

    A subclass says in ``valid`` whether its parameters fit the kind and in
    ``needs`` what they must be. The Gauss map takes an (n, d) array of unit
    normals, one per row: u is an attained normal where h(u) is read off it,
    that is where ``limit_support`` gives NaN, and ``inverse_gauss`` is
    asked for the attained rows alone.
    """

    def __init__(self, spec):
        self.params, self.dim, self.p = spec.params, spec.ambient_dim, np.asarray(spec.params)
        self.t_d = abs(float(spec.translation[-1]))
        self.check(spec)

    def check(self, spec):
        if spec.tag is not None:
            raise ValueError(f"a {spec.kind} body takes no function tag")
        if not self.valid():
            raise ValueError(self.needs)

    def interior(self):
        return np.zeros(self.dim)

    def terms(self, f, yd):
        """T, the sum of the magnitudes of F's terms, from F = f at points
        whose last local coordinates are yd(): F = sum - 1, so T = F + 2."""
        return f + 2.0

    form = None  # (q, e, k): Q(y) = sum q_i y_i^2 + e y_d + k < 0 exactly inside

    def ray_quadratic(self, y, w):
        """(a, b, c) of Q(y + s w) = a s^2 + b s + c along the rays from the
        points y along the directions w, both (d, rays) arrays in the body's
        frame; None for a kind without ``form``."""
        if self.form is None:
            return None
        q, e, k = self.form
        qy, qw = q[:, None] * y, q[:, None] * w
        return _dots(qw, w), 2.0 * _dots(qy, w) + e * w[-1], _dots(qy, y) + (e * y[-1] + k)

    def limit_support(self, U):
        """h(u) where it is not read off the Gauss map (0 or +inf), else NaN."""
        return np.full(len(U), np.nan)  # every u attained

    def gauss(self, U):
        """``BodySpec.gauss_map`` in the body's frame."""
        h = self.limit_support(U)
        on = np.isnan(h)
        # (count_nonzero: the set-up paths take these masks a row at a time,
        # where all and any cost several times as much)
        if np.count_nonzero(on) == len(on):
            X = self.inverse_gauss(U)
            return np.vecdot(U, X), X, on
        X = np.full(U.shape, np.nan)
        if np.count_nonzero(on):
            V = U[on]
            X[on] = x = self.inverse_gauss(V)
            h[on] = np.vecdot(V, x)
        return h, X, on

    def cone(self):
        return ConeDescriptor("zero", self.dim)


class _Ellipsoid(_Kind):
    needs = "ellipsoid needs dim positive semi-axes"

    def valid(self):
        return len(self.params) == self.dim and min(self.params) > 0

    def F(self, y):
        return np.add.reduce((y / self.p) ** 2, axis=-1) - 1.0

    def grad(self, y):
        return 2.0 * y / self.p ** 2

    form = cached_property(lambda self: (1.0 / self.p ** 2, 0.0, -1.0))  # F itself

    def inverse_gauss(self, U):
        pu = self.p * U
        return self.p ** 2 * U / np.sqrt(np.vecdot(pu, pu))[:, None]


class _Superellipsoid(_Kind):
    needs = "superellipsoid needs one exponent p >= 2"

    def valid(self):
        return len(self.params) == 1 and self.params[0] >= 2

    def F(self, y):
        return np.add.reduce(np.abs(y) ** self.p[0], axis=-1) - 1.0

    def grad(self, y):
        pw = self.p[0]
        return pw * np.sign(y) * np.abs(y) ** (pw - 1.0)

    def inverse_gauss(self, U):
        pw = self.p[0]
        q = pw / (pw - 1.0)
        nq = _each(lambda v: v ** (1.0 / pw), np.add.reduce(np.abs(U) ** q, axis=-1))
        return np.sign(U) * np.abs(U) ** (q / pw) / nq[:, None]


class _Graph(_Kind):
    """Epigraph {y >= height(x')} of a convex height over x' in R^(dim-1).

    Subclasses give height, its gradient height_grad (NaN where it has
    none) and the inverse of the gradient, slope_inverse (unless they give
    the Gauss map whole), each over x' (or slopes m) in the last axis,
    height_grad and slope_inverse over rows.
    """

    def valid(self):  # n positive coefficients or semi-axes, unless overridden
        return len(self.params) == self.dim - 1 and min(self.params) > 0

    def F(self, y):
        return self.height(y[..., :-1]) - y[..., -1]

    def grad(self, y):
        g = self.height_grad(y[None, :-1])[0]
        # at a finite point only the circular cone's apex has no gradient
        if np.isnan(g).any() and np.isfinite(y).all():
            raise NotOnBoundary("cone apex has no unique normal")
        return np.append(g, -1.0)

    def terms(self, f, yd):
        # F = height - y_d, y_d formed from x_d, which rounds at eps |x_d| <=
        # eps (|y_d| + |t_d|), t the body's translation
        yd = yd()
        return np.abs(f + yd) + (np.abs(yd) + self.t_d)

    def interior(self):
        y = np.zeros(self.dim)
        y[-1] = self.height(y[:-1]) + 1.0
        return y

    def limit_support(self, U):
        return np.where(U[:, -1] < 0.0, np.nan, INF)

    def inverse_gauss(self, U):
        # the outer normal (grad height, -1) is parallel to u
        X = self.slope_inverse(U[:, :-1] / -U[:, -1:])
        return np.concatenate([X, self.height(X)[:, None]], axis=1)

    def cone(self):
        return ConeDescriptor("ray", self.dim, (0.0,) * (self.dim - 1) + (1.0,))


class _Paraboloid(_Graph):
    needs = "paraboloid needs n positive quadratic coefficients"

    def height(self, x):
        return np.add.reduce(self.p * x ** 2, axis=-1)

    def height_grad(self, x):
        return 2.0 * self.p * x

    form = cached_property(lambda self: (np.append(self.p, 0.0), -1.0, 0.0))  # F itself

    def slope_inverse(self, m):
        return m / (2.0 * self.p)

    def gauss(self, U):
        with np.errstate(over="ignore", invalid="ignore"):
            h, X, on = super().gauss(U)
            # h = sum u_i^2 / (4 p_i |u_d|) where the height overflows (h is
            # -inf or NaN there, and nowhere else)
            if not np.minimum.reduce(h, initial=INF) > -INF:
                over = ~(h > -INF)
                V = U[over]
                h[over] = np.add.reduce(V[:, :-1] ** 2 / (4.0 * self.p), axis=-1) / -V[:, -1]
        return h, X, on


def _two_product(a, b):
    """(a b, e), a b + e the product of the floats a and b exactly (Dekker's,
    on Veltkamp's halves of a and b), for a and b below 2^995 in magnitude."""
    ta, tb = 134217729.0 * a, 134217729.0 * b  # 2^27 + 1
    ah, bh = ta - (ta - a), tb - (tb - b)
    al, bl, ab = a - ah, b - bh, a * b
    return ab, ((ah * bh - ab) + ah * bl + al * bh) + al * bl


def _square_gap(s, p, u):
    """s^2 - sum (p_i u_i)^2 for each entry of s and row of u, to rounding:
    every product is the sum of two floats (``_two_product``, with (p_i
    u_i)^2 less its last piece, 2^-106 of it), added exactly by math.fsum."""
    def gap(s, u):
        pieces = list(_two_product(s, s))
        for a, b in zip(p, u):
            hi, lo = _two_product(a, b)
            pieces += [-v for v in _two_product(hi, hi)] + [-2.0 * hi * lo]
        return math.fsum(pieces)
    p = p.tolist()
    return np.array([gap(a, b) for a, b in zip(s.tolist(), u.tolist())])


class _Nappe(_Graph):
    """The upper nappe y_d >= height(x') = sqrt(k + sum (x_i/a_i)^2): the
    hyperboloid sheet (k = 1, a its semi-axes) and the circular cone (k = 0,
    every a_i = 1/slope), each with its needs, by kind name."""
    _KINDS = {"hyperboloid-upper-sheet": (1.0, "hyperboloid sheet needs n positive semi-axes"),
              "circular-cone": (0.0, "circular cone needs one positive slope")}

    def __init__(self, spec):
        self.k, self.needs = self._KINDS[spec.kind]
        super().__init__(spec)
        self.a = self.p if self.k else np.full(self.dim - 1, 1.0 / self.p[0])

    def valid(self):
        return len(self.params) == (self.dim - 1 if self.k else 1) and min(self.params) > 0

    # F (F + 2 y_d) = height^2 - y_d^2, negative inside, where height > -y_d
    form = cached_property(lambda self: (np.append(1.0 / self.a ** 2, -1.0), 0.0, self.k))

    def height(self, x):
        return np.sqrt(self.k + np.add.reduce((x / self.a) ** 2, axis=-1))

    def height_grad(self, x):
        height = self.height(x)  # 0 at the cone's apex, which has no normal
        return x / (self.a ** 2 * np.where(height < 1e-300, np.nan, height)[:, None])

    def interior(self):
        y = np.zeros(self.dim)
        y[-1] = 2.0 if self.k else max(1.0, self.params[0])
        return y

    def gauss(self, U):
        # with s = -u_d and r = |a u'|, u is attained where s > r and k > 0,
        # with x(u) = (a^2 u', s) / sqrt(D) and h(u) = -sqrt(D), D = s^2 -
        # r^2; elsewhere on s >= r (the cone's polar cone, the sheet's
        # asymptotic cone normals) the supremum is 0, not attained. D is
        # formed from u's entries to rounding, as it cancels at s = r.
        s = -U[:, -1]
        D = _square_gap(s, self.a, U[:, :-1])
        on = (D > 0.0) & (s > 0.0) & (self.k > 0.0)
        root = np.sqrt(D, out=np.full(len(U), np.nan), where=on)
        h = np.where(on, -root, np.where((D >= 0.0) & (s > 0.0), 0.0, INF))
        X = np.concatenate([self.a ** 2 * U[:, :-1], s[:, None]], axis=1) / root[:, None]
        return h, X, on

    def cone(self):
        return ConeDescriptor("elliptic", self.dim, tuple(self.a.tolist()))


# Generating functions of the planar epigraphs: f, f', the inverse of f',
# the infimum of f' over R (each f' is increasing onto (inf f', inf)) and
# the ``form`` of the epigraph where it is a quadric.
_FUNCTIONS = {
    "square": (lambda x: x * x, lambda x: 2.0 * x, lambda m: m / 2.0, -INF,
               (np.array([1.0, 0.0]), -1.0, 0.0)),
    "quartic": (lambda x: x ** 4, lambda x: 4.0 * x ** 3,
                lambda m: math.copysign(abs(m / 4.0) ** (1.0 / 3.0), m), -INF, None),
    "exp": (np.exp, np.exp, math.log, 0.0, None),
    "cosh": (np.cosh, np.sinh, math.asinh, -INF, None),
}

FUNCTION_TAGS = tuple(_FUNCTIONS)


class _FunctionEpigraph(_Graph):
    def __init__(self, spec):
        super().__init__(spec)
        self.f, self.df, self.df_inverse, self.slope_inf, self.form = _FUNCTIONS[spec.tag]

    def check(self, spec):
        if self.dim != 2:
            raise ValueError("function epigraphs are 2D only")
        if spec.tag not in FUNCTION_TAGS:
            raise ValueError(f"function tag must be one of {FUNCTION_TAGS}")
        if self.params:
            raise ValueError("function epigraphs take no params")

    def height(self, x):
        with np.errstate(over="ignore"):
            return self.f(x[..., 0])

    def height_grad(self, x):
        with np.errstate(over="ignore"):
            return self.df(x)

    def slope_inverse(self, m):
        return _each(self.df_inverse, m[:, 0])[:, None]

    def limit_support(self, U):
        s = -U[:, 1]
        with np.errstate(invalid="ignore"):  # -inf * 0 where s = 0
            edge = U[:, 0] - self.slope_inf * s
        # a finite inf f' is exp's 0, where h is the limit of -s*f = 0 as x -> -inf
        h = np.where(edge <= _EDGE_TOL, 0.0, np.nan)
        h[(s <= _EDGE_TOL) | (edge < -_EDGE_TOL)] = INF
        return h

    def cone(self):
        # f grows both ways, or (exp) tends to 0 as x -> -inf
        return super().cone() if self.slope_inf == -INF else ConeDescriptor("quadrant", 2)


_BODY_KINDS = {
    "ellipsoid": _Ellipsoid,
    "elliptic-paraboloid-epigraph": _Paraboloid,
    "hyperboloid-upper-sheet": _Nappe,
    "circular-cone": _Nappe,
    "function-epigraph": _FunctionEpigraph,
    "superellipsoid": _Superellipsoid,
}

KINDS = tuple(_BODY_KINDS)


@dataclass(frozen=True, eq=False)
class BodySpec:
    """Immutable parametric description of a closed convex body."""

    # eq=False: the translation field is an ndarray, so the generated
    # __eq__ would raise; compare via to_json() when needed.

    kind: str
    params: tuple
    translation: np.ndarray = None
    ambient_dim: int = 2
    tag: str = None  # function tag, only for kind == "function-epigraph"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown body kind {self.kind!r}")
        if self.ambient_dim not in (2, 3):
            raise ValueError("ambient_dim must be 2 or 3")
        params = tuple(float(p) for p in np.atleast_1d(self.params))
        if not all(math.isfinite(p) for p in params):
            raise ValueError("body params must be finite")
        object.__setattr__(self, "params", params)
        tr = self.translation
        tr = np.zeros(self.ambient_dim) if tr is None else np.array(tr, dtype=float)
        if tr.shape != (self.ambient_dim,):
            raise ValueError("translation dimension mismatch")
        if not np.all(np.isfinite(tr)):
            raise ValueError("translation must be finite")
        tr.flags.writeable = False
        object.__setattr__(self, "translation", tr)
        # x - 0.0 == x for every float, -0.0 included, so a body unmoved (all
        # +0.0) hands F its points as they come; a -0.0 is a move, as
        # x - (-0.0) turns -0.0 into +0.0
        object.__setattr__(self, "_moved", bool(np.any(tr) or np.any(np.signbit(tr))))
        impl = _BODY_KINDS[self.kind](self)
        object.__setattr__(self, "_impl", impl)
        object.__setattr__(self, "_cone", impl.cone())

    # -- basic geometry -------------------------------------------------

    @cached_property
    def scale(self) -> float:
        s = max(1.0, float(np.linalg.norm(self.translation)))
        if self.params:
            s = max(s, max(abs(p) for p in self.params))
        return s

    def _local(self, x):
        x = _as_point(x, self.ambient_dim)
        return x - self.translation if self._moved else x

    def defining(self, x):
        """Convex defining function F; the body is {F <= 0}. Vectorized.

        F reads the batch x and writes nothing into it: an unmoved body hands
        it x itself, uncopied, so x may be read-only or a caller's own array.
        """
        return self._impl.F(self._local(x))

    def defining_gradient(self, x):
        """Gradient of the defining function (scalar points)."""
        return self._impl.grad(self._local(x))

    def contains(self, x):
        """Membership oracle, vectorized over point batches."""
        return self.defining(x) <= 1e-12 * self.scale

    def interior_point(self):
        return self._impl.interior() + self.translation

    # -- support function / Gauss map ------------------------------------

    def gauss_map(self, U):
        """(h, X, attained) at each row u of an (n, d) array of unit normals:
        X holds the boundary point x(u) of outer normal u (a NaN row where u
        is not attained), h(u) = <u, x(u)>, a float wherever it can be one
        (the paraboloid's x(u) may overflow), or its limit 0 or +inf."""
        h, X, on = self._impl.gauss(U)
        # the translation moves every point, and h by <u, translation>
        return h + np.vecdot(U, self.translation), X + self.translation, on

    def support(self, u) -> float:
        """h(u) = sup over the body of <u, x>; +inf in recession-positive directions.

        Read off the Gauss map: h(u) = <u, inverse_gauss(u)> where u is an
        attained normal. Positively homogeneous: any finite nonzero u is
        accepted and rescaled.
        """
        u = np.asarray(u, dtype=float)
        if float(np.linalg.norm(u)) == 0.0 or not np.all(np.isfinite(u)):
            raise ValueError("direction must be finite and nonzero")
        nrm = np.sqrt(np.vecdot(u, u))
        return float(nrm * self.gauss_map((u / nrm)[None])[0][0])

    def support_attained(self, u) -> bool:
        """Whether u lies in the Gauss-map image N(boundary)."""
        return bool(self.gauss_map(_check_unit(u)[None])[2][0])

    def inverse_gauss(self, u):
        """The unique boundary point whose outer unit normal is u; a
        ValueError where that point overflows."""
        u = _check_unit(u)
        _, X, on = self.gauss_map(u[None])
        if not on[0]:
            raise InadmissibleNormal(f"{u} is not an attained normal of this body")
        if not np.all(np.isfinite(X)):
            raise ValueError(f"the boundary point of outer normal {u} overflows: {X[0]}")
        return X[0]

    def outer_normal(self, x):
        """Outward unit normal at a boundary point."""
        x = _as_point(x, self.ambient_dim)
        if not np.all(np.isfinite(x)):
            raise ValueError("point must be finite")
        f = float(self.defining(x))
        if abs(f) > 1e-8 * self.scale:
            raise NotOnBoundary(f"|F(x)| = {abs(f):.3g} exceeds boundary tolerance")
        g = self.defining_gradient(x)
        n = g / np.linalg.norm(g)
        # F is convex with the body as its 0-sublevel set, so grad F points outward.
        return n

    # -- gauge -------------------------------------------------------------

    def gauge(self, x) -> float:
        """Minkowski functional inf{lam > 0 : x in lam*K}; requires 0 in int K.

        Computed as |x| over the boundary hit from 0 along x/|x|, and 0 along
        recession directions, where the ray never leaves the body.
        """
        x = _as_point(x, self.ambient_dim)
        if not np.all(np.isfinite(x)):
            raise ValueError("point must be finite")
        m = 1e-6 * self.scale
        probes = np.vstack([np.eye(self.ambient_dim) * m, -np.eye(self.ambient_dim) * m])
        if not bool(np.all(self.contains(probes))):
            raise OriginNotInterior("0 is not interior to the body")
        nx = float(np.linalg.norm(x))
        if nx == 0.0 or self._cone.contains(x / nx):
            return 0.0
        hits, _ = ray_hits_batch(self, np.zeros(self.ambient_dim), x[None, :] / nx)
        return nx / float(hits[0])

    def recession_cone(self) -> ConeDescriptor:
        return self._cone

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        obj = {
            "kind": self.kind,
            "params": list(self.params),
            "translation": self.translation.tolist(),
            "dim": self.ambient_dim,
        }
        if self.tag is not None:
            obj["tag"] = self.tag
        return obj

    @classmethod
    def from_json(cls, obj) -> "BodySpec":
        return cls(
            kind=obj["kind"],
            params=tuple(obj.get("params", ())),
            translation=np.asarray(obj.get("translation", [0.0] * obj["dim"])),
            ambient_dim=int(obj["dim"]),
            tag=obj.get("tag"),
        )


def _graph_contacts(body, abscissae):
    """Boundary points and inner unit normals over the abscissae of a graph
    body (one row each, or in 2D one number each): two (n, d) arrays.

    Every graph kind has F(x', y) = height(x') - y in its own frame, so the
    height is F at (x', 0) and the graph gradient is the x' part of grad F.
    A body that is not an epigraph raises ``NotGraphLike``; then, naming the
    first abscissa at fault, one that is not finite or where the height or
    the normal overflows raises a ValueError, and one where the height has
    no gradient ``NotOnBoundary``.
    """
    if not isinstance(body._impl, _Graph):
        raise NotGraphLike("a graph contact needs a graph-like body, an epigraph")
    X0 = np.asarray(abscissae, dtype=float)
    X0 = X0[:, None] if X0.ndim == 1 else X0
    n, d = len(X0), body.ambient_dim
    if n and X0.shape != (n, d - 1):
        raise ValueError(f"anchor abscissa must have {d - 1} component(s)")
    X0 = X0.reshape(n, d - 1)
    bad = ~np.isfinite(X0).all(axis=1)
    if bad.any():
        raise ValueError(f"anchor abscissa must be finite, got {X0[bad.argmax()]}")
    with np.errstate(over="ignore", invalid="ignore"):
        height = body.defining(np.column_stack([X0, np.zeros(n)]) + body.translation)
        P = np.column_stack([X0, height]) + body.translation
        N = np.column_stack([-body._impl.height_grad(body._local(P)[:, :-1]), np.ones(n)])
        length = np.sqrt(np.vecdot(N, N))
    for bad, error, message in (
            (~np.isfinite(P).all(axis=1), ValueError,
             "graph height at abscissa {} is not finite: {}"),
            (np.isnan(N).any(axis=1), NotOnBoundary,
             "no graph contact at abscissa {}: cone apex has no unique normal"),
            (~np.isfinite(length), ValueError, "graph slope at abscissa {} is not finite")):
        if bad.any():
            i = bad.argmax()
            raise error(message.format(X0[i].tolist(), float(height[i])))
    return P, N / length[:, None]


def ray_hits_batch(body, origin, directions, guess=None):
    """Distances s > 0 with F(origin + s*w) = 0, one per direction w, and the
    oracle points evaluated: ``(hits, n_evals)``. A hit is in units of its
    direction's length, so directions need not be unit (the polar rule casts
    its rays along guided, non-unit directions).

    This is the one boundary root-finder of the package. F is the convex
    defining function of ``body``, and every origin must satisfy F < 0.
    ``origin`` is one point of shape (d,), or one point per group of rays,
    of shape (L, d): the m = L*k directions are then cast in groups of k,
    rays j*k to (j+1)*k - 1 from origin j, and ``n_evals`` is an array of L
    counts, one per origin.

    A ray is bracketed from ``guess`` (one distance per ray, m entries in
    any shape) by four probes g (1 -+ 2^-20) and g (1 -+ 2^-41), evaluated
    with the origins in the first ``defining`` call. The inner pair is
    within ``_HIT_RTOL``, so a guess good to rounding ends its ray on its
    probes. Without guesses, a body kind with a ray quadratic (the
    ellipsoid, elliptic paraboloid, hyperboloid sheet, circular cone and
    square epigraph) states its coefficients along each ray in closed form,
    and its smallest positive root is the ray's guess; a ray without one,
    and every ray of another kind, is probed at the body scale s alone, in
    units of its direction's length like its hit. A ray whose probes are all
    inside steps out to 2^1 .. 2^12 times its last inside point, one
    ``defining`` call a round, until one is outside. Then each step
    evaluates two points in one ``defining`` call. F is convex along a ray,
    so the chord through the inside and outside ends lands inside, and the
    secant through two outside points, or through two inside points, lands
    outside: the root lies between the chord root and the nearer secant
    root. Each point updates whichever end its sign says. A step that does
    not halve the bracket (in log scale) is followed by a geometric
    bisection. Every ray stops on its own bracket, once the
    bracket, or the chord and secant roots, are within ``_HIT_RTOL``
    relative to the hit distance or F at either end of the bracket is finite
    and within 4 eps T of 0, T the sum of the magnitudes of F's terms there
    (``terms`` of the body kind), which bounds F's rounding. At the outside
    end h that puts the root within 4 eps T / |F'| of h, and the hit, the
    chord root through the two ends, in [l, root]. So its root does not
    depend on the other rays of the batch, nor on the other origins: each
    hit is bitwise the one a call with its origin alone returns.

    Each ray's bracket is one column of a (3, 4, rays) array: position, F
    and F's rounding band at the slots Lp, l, h and p. Every probe round,
    ladder round and solver step moves it by one rule (``_read``): the new
    slots are the entries c to c + 3 (from 0) of Lp, l, the round's points,
    h, p, c the round's points read inside before the first outside one. A
    ray's arithmetic is the same expressions in the same order whatever its
    column.

    All directions must be non-recessive (guaranteed for bounded sections).
    Origins, directions and every batch of points are held coordinate-major,
    as (d, rays) arrays, and F gets their transposed (rays, d) views, so its
    result must not depend on the layout of its batch.
    """
    origin = np.asarray(origin, dtype=float)
    O = origin.reshape(1, -1) if origin.ndim < 2 else origin
    D = np.asarray(directions, dtype=float)
    if D.ndim != 2 or D.shape[1] != O.shape[1]:
        raise ValueError("directions must be an (m, d) array, d the origin's dimension")
    m, d = D.shape
    if not (np.isfinite(origin).all() and np.isfinite(D).all()):
        raise ValueError("ray origin and directions must be finite")
    if len(O) == 0 or m % len(O):
        raise ValueError("directions must split into one equal group per origin")
    g = None
    if guess is not None:
        g = np.array(guess, dtype=float).ravel()
        if g.size != m:
            raise ValueError(f"guess must hold one distance per ray: {m} expected, got {g.size}")
        # written so that a NaN fails the test too
        if not (g.min(initial=INF) > 0.0 and g.max(initial=0.0) < INF):
            raise ValueError("initial guesses must be finite and positive")
    hits = np.empty(m)
    counts = np.zeros(len(O), dtype=int)
    if m:
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            evals = _narrow(body, *_reach(body, O, D, g), hits)
        if origin.ndim < 2:
            return hits, int(np.add.reduce(evals)) + 1
        counts = np.add.reduce(evals.reshape(len(O), -1), axis=1).astype(int) + 1
    return hits, (counts if origin.ndim == 2 else int(counts[0]))


# Each ray's bracket is a column of one (3, 4, rays) array E: the position
# along the ray, F and F's rounding band 4 eps T (T from ``terms``, capped at
# the largest float) at the slots Lp, l (the last two inside points) and h,
# p (the first two outside points); position and F are NaN where not yet
# known, and the band is read at l and h alone, once the solver sets it.


def _read(E, new):
    """Move the brackets E ((k, 4, rays): the first k of the layers
    position, F and band) past a round's points, new ((k, n, rays),
    ascending along each ray): with c of them read inside before the first
    outside one, slots Lp, l, h and p take the entries c to c + 3 (from 0)
    of Lp, l, the points, h, p. Returns c.

    Near the root F's rounding can read a later point inside again: only
    the inside points before the first outside one count, so slot l is
    inside and slot h outside. F at h is NaN or positive, so c <= n."""
    k, n, w = new.shape
    seq = np.concatenate([E[:, :2], new, E[:, 2:]], axis=1)
    c = (seq[1, 2:n + 3] <= 0.0).argmin(axis=0)
    np.take(seq.reshape(k, -1), c * w + np.arange(4 * w).reshape(4, w), axis=1, mode="clip", out=E)
    return c


def _reach(body, O, D, g):
    """The brackets of the rays D from the origins O, one per group, with
    every root bracketed, the points evaluated along each ray, and each
    ray's origin and direction as (d, rays) arrays: F at the origins and at
    each ray's first probes, about its guess (g, or else the root of
    ``_quadratic_roots``) or at the body scale s, then along the ladder for
    each ray without an outside point, one F call a round, until it has
    one. Before its probes a ray's slot l is its origin, at 0."""
    F = body.defining
    (L, d), m = O.shape, len(D)
    P, W = np.repeat(O.T, m // L, axis=1), np.ascontiguousarray(D.T)
    E = np.empty((3, 4, m))
    E[:2] = np.nan
    E[0, 1] = 0.0
    evals = np.zeros(m, dtype=int)
    if g is None:
        g = _quadratic_roots(body, P, W)
    # a round: its rays (all if None), probe factors and base
    bare = np.full(m, True) if g is None else np.isnan(g)
    n_bare, scale = np.count_nonzero(bare), (_SCALE_PROBE, float(body.scale))
    rounds = [(None,) + scale] if n_bare == m else [(None, _GUESS_PROBES, g)]
    if 0 < n_bare < m:
        rays = np.flatnonzero(~bare)
        rounds = [(rays, _GUESS_PROBES, g[rays]), (np.flatnonzero(bare),) + scale]
    # the first call, the probes', also takes the origins, ahead of the
    # probes, whose F values start at i; then come the ladder's rounds
    parts, i = [O.T], L
    for _ in range(_BRACKET_ROUNDS + 1):
        news = []
        for rays, factors, base in rounds:
            cols = slice(None) if rays is None else rays
            new = np.empty((2, len(factors), m if rays is None else len(rays)))
            pts = np.multiply(factors, base, out=new[0]) * W[:, None, cols]
            pts += P[:, None, cols]
            parts.append(pts.reshape(d, -1))
            news.append((rays, cols, new))
        f = F((np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]).T)
        if i:
            if not f[:L].max() < 0.0:
                raise NotInterior("ray origin is not inside the body")
            E[1, 1].reshape(L, -1)[...] = f[:L, None]
        rounds, parts = [], []
        for rays, cols, new in news:
            n, k = new[1].shape
            new[1] = f[i:i + n * k].reshape(n, k)
            i += n * k
            # the probe and ladder rounds know no band: E's first two layers
            sub = E[:2, :, cols]
            up = _read(sub, new) == n
            evals[cols] += n
            if rays is not None:
                E[:2, :, rays] = sub
            if np.count_nonzero(up):  # the ladder, from each ray's last inside point
                rounds.append((np.flatnonzero(up) if rays is None else rays[up], _LADDER, sub[0, 1, up]))
        if not rounds:
            return E, evals, P, W
        i = 0
    raise GeometryError("boundary bracketing failed; direction nearly recessive")


def has_form(body):
    """Whether the body's kind has a ``form``, as ``ray_quadratic`` decides it:
    a quadric Q with F's sign, so that in 3D each bounded plane section is
    an ellipse whose area is a polynomial of degree at most 2 in the level."""
    return body._impl.form is not None


def ray_quadratic(body, P, W):
    """(a, b, c) of Q(p + s w) = a s^2 + b s + c, Q the ``form`` of the
    body's kind about its translation, along each ray from the points P
    along the directions W ((d, rays) arrays); None for a kind without a
    form."""
    return body._impl.ray_quadratic(P - body.translation[:, None] if body._moved else P, W)


def _quadratic_roots(body, P, W):
    """The smallest positive root of the body kind's ray quadratic along
    each ray from the origins P along the directions W ((d, rays) arrays),
    NaN where it has none that leaves the probes about it finite and
    positive; None for a kind without a ray quadratic."""
    abc = ray_quadratic(body, P, W)
    if abc is None:
        return None
    a, b, c = abc
    # c < 0 at an origin inside, so for a > 0 the roots have opposite
    # signs, and for a < 0 both are positive (b > 0) or neither is: each
    # form of the smallest positive one is free of cancellation on its own
    # side of b = 0
    sq = np.sqrt(b * b - 4.0 * a * c)
    g = np.where(b >= 0.0, -2.0 * c / (b + sq), (sq - b) / (2.0 * a))
    g[~((g > 0.0) & (g < 0.5 * _MAX))] = np.nan  # its probes finite and positive
    return g


def _band(body, f, x, p, w, out):
    """F's rounding band 4 eps T at the points p + x w, rows x along the
    rays with last coordinates p and w, where F = f: capped at the largest
    float, so that F = inf (exp's overflow, T = inf) or NaN is never in it."""
    def yd():
        y = x * w
        y += p
        return y - body.translation[-1] if body._moved else y
    np.multiply(body._impl.terms(f, yd), 4.0 * _EPS, out=out)
    np.minimum(out, _MAX, out=out)


def _narrow(body, E, evals, P, W, hits):
    """Shrink the bracket [l, h] of every ray of E, from the origins P along
    the directions W, to F = 0; write each ray's hit into hits and return
    evals, the points evaluated along each ray, with the solver's added.

    Each step runs over every column of E under the mask of the open rays,
    all set at first, and hands F the open rays' points alone: a ray that
    stops gets its hit, and later steps do not read its column again."""
    F = body.defining
    d, n_open = len(P), E.shape[2]
    open_ = np.full(n_open, True)
    # position, F and band at a step's two points a and b
    new = np.empty((3, 2, n_open))
    x, f = E[0], E[1]
    root = INF  # sqrt(h / l) before the last step
    for step in range(_SOLVE_STEPS):
        # zeros of the lines through (Lp, l), (l, h) and (h, p), each taken
        # from its first point, so that F = inf at h or p gives l or NaN
        z = f[1:] - f[:3]
        dx = x[1:] - x[:3]
        np.divide(dx, z, out=dx)
        np.multiply(f[:3], dx, out=dx)
        z0, z1, z2 = np.subtract(x[:3], dx, out=z)
        l, h = x[1], x[2]
        # a: the chord root, kept _HIT_RTOL/2 inside h so that an accurate h ends it
        a = np.fmin(z1, (1.0 - 0.5 * _HIT_RTOL) * h, out=new[0, 0])
        # the secant root: the nearer of z0 (past a) and z2, from outside;
        # by convexity the root lies in [a, secant]
        secant = np.fmin(np.where(z0 > a, z0, np.nan), z2)
        ok = (secant > a) & (secant < h)
        # the midpoint of [a, secant] is then within _HIT_RTOL/8 of the root
        close = secant <= (1.0 + 0.25 * _HIT_RTOL) * a
        close &= ok
        done = l >= (1.0 - _HIT_RTOL) * h
        done |= close
        if step:
            done |= noisy
        still = open_ > done
        n_still = np.count_nonzero(still)
        if n_still:
            # F at l and h rounds within a few eps T of its value: within
            # its band of 0, the end is on the boundary up to rounding (read
            # only where the other tests leave a ray open: the bracket's
            # ends get their band here, the solver's points when made)
            if step == 0:
                _band(body, f[1:3], x[1:3], P[-1], W[-1], E[2, 1:3])
            flat = np.abs(f[1:3]) <= E[2, 1:3]
            done |= flat[0]
            done |= flat[1]
            np.greater(open_, done, out=still)
            n_still = np.count_nonzero(still)
        if n_still < n_open:
            stop = open_ > still
            np.copyto(hits, z1, where=stop)
            np.copyto(hits, 0.5 * (a + secant), where=close & stop)
            if step:
                # two points in each earlier step
                np.add(evals, 2 * step, out=evals, where=stop)
            if n_still == 0:
                break
            open_, n_open = still, n_still
        # b: the secant root, or a geometric bisection where there is none
        # or the last step did not halve the bracket's log-width
        ratio = h / l
        secant_step = ratio <= root
        secant_step &= ok
        root = np.sqrt(ratio)
        b = np.fmax(a, 2.0 ** -20 * h, out=new[0, 1])
        b *= h
        np.sqrt(b, out=b)
        np.copyto(b, secant, where=secant_step)
        # F at a and b of the open rays, in one call
        pts = new[0] * W[:, None]
        pts += P[:, None]
        new[1][:, open_] = F(pts.compress(open_, axis=2).reshape(d, -1).T).reshape(2, -1)
        _band(body, new[1], new[0], P[-1], W[-1], new[2])
        # each point updates whichever end its sign says; the chord root a
        # is inside unless F is rounding noise there
        noisy = _read(E, new) == 0
    else:
        # step cap: the chord roots of the brackets still open
        (l, h), (fl, fh) = x[1:3], f[1:3]
        np.copyto(hits, l - fl * ((h - l) / (fh - fl)), where=open_)
        np.add(evals, 2 * _SOLVE_STEPS, out=evals, where=open_)
    return evals


# -- convenience constructors used throughout the tests and CLI ------------


def ellipsoid(semi_axes, center=None) -> BodySpec:
    semi_axes = tuple(np.atleast_1d(semi_axes))
    return BodySpec("ellipsoid", semi_axes, center, ambient_dim=len(semi_axes))


def unit_disk(center=None) -> BodySpec:
    return ellipsoid((1.0, 1.0), center)


def unit_sphere(center=None) -> BodySpec:
    return ellipsoid((1.0, 1.0, 1.0), center)


def paraboloid_epigraph(coeffs, shift=None) -> BodySpec:
    coeffs = tuple(np.atleast_1d(coeffs))
    return BodySpec(
        "elliptic-paraboloid-epigraph", coeffs, shift, ambient_dim=len(coeffs) + 1
    )


def hyperboloid_sheet(semi_axes, shift=None) -> BodySpec:
    semi_axes = tuple(np.atleast_1d(semi_axes))
    return BodySpec(
        "hyperboloid-upper-sheet", semi_axes, shift, ambient_dim=len(semi_axes) + 1
    )


def circular_cone(slope, dim=2, shift=None) -> BodySpec:
    return BodySpec("circular-cone", (slope,), shift, ambient_dim=dim)


def function_epigraph(tag, shift=None) -> BodySpec:
    return BodySpec("function-epigraph", (), shift, ambient_dim=2, tag=tag)


def superellipsoid(p, dim=2, shift=None) -> BodySpec:
    return BodySpec("superellipsoid", (p,), shift, ambient_dim=dim)
