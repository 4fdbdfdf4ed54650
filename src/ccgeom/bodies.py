"""Catalog of convex bodies in R^2 / R^3 with exact analytic oracles.

Every body is described by a global convex defining function F with
membership F(x) <= 0. Every boundary query (ray hits, chords, the gauge)
is a root of F along rays, solved by one batched bracketing root-finder,
``ray_hits_batch``, so downstream quadrature error is attributable to the
integration scheme, not the oracles. Only bodies go through it.

Each body kind lives in one class of the table ``_BODY_KINDS``: parameter
check, F, grad F, interior point, support limit, inverse Gauss map and
recession cone (built once per body), in the body's own frame, and two
hooks read off F and the point's last local coordinate y_d for the
root-finder: ``terms``, the size of F's rounding, and ``quadric``, a
function with F's sign that is a quadratic along every ray where one
exists (F itself; F (F + 2 y_d) = height^2 - y_d^2 on the hyperboloid
sheet and the circular cone). The four
unbounded kinds are epigraphs y >= height(x') and share F, the inverse
Gauss map and ``_graph_contact``, the boundary point and normal over an
abscissa, which the other kinds refuse. The support function is read off
the Gauss map, h(u) = <u, x(u)> with x(u) the boundary point of outer
normal u, exactly on the attained normals; elsewhere h is its limit, 0 or
+inf.

Each recession cone kind ({0}, ray, quadrant, elliptic) is one class of the
table ``_CONE_KINDS``, and every cone predicate is one comparison of its
margin m(a): m(a) > 0 exactly when <a, v> > 0 on the cone minus 0, and
m(a) >= 0 exactly when <a, v> >= 0 on the cone. A cone answers cone
questions only; a full-dimensional one, {x^T Q x <= 0}, also gives the
direction Q^-1 u of its sections' centroid line. No other module tests a
body or cone kind.

Membership and defining-value evaluation are vectorized over trailing
point batches (shape (..., dim)); all other oracles are scalar. F's value
at a point must not depend on the memory layout of its batch: the
root-finder and the shell scan build their batches coordinate-major, one
contiguous row per coordinate, and hand F the transposed view.
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
# cone margins within this of 0 count as 0 in support and meets_hyperplane
_MARGIN_TOL = 1e-14
# epigraph normals this close to the edge of the attained set get h's limit
_EDGE_TOL = 1e-15
# ray root-finder: the probes around a guess, as factors of it (the inner
# pair is within _HIT_RTOL, so it ends a ray guessed to rounding), the probes
# of an unguessed ray, as factors of the body scale, the outward ladder, as
# factors of the last inside point, the relative tolerance on each hit, caps
# on ladder rounds (a reach of 2^204) and on solver steps
_GUESS_PROBES = 1.0 + np.array([-2.0 ** -20, -2.0 ** -41, 2.0 ** -41, 2.0 ** -20])[:, None]
_THIRDS = np.array([1.0, 2.0, 3.0])[:, None] / 3.0
_LADDER = 2.0 ** np.arange(1, 13)[:, None]
_HIT_RTOL = 1e-12
_EPS = np.finfo(float).eps
_BRACKET_ROUNDS = 17
_SOLVE_STEPS = 100


def _as_point(x, dim):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != dim:
        raise ValueError(f"point has dimension {x.shape[-1]}, body lives in R^{dim}")
    return x


def _check_unit(u):
    u = np.asarray(u, dtype=float)
    # written so that a NaN norm fails the test too
    if not abs(np.linalg.norm(u) - 1.0) <= _UNIT_TOL:
        raise ValueError("direction must be a finite unit vector (within 1e-12)")
    return u


# -- the cone kinds -------------------------------------------------------------


class _Cone:
    """Shared shape of a cone kind: rank ``dim``, F, the margin m, a unit
    ``direction`` inside, unit boundary ``rays`` and (full rank) ``conjugate``."""

    def __init__(self, ambient_dim, params):
        self.n, self.p = ambient_dim, np.array(params, dtype=float)
        if not self.valid():
            raise ValueError(self.needs)
        self.p.flags.writeable = False


class _ZeroCone(_Cone):
    needs = "the zero cone takes no params"
    dim = 0

    def valid(self):
        return self.p.size == 0

    def F(self, x):
        return np.linalg.norm(x, axis=-1)

    def margin(self, a):
        return INF

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

    def margin(self, a):
        return float(a @ self.p)

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

    def margin(self, a):
        return float(min(-a[0], a[1]))

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
        return np.sqrt(np.sum((x[..., :-1] / self.p) ** 2, axis=-1)) - x[..., -1]

    def margin(self, a):
        return float(a[-1] - np.linalg.norm(self.p * a[:-1]))

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

    def support(self, u) -> float:
        """0 exactly when <u, v> <= 0 on the whole cone, +inf otherwise."""
        return 0.0 if self._impl.margin(-_check_unit(u)) >= -_MARGIN_TOL else INF

    def positive_on(self, a) -> bool:
        """True iff <a, v> > 0 for every nonzero v in the cone."""
        return self._impl.margin(np.asarray(a, dtype=float)) > 0.0

    def meets_hyperplane(self, u) -> bool:
        """True iff the cone meets u-perp in more than the origin."""
        u = np.asarray(u, dtype=float)
        return max(self._impl.margin(u), self._impl.margin(-u)) <= _MARGIN_TOL

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
    ``needs`` what they must be. u is an attained normal where h(u) is read
    off the Gauss map, that is where ``limit_support`` gives None.
    """

    def __init__(self, spec):
        self.params, self.dim, self.p = spec.params, spec.ambient_dim, np.asarray(spec.params)
        self.check(spec)

    def check(self, spec):
        if spec.tag is not None:
            raise ValueError(f"a {spec.kind} body takes no function tag")
        if not self.valid():
            raise ValueError(self.needs)

    def interior(self):
        return np.zeros(self.dim)

    def terms(self, f, yd):
        """T, the sum of the magnitudes of F's terms, from F = f at a point
        whose last local coordinate is yd: F = sum - 1, so T = F + 2."""
        return f + 2.0

    def quadric(self, f, yd):
        """A function of F = f and yd, negative exactly inside, that is a
        quadratic along every ray where F is: F itself unless overridden."""
        return f

    def limit_support(self, u):
        """h(u) where it is not read off the Gauss map (0 or +inf), else None."""
        return None

    def cone(self):
        return ConeDescriptor("zero", self.dim)


class _Ellipsoid(_Kind):
    needs = "ellipsoid needs dim positive semi-axes"

    def valid(self):
        return len(self.params) == self.dim and min(self.params) > 0

    def F(self, y):
        return np.sum((y / self.p) ** 2, axis=-1) - 1.0

    def grad(self, y):
        return 2.0 * y / self.p ** 2

    def inverse_gauss(self, u):
        return self.p ** 2 * u / np.linalg.norm(self.p * u)


class _Superellipsoid(_Kind):
    needs = "superellipsoid needs one exponent p >= 2"

    def valid(self):
        return len(self.params) == 1 and self.params[0] >= 2

    def F(self, y):
        return np.sum(np.abs(y) ** self.p[0], axis=-1) - 1.0

    def grad(self, y):
        pw = self.p[0]
        return pw * np.sign(y) * np.abs(y) ** (pw - 1.0)

    def inverse_gauss(self, u):
        pw = self.p[0]
        q = pw / (pw - 1.0)
        nq = float(np.sum(np.abs(u) ** q))
        return np.sign(u) * np.abs(u) ** (q / pw) / nq ** (1.0 / pw)


class _Graph(_Kind):
    """Epigraph {y >= height(x')} of a convex height over x' in R^(dim-1).

    Subclasses give height, its gradient height_grad and the inverse of the
    gradient, slope_inverse, each over x' (or slopes m) in the last axis.
    """

    def valid(self):  # n positive coefficients or semi-axes, unless overridden
        return len(self.params) == self.dim - 1 and min(self.params) > 0

    def F(self, y):
        return self.height(y[..., :-1]) - y[..., -1]

    def grad(self, y):
        return np.append(self.height_grad(y[:-1]), -1.0)

    def terms(self, f, yd):
        # F = height - y_d
        return np.abs(f + yd) + np.abs(yd)

    def interior(self):
        y = np.zeros(self.dim)
        y[-1] = self.height(y[:-1]) + 1.0
        return y

    def limit_support(self, u):
        return None if u[-1] < 0.0 else INF

    def inverse_gauss(self, u):
        # the outer normal (grad height, -1) is parallel to u
        x = self.slope_inverse(u[:-1] / -u[-1])
        return np.append(x, self.height(x))

    def cone(self):
        return ConeDescriptor("ray", self.dim, (0.0,) * (self.dim - 1) + (1.0,))


class _Paraboloid(_Graph):
    needs = "paraboloid needs n positive quadratic coefficients"

    def height(self, x):
        return np.sum(self.p * x ** 2, axis=-1)

    def height_grad(self, x):
        return 2.0 * self.p * x

    def slope_inverse(self, m):
        return m / (2.0 * self.p)


class _QuadricGraph(_Graph):
    """An epigraph whose squared height is a quadratic form: along every ray
    F (F + 2 y_d) = height^2 - y_d^2 is a quadratic, negative inside, where
    height > -y_d."""

    def quadric(self, f, yd):
        return f * (f + 2.0 * yd)


class _Hyperboloid(_QuadricGraph):
    needs = "hyperboloid sheet needs n positive semi-axes"

    def height(self, x):
        return np.sqrt(1.0 + np.sum((x / self.p) ** 2, axis=-1))

    def height_grad(self, x):
        return x / (self.p ** 2 * self.height(x))

    def slope_inverse(self, m):
        pm = self.p * m
        return self.p * pm / math.sqrt(1.0 - float(pm @ pm))

    def limit_support(self, u):
        s, r = -u[-1], float(np.linalg.norm(self.p * u[:-1]))
        if s > r:
            return None
        # on the asymptotic cone's normals the supremum is 0, not attained
        return 0.0 if s == r else INF

    def cone(self):
        return ConeDescriptor("elliptic", self.dim, self.params)


class _CircularCone(_QuadricGraph):
    needs = "circular cone needs one positive slope"

    def valid(self):
        return len(self.params) == 1 and self.params[0] > 0

    def height(self, x):
        return self.p[0] * np.linalg.norm(x, axis=-1)

    def height_grad(self, x):
        r = float(np.linalg.norm(x))
        if r < 1e-300:
            raise NotOnBoundary("cone apex has no unique normal")
        return self.p[0] * x / r

    def interior(self):
        y = np.zeros(self.dim)
        y[-1] = max(1.0, self.params[0])
        return y

    def limit_support(self, u):
        # never None: not strictly convex, so the Gauss map is not invertible;
        # 0 at the apex for normals of the polar cone
        return 0.0 if self.p[0] * -u[-1] >= np.linalg.norm(u[:-1]) else INF

    def cone(self):
        return ConeDescriptor("elliptic", self.dim, (1.0 / self.params[0],) * (self.dim - 1))


# Generating functions of the planar epigraphs: f, f', the inverse of f'
# and the infimum of f' over R (each f' is increasing onto (inf f', inf)).
_FUNCTIONS = {
    "square": (lambda x: x * x, lambda x: 2.0 * x, lambda m: m / 2.0, -INF),
    "quartic": (lambda x: x ** 4, lambda x: 4.0 * x ** 3,
                lambda m: math.copysign(abs(m / 4.0) ** (1.0 / 3.0), m), -INF),
    "exp": (np.exp, np.exp, math.log, 0.0),
    "cosh": (np.cosh, np.sinh, math.asinh, -INF),
}

FUNCTION_TAGS = tuple(_FUNCTIONS)


class _FunctionEpigraph(_Graph):
    def __init__(self, spec):
        super().__init__(spec)
        self.f, self.df, self.df_inverse, self.slope_inf = _FUNCTIONS[spec.tag]

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
        return np.array([self.df_inverse(float(m[0]))])

    def limit_support(self, u):
        s = -u[1]
        if s <= _EDGE_TOL:
            return INF
        edge = u[0] - self.slope_inf * s
        if edge < -_EDGE_TOL:
            return INF
        # a finite inf f' is exp's 0, where h is the limit of -s*f = 0 as x -> -inf
        return 0.0 if edge <= _EDGE_TOL else None

    def cone(self):
        # f grows both ways, or (exp) tends to 0 as x -> -inf
        return super().cone() if self.slope_inf == -INF else ConeDescriptor("quadrant", 2)


_BODY_KINDS = {
    "ellipsoid": _Ellipsoid,
    "elliptic-paraboloid-epigraph": _Paraboloid,
    "hyperboloid-upper-sheet": _Hyperboloid,
    "circular-cone": _CircularCone,
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

    def support(self, u) -> float:
        """h(u) = sup over the body of <u, x>; +inf in recession-positive directions.

        Read off the Gauss map: h(u) = <u, inverse_gauss(u)> where u is an
        attained normal. Positively homogeneous: any finite nonzero u is
        accepted and rescaled.
        """
        u = np.asarray(u, dtype=float)
        nrm = float(np.linalg.norm(u))
        if nrm == 0.0 or not np.all(np.isfinite(u)):
            raise ValueError("direction must be finite and nonzero")
        u = u / nrm
        h = self._impl.limit_support(u)
        if h is None:
            h = float(u @ self._impl.inverse_gauss(u))
        if h == INF:
            return INF
        return nrm * (h + float(u @ self.translation))

    def support_attained(self, u) -> bool:
        """Whether u lies in the Gauss-map image N(boundary)."""
        return self._impl.limit_support(_check_unit(u)) is None

    def inverse_gauss(self, u):
        """The unique boundary point whose outer unit normal is u."""
        u = _check_unit(u)
        if not self.support_attained(u):
            raise InadmissibleNormal(f"{u} is not an attained normal of this body")
        return self._impl.inverse_gauss(u) + self.translation

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


def _graph_contact(body, abscissa):
    """Boundary point and inner unit normal at an abscissa of a graph body.

    Every graph kind has F(x', y) = height(x') - y in its own frame, so the
    height is F at (x', 0) and the graph gradient is the x' part of grad F.
    A body that is not an epigraph raises ``NotGraphLike``; an abscissa
    where the height has no gradient, ``NotOnBoundary`` naming it; one where
    the height or the normal overflows, a ValueError naming it.
    """
    if not isinstance(body._impl, _Graph):
        raise NotGraphLike("a graph contact needs a graph-like body, an epigraph")
    x0 = np.atleast_1d(np.asarray(abscissa, dtype=float))
    n = body.ambient_dim - 1
    if x0.shape != (n,):
        raise ValueError(f"anchor abscissa must have {n} component(s)")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"anchor abscissa must be finite, got {x0}")
    with np.errstate(over="ignore", invalid="ignore"):
        height = float(body.defining(np.append(x0, 0.0) + body.translation))
        point = np.append(x0, height) + body.translation
        if not np.all(np.isfinite(point)):
            raise ValueError(f"graph height at abscissa {x0.tolist()} is not finite: {height}")
        try:
            grad = body.defining_gradient(point)
        except NotOnBoundary as e:
            raise NotOnBoundary(f"no graph contact at abscissa {x0.tolist()}: {e}") from e
        normal = np.append(-grad[:-1], 1.0)
        length = float(np.linalg.norm(normal))
    if not math.isfinite(length):
        raise ValueError(f"graph slope at abscissa {x0.tolist()} is not finite")
    return point, normal / length


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
    any shape) by four probes g (1 -+ 2^-20) and g (1 -+ 2^-41). The inner
    pair is within ``_HIT_RTOL``, so a guess good to rounding ends its ray
    on its probes. A ray without a guess is probed at s/3, 2s/3 and s, s the
    body scale, in units of its direction's length like its hit, so at
    multiples of the scale itself only along a unit direction. F is read
    through the body kind's ``quadric``, Q: F itself, or F (F + 2 y_d) on
    the hyperboloid sheet and the circular cone, with y_d the point's last
    local coordinate. Where the quadratic through Q at
    its origin, s/3 and 2s/3 predicts Q(s) to within 64 eps times the sum of
    the four |Q|, Q is quadratic along the ray to rounding (every ellipsoid,
    elliptic paraboloid, hyperboloid sheet and circular cone, the square
    epigraph), and the quadratic's smallest positive root is the ray's
    guess, probed as above in the next ``defining`` call; elsewhere the ray
    goes on from its probe at s. A ray whose probes are all inside steps out
    to 2^1 .. 2^12 times its last inside point, one ``defining`` call a
    round, until one is outside. Then each step evaluates two points in one
    ``defining`` call. F is convex along a ray, so the chord through the
    inside and outside ends lands inside, and the secant through two
    outside points, or through two inside points, lands outside: the root
    lies between the chord root and the nearer secant root. Each point
    updates whichever end its sign says.
    A step that does not halve the bracket (in log scale) is followed by a
    geometric bisection. Every ray stops on its own bracket, once the
    bracket, or the chord and secant roots, are within ``_HIT_RTOL``
    relative to the hit distance or F at either end of the bracket is finite
    and within 4 eps T of 0, T the sum of the magnitudes of F's terms there
    (``terms`` of the body kind), which bounds F's rounding. At the outside
    end h that puts the root within 4 eps T / |F'| of h, and the hit, the
    chord root through the two ends, in [l, root]. So its root does not
    depend on the other rays of the batch, nor on the other origins: each
    hit is bitwise the one a call with its origin alone returns.

    All directions must be non-recessive (guaranteed for bounded sections).
    Origins, directions and every batch of points are held coordinate-major,
    as (d, rays) arrays, and F gets their transposed (rays, d) views, so its
    result must not depend on the layout of its batch. Directions passed as
    the transposed view of a (d, rays) array are used without a copy.
    """
    origin = np.asarray(origin, dtype=float)
    # coordinate-major, (d, rays): a transposed view passed in is not copied
    W = np.ascontiguousarray(np.asarray(directions, dtype=float).T)
    O = np.atleast_2d(origin)
    if W.ndim != 2 or len(W) != O.shape[1]:
        raise ValueError("directions must be an (m, d) array, d the origin's dimension")
    m = W.shape[1]
    if not (np.all(np.isfinite(origin)) and np.all(np.isfinite(W))):
        raise ValueError("ray origin and directions must be finite")
    if len(O) == 0 or m % len(O):
        raise ValueError("directions must split into one equal group per origin")
    if guess is None:
        probes = float(body.scale) * _THIRDS * np.ones(m)
    else:
        g = np.array(guess, dtype=float).ravel()
        if g.size != m:
            raise ValueError(f"guess must hold one distance per ray: {m} expected, got {g.size}")
        if not np.all((g > 0.0) & np.isfinite(g)):
            raise ValueError("initial guesses must be finite and positive")
        probes = g * _GUESS_PROBES
    hits = np.empty(m)
    counts = np.zeros(len(O), dtype=int)
    if m:
        P = np.repeat(O.T, m // len(O), axis=1)  # the origin of each ray
        evals = np.zeros(m, dtype=int)  # points evaluated along each ray
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            S = _bracket(body, O, P, W, probes, guess is None, evals)
            _solve(body, P, W, S, hits, evals)
        counts = evals.reshape(len(O), -1).sum(axis=1) + 1
    return hits, (counts if origin.ndim == 2 else int(counts[0]))


# Solver state: an array of shape (2, 6, rays) holding (position, F) in the
# slots a, b (this step's two points), Lp, l (the last two inside points) and
# h, p (the first two outside points). Unknown slots hold NaN. Column n of
# _NEXT lists, for n of the two points found inside, the slots that become
# a, b, Lp, l, h, p (a and b are placeholders until the next step).
_LP, _L, _H = 2, 3, 4
_NEXT = np.array([[0, 1, 2, 3, 0, 1], [0, 1, 3, 0, 1, 4], [0, 1, 0, 1, 4, 5]]).T


def _points(P, W, x):
    """The points P + x W, x of shape (n, rays), as one coordinate-major
    (d, n * rays) batch: P and W must be C-contiguous, which an index array
    into their rays keeps only through ``take``."""
    return (P[:, None] + x * W[:, None]).reshape(len(P), -1)


def _bracket(body, O, P, W, probes, unguessed, evals):
    """Evaluate the probes (ascending along each ray from its origin in P)
    and the origins O, then step every ray without an outside point out
    along the ladder, one F call a round, until it has one. P and W hold
    each ray's origin and direction as (d, rays) arrays.

    Unguessed rays bring the probes s ``_THIRDS``: a ray whose quadratic
    (fitted to the kind's ``quadric`` of F) gives a guess is probed around
    it in the next round, as a guessed ray is in the first, and the others
    keep only their probe at s. Returns the solver state; adds the points
    evaluated along each ray to ``evals``.
    """
    F = body.defining
    n, m = probes.shape
    f = F(np.concatenate([_points(P, W, probes), O.T], axis=1).T)
    if not np.all(f[n * m:] < 0.0):
        raise NotInterior("ray origin is not inside the body")
    S = np.empty((2, 6, m))
    # each ray's points before its probes: NaN, then the origin
    S[:, _LP], S[0, _L], S[1, _L] = np.nan, 0.0, np.repeat(f[n * m:], m // len(O))
    f = f[:n * m].reshape(n, m)
    climb, rest, fresh = np.arange(m), slice(None), []
    if unguessed:
        # the last local coordinate at the origin and at each probe
        yd = P[-1] - body.translation[-1] + np.vstack((np.zeros(m), probes)) * W[-1]
        g = _quadratic_guess(body._impl.quadric(np.vstack((S[1, _L], f)), yd), probes[0])
        quadratic = g > 0.0
        evals += n - 1
        probes, f = probes[-1:], f[-1:]
        if quadratic.any():
            evals[quadratic] += 1
            fresh = [(climb[quadratic], g[quadratic] * _GUESS_PROBES)]
            climb = rest = climb[~quadratic]
            probes, f = probes[:, rest], f[:, rest]
    if climb.size:
        climb = climb[_extend(S, rest, probes, f, evals)]
    for _ in range(_BRACKET_ROUNDS):
        # one F call for the ladder's points and the quadratic guesses' probes
        groups = [(idx, x) for idx, x in [(climb, S[0, _L, climb] * _LADDER), *fresh] if idx.size]
        if not groups:
            return S
        fx = F(np.concatenate([_points(P.take(idx, axis=1), W.take(idx, axis=1), x)
                               for idx, x in groups], axis=1).T)
        climb, i = [], 0
        for idx, x in groups:
            climb.append(idx[_extend(S, idx, x, fx[i:i + x.size].reshape(x.shape), evals)])
            i += x.size
        climb, fresh = np.concatenate(climb), []
    raise GeometryError("boundary bracketing failed; direction nearly recessive")


def _quadratic_guess(f, step):
    """The smallest positive root of the quadratic through f at 0, step and
    2 step along each ray (the first three rows of f, f < 0 at 0), where it
    predicts f at 3 step (f's last row) to within 64 eps times the sum of
    the four |f|; NaN elsewhere."""
    f0, f1, f2, f3 = f
    exact = np.abs(f3 - 3.0 * f2 + 3.0 * f1 - f0) <= 64.0 * _EPS * np.abs(f).sum(axis=0)
    if not exact.any():
        return np.full(f0.shape, np.nan)
    # in units of step the quadratic is a k^2 + b k + f0
    a = 0.5 * (f2 - 2.0 * f1 + f0)
    b = f1 - f0 - a
    # f0 < 0, so for a > 0 the roots have opposite signs, and for a < 0 both
    # are positive (b > 0) or neither is: each form of the smallest positive
    # one is free of cancellation on its own side of b = 0
    sq = np.sqrt(b * b - 4.0 * a * f0)
    g = step * np.where(b >= 0.0, -2.0 * f0 / (b + sq), (sq - b) / (2.0 * a))
    return np.where(exact & (g > 0.0) & np.isfinite(g * _GUESS_PROBES[-1]), g, np.nan)


def _extend(S, idx, x, fx, evals):
    """Follow the last two points (slots Lp, l) of the rays idx (an index
    array or a slice) by the points x, (n, rays) ascending along each ray,
    with F values fx: with c of them inside before the first outside one,
    slots Lp, l, h, p take the points c to c + 3 of (Lp, l, x, NaN, NaN).
    Adds n to the rays' ``evals`` and returns the mask of those with all n
    inside.

    Near the root F's rounding can read a later point inside again; as in
    ``_NEXT``, only the inside points before the first outside one count,
    so slot l is inside and slot h outside."""
    n, k = x.shape
    seq = np.full((2, n + 4, k), np.nan)
    seq[:, :2] = S[:, _LP:_H, idx]
    seq[0, 2:n + 2], seq[1, 2:n + 2] = x, fx
    c = np.count_nonzero(np.cumprod(fx <= 0.0, axis=0), axis=0)
    S[:, _LP:, idx] = seq.reshape(2, -1).take((c + np.arange(4)[:, None]) * k + np.arange(k),
                                              axis=1)
    evals[idx] += n
    return c == n


def _solve(body, P, W, S, hits, evals):
    """Shrink each ray's bracket [l, h] to F = 0; writes hits.

    P and W hold each ray's origin and direction as (d, rays) arrays. Only
    unfinished rays stay in the state and in P, W. Adds the points
    evaluated along each ray to ``evals``.
    """
    F, terms = body.defining, body._impl.terms
    rays = np.arange(S.shape[2])
    cols = rays
    last_sqrt_ratio = np.full(rays.size, INF)  # sqrt(h / l) before the last step
    noisy = np.zeros(rays.size, dtype=bool)
    for step in range(_SOLVE_STEPS):
        X, Fx = S[0], S[1]
        l, h = X[_L], X[_H]
        # zeros of the lines through (Lp, l), (l, h) and (h, p), each taken
        # from its first point, so that F = inf at h or p gives l or NaN
        x1, f1 = X[_LP:_H + 1], Fx[_LP:_H + 1]
        z = x1 - f1 * ((X[_L:] - x1) / (Fx[_L:] - f1))
        # a: the chord root, kept _HIT_RTOL/2 inside h so that an accurate h ends it
        a = np.fmin(z[1], (1.0 - 0.5 * _HIT_RTOL) * h, out=X[0])
        # b: the nearer secant root from outside; by convexity the root lies
        # in [a, b]. A geometric bisection instead when there is none or the
        # last step did not halve the bracket's log-width
        b = np.fmin(np.where(z[0] > a, z[0], np.nan), z[2])
        ok = (b > a) & (b < h)
        # the midpoint of [a, b] is then within _HIT_RTOL/8 of the root
        close = ok & (b <= (1.0 + 0.25 * _HIT_RTOL) * a)
        # F at l and h rounds within a few eps T of its value, T the sum of
        # the magnitudes of its terms: within 4 eps T of 0, and finite (exp's
        # overflow reads T = inf), the end is on the boundary up to rounding
        fe = Fx[_L:_H + 1]
        T = terms(fe, P[-1] + X[_L:_H + 1] * W[-1] - body.translation[-1])
        rounding = (np.abs(fe) <= 4.0 * _EPS * T) & np.isfinite(fe)
        flat = rounding[0] | rounding[1]
        done = close | (l >= (1.0 - _HIT_RTOL) * h) | flat | noisy
        ratio = h / l
        X[1] = np.where(ok & (ratio <= last_sqrt_ratio), b,
                        np.sqrt(np.fmax(a, 2.0 ** -20 * h) * h))
        last_sqrt_ratio = np.sqrt(ratio)
        if np.count_nonzero(done):
            hits[rays[done]] = np.where(close, 0.5 * (a + b), z[1])[done]
            # two points in each earlier step
            evals[rays[done]] += 2 * step
            keep = ~done
            # unlike S[:, :, keep], compress keeps S contiguous: the flat gather
            # below then reshapes it without a copy
            rays, S = rays[keep], S.compress(keep, axis=2)
            P, W = P.compress(keep, axis=1), W.compress(keep, axis=1)
            if rays.size == 0:
                return
            last_sqrt_ratio = last_sqrt_ratio[keep]
            cols = np.arange(rays.size)
        # this step's ray-sized temporaries, freed before F's batch
        del z, a, b, ok, close, done, ratio, T, rounding, flat
        k = rays.size
        S[1, 0:2] = F(_points(P, W, S[0, 0:2]).T).reshape(2, k)
        inside = S[1, 0:2] <= 0.0
        # the chord root is inside unless F is rounding noise there
        noisy = ~inside[0]
        # slot j of ray i is at j * k + i once S is flat
        S = S.reshape(2, -1).take((_NEXT * k).take(inside[0] * (1 + inside[1]), axis=1) + cols,
                                  axis=1)
    # step cap: the chord roots of the brackets still open
    (l, h), (fl, fh) = S[:, _L:_H + 1]
    hits[rays] = l - fl * ((h - l) / (fh - fl))
    evals[rays] += 2 * _SOLVE_STEPS


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
