"""Seeded workloads: each builds a pool of public ccgeom calls with oracles.

A workload turns a seed into a list of ops. An op is one public call plus
the closed-form values its result must match. Inputs are drawn with
numpy's default_rng and filtered for admissibility through the public API
only (section_bounded, admissible_levels, recession_cone().positive_on,
section_diameter), so the library receives nothing but the final inputs.
The kinds of op are interleaved in the pool, and the benchmark runs whole
passes over it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import ccgeom as cg
import oracles as orc

# Azimuths per 3D shell scan. The library default is 720 (about 2.5 s per
# call here); 96 keeps the same one-ray-batch-per-azimuth loop while leaving
# room for 60 calls in a run, enough for a tail percentile.
SHELL_AZIMUTHS = 96


@dataclass(frozen=True)
class Check:
    """One returned value against its closed form.

    The relative error is |got - want| / max(|want|, ref). Values with
    counts_digits=False are checked against rtol but left out of digits_min
    (finite-difference gradients, whose error is set by the difference step
    rather than the requested tolerance).
    """

    label: str
    got: object
    want: object
    rtol: float
    ref: float = 0.0
    counts_digits: bool = True

    def rel_error(self) -> float:
        got = np.atleast_1d(np.asarray(self.got, dtype=float))
        want = np.atleast_1d(np.asarray(self.want, dtype=float))
        den = max(float(np.linalg.norm(want)), self.ref)
        return float(np.linalg.norm(got - want)) / den


@dataclass(frozen=True)
class Op:
    """One public call and the checks its result must pass."""

    name: str  # "<module>.<function>" of the public call
    call: Callable[[], object]
    check: Callable[[object], list]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list]
    # normalized seconds one pass of the pool took when the benchmark was
    # defined; sets how many passes a run of a given length makes
    pass_s: float


# -- shared input generation ------------------------------------------------------


def latin_cells(rng, k, dims):
    """Cells of a Latin hypercube: row i picks one of k slices on each axis.

    Every slice of every axis is used once, so a pool of k inputs covers the
    input ranges evenly and the work in a pool varies little with the seed.
    """
    return np.argsort(rng.random((dims, k)), axis=1).T


def draw_in_cells(rng, cells, accept, max_tries=200):
    """For each cell, a point uniform in it that `accept` maps to an input."""
    k = len(cells)
    out = []
    for cell in cells:
        for _ in range(max_tries):
            value = accept((cell + rng.random(cell.shape)) / k)
            if value is not None:
                out.append(value)
                break
        else:
            raise RuntimeError(f"no admissible input in cell {cell.tolist()}")
    return out


def tilted_normal(dim, f_tilt, f_azimuth, min_vertical):
    """Unit normal with last component in [min_vertical, 1], area-uniform in f."""
    if dim == 2:
        theta = (2.0 * f_azimuth - 1.0) * math.acos(min_vertical)
        return np.array([math.sin(theta), math.cos(theta)])
    z = min_vertical + (1.0 - min_vertical) * f_tilt
    r = math.sqrt(1.0 - z * z)
    phi = 2.0 * math.pi * f_azimuth
    return np.array([r * math.cos(phi), r * math.sin(phi), z])


def _bounded_upward(body, u):
    cone = body.recession_cone()
    return cg.section_bounded(body, u) and (cone.dim == 0 or cone.positive_on(u))


def admissible_cuts(body, rng, k, min_vertical=0.3):
    """k cut parameters a = u / s with 0 < V(a) < inf and a well-sized section.

    Stratified over the normal's tilt and azimuth and the level's place in
    the admissible range (truncated at 4 * scale above the body's bottom
    when the body is unbounded in +u).
    """
    scale = body.scale

    def accept(f):
        u = tilted_normal(body.ambient_dim, f[0], f[1], min_vertical)
        if not _bounded_upward(body, u):
            return None
        lo, hi = cg.admissible_levels(body, u)
        if not math.isfinite(hi):
            hi = max(lo, 0.0) + 4.0 * scale
        s = lo + (0.2 + 0.6 * f[2]) * (hi - lo)
        if s <= 0.1 * scale or cg.section_diameter(body, u, s) > 20.0 * scale:
            return None
        return u / s

    return draw_in_cells(rng, latin_cells(rng, k, 3), accept)


def admissible_directions(body, rng, k, min_vertical=0.0):
    """k unit normals with bounded sections, +u on the unbounded side."""
    def accept(f):
        u = tilted_normal(body.ambient_dim, f[0], f[1], min_vertical)
        return u if _bounded_upward(body, u) else None

    return draw_in_cells(rng, latin_cells(rng, k, 2), accept)


def stratified(rng, k, lo, hi, log=False):
    """k values, one in each of k equal slices of [lo, hi] (of its log if log)."""
    f = (latin_cells(rng, k, 1)[:, 0] + rng.random(k)) / k
    if log:
        return [float(math.exp(math.log(lo) + x * math.log(hi / lo))) for x in f]
    return [float(lo + x * (hi - lo)) for x in f]


def interleave(*streams):
    """Round-robin merge, so that every prefix mixes all streams."""
    out = []
    for i in range(max(len(s) for s in streams)):
        out.extend(s[i] for s in streams if i < len(s))
    return out


# -- oracle checks shared by several workloads -----------------------------------------

RTOL_VALUE = 1e-7  # library default rtol is 1e-8; observed errors are ~1e-11
RTOL_FD_GRAD = 1e-4  # same bound as the gradient-identity acceptance criterion
RTOL_LINE = 1e-6


def _gradient_checks(r, volume, measure, centroid, grad, diameter=None):
    out = [
        Check("V", r.V, volume, RTOL_VALUE),
        Check("section_measure", r.section_measure, measure, RTOL_VALUE),
        Check("section_centroid", r.section_centroid, centroid, RTOL_VALUE, 1.0),
        Check("grad", r.grad, grad, RTOL_FD_GRAD, counts_digits=False),
    ]
    if diameter is not None:
        out.append(Check("section_diameter", r.section_diameter, diameter, RTOL_VALUE))
    return out


def _cut_ops(body, a, exact, gradient):
    """cut_volume or cut_gradient on one cut, checked against exact(a)."""
    if gradient:
        def check(r):
            return _gradient_checks(r, *exact(a))
        return Op("cutvol.cut_gradient", lambda: cg.cut_gradient(body, a), check)

    def check_v(v):
        return [Check("V", v, exact(a)[0], RTOL_VALUE)]
    return Op("cutvol.cut_volume", lambda: cg.cut_volume(body, a), check_v)


# -- cutvol-3d ------------------------------------------------------------------------


def build_cutvol_3d(seed, per_body=20):
    rng = np.random.default_rng(seed)
    center = np.array([0.0, 0.0, 3.0])
    sphere = cg.unit_sphere(center=center)
    q, shift = np.array([1.0, 0.7]), np.array([0.0, 0.0, 1.0])
    parab = cg.paraboloid_epigraph(q, shift=shift)

    def sphere_exact(a):
        v, m, c, d, g = orc.ball_cut(center, a)
        return v, m, c, g, d

    def parab_exact(a):
        return orc.paraboloid_cut(q, shift, a)

    streams = []
    # below u_z = 0.4 the paraboloid's highest cuts have sections wider than
    # admissible_cuts allows, so those cells would hold no admissible cut
    for body, exact, min_vertical in ((sphere, sphere_exact, 0.3),
                                      (parab, parab_exact, 0.4)):
        # one gradient (7 cut volumes) per three single volumes; each kind is
        # stratified on its own, since a cut's tilt sets how many polar nodes
        # its sections need
        n_grad = per_body // 4
        cuts = {True: admissible_cuts(body, rng, n_grad, min_vertical),
                False: admissible_cuts(body, rng, per_body - n_grad, min_vertical)}
        streams.append([_cut_ops(body, cuts[i % 4 == 2].pop(), exact, gradient=(i % 4 == 2))
                        for i in range(per_body)])
    return interleave(*streams)


# -- sccp-3d ----------------------------------------------------------------------------


def _sccp_op(body, u, line, fits, slot, scale):
    base, direction = line

    def call():
        fits[slot] = cg.sccp_residual(body, u)
        return fits[slot]

    def check(fit):
        off, gap = orc.line_gap(fit.base, fit.dir, base, direction)
        return [Check("line_offset", off, 0.0, RTOL_LINE, scale),
                Check("line_angle", gap, 0.0, RTOL_LINE, 1.0),
                Check("residual_norm", fit.residual_norm, 0.0, RTOL_LINE, 1.0)]
    return Op("centroids.sccp_residual", call, check)


def _classify_op(fits, tag, witness, scale):
    def call():
        return cg.classify_lines([f for f in fits if f is not None])

    def check(v):
        out = [Check("witness", v.witness, witness, RTOL_LINE, scale)]
        if v.tag != tag:  # a wrong verdict fails outright
            out.append(Check(f"tag {v.tag} != {tag}", 1.0, 0.0, 0.0, 1.0))
        return out
    return Op("centroids.classify_lines", call, check)


def build_sccp_3d(seed, per_body=12):
    rng = np.random.default_rng(seed)
    center = np.array([0.2, -0.1, 0.4])
    semi = np.array([1.3, 0.8, 1.0])
    q = np.array([1.0, 0.7])
    alpha = np.array([1.0, 1.4])
    cases = [
        (cg.ellipsoid(semi, center=center), 0.0,
         lambda u: orc.conjugate_line(center, semi ** 2, u), "concurrent", center),
        # near-horizontal normals give near-vertical sections of huge extent
        (cg.paraboloid_epigraph(q), 0.8,
         lambda u: orc.paraboloid_line(q, u), "parallel", np.array([0.0, 0.0, 1.0])),
        # u_z >= 0.85 keeps every normal at least 0.11 inside the admissible
        # cone u_z > |(u_x, 1.4 u_y)|; at the cone's edge the polar rule's node
        # count grows without bound and a single input would set the tail
        (cg.hyperboloid_sheet(alpha), 0.85,
         lambda u: orc.conjugate_line(np.zeros(3), np.append(alpha ** 2, -1.0), u),
         "concurrent", np.zeros(3)),
    ]
    streams, tails = [], []
    for body, min_vertical, line, tag, witness in cases:
        # classify_lines reads the lines the sccp ops of the same pass stored
        fits = [None] * per_body
        dirs = admissible_directions(body, rng, per_body, min_vertical)
        streams.append([_sccp_op(body, u, line(u), fits, i, body.scale)
                        for i, u in enumerate(dirs)])
        tails.append(_classify_op(fits, tag, witness, body.scale))
    return interleave(*streams) + tails


# -- shell-3d ---------------------------------------------------------------------------


def _shell_op(body, R, want, **kwargs):
    cone = body.recession_cone()
    return Op("asymptotics.shell_distance",
              lambda: cg.shell_distance(body, cone, R, **kwargs),
              lambda sd: [Check("d_asym", sd.d_asym, want, RTOL_VALUE)])


def _blowdown_op(body, R, want):
    return Op("asymptotics.blowdown_check", lambda: cg.blowdown_check(body, R),
              lambda d: [Check("d_blowdown", d, want, RTOL_VALUE)])


def build_shell_3d(seed, per_body=7):
    rng = np.random.default_rng(seed)
    alpha, q = (1.0, 1.4), (1.0, 0.7)
    cases = [
        (cg.hyperboloid_sheet([1.0, 1.0]), orc.unit_hyperboloid_shell),
        (cg.hyperboloid_sheet(alpha),
         lambda R: orc.azimuth_shell_3d("hyperboloid", alpha, R, SHELL_AZIMUTHS)),
        (cg.paraboloid_epigraph(q),
         lambda R: orc.azimuth_shell_3d("paraboloid", q, R, SHELL_AZIMUTHS)),
    ]
    # seven radii per body, so the ten samples beyond op_tail_s spread over
    # several inputs instead of the two costliest; 21 ops keep the pool odd
    streams = []
    for body, exact in cases:
        radii = stratified(rng, per_body, 30.0, 300.0, log=True)
        streams.append([_shell_op(body, R, exact(R), n_azimuth=SHELL_AZIMUTHS)
                        for R in radii])
    return interleave(*streams)


# -- planar-2d --------------------------------------------------------------------------


def _scan_op(name, scan, body, k, anchors, want):
    def check(values):
        return [Check("value", values, [want] * len(anchors), RTOL_VALUE)]
    return Op(name, lambda: scan(body, k, anchors), check)


def _parabola_sccp_op(body, m):
    u = np.array([-m, 1.0]) / math.hypot(m, 1.0)

    def check(fit):
        x0 = fit.base[0] - fit.dir[0] * fit.base[1] / fit.dir[1]
        return [Check("x_intercept", x0, m / 2.0, RTOL_LINE, 1.0),
                Check("residual_norm", fit.residual_norm, 0.0, RTOL_LINE, 1.0)]
    return Op("centroids.sccp_residual", lambda: cg.sccp_residual(body, u), check)


def _superellipse_sccp_op(body, p, u):
    res, base = orc.superellipse_residual(p, u, cg.sample_levels(body, u))

    def check(fit):
        return [Check("residual_norm", fit.residual_norm, res, RTOL_LINE),
                Check("base", fit.base, base, RTOL_LINE, 1.0)]
    return Op("centroids.sccp_residual", lambda: cg.sccp_residual(body, u), check)


def build_planar_2d(seed, per_body=3):
    """17 * per_body ops: per_body sets how many of each kind a pass holds."""
    rng = np.random.default_rng(seed)
    disk_center = np.array([0.0, 3.0])
    par_shift = np.array([0.0, 1.0])
    disk = cg.unit_disk(center=disk_center)
    parab = cg.function_epigraph("square", shift=par_shift)
    hyper = cg.hyperboloid_sheet([1.0])

    def disk_exact(a):
        v, m, c, d, g = orc.ball_cut(disk_center, a)
        return v, m, c, g

    def parab_exact(a):
        return orc.paraboloid_cut([1.0], par_shift, a)

    def hyper_exact(a):
        area, length, mid = orc.hyperbola_cut(1.0, a)
        return area, length, mid, -length * mid / np.linalg.norm(a)

    # hyperbola normals stay inside its recession cone's dual, |u_x| < u_y
    grads = interleave(*[
        [_cut_ops(body, a, exact, gradient=True)
         for a in admissible_cuts(body, rng, 2 * per_body, min_vertical)]
        for body, exact, min_vertical in ((disk, disk_exact, 0.3), (parab, parab_exact, 0.3),
                                          (hyper, hyper_exact, 0.75))
    ])
    square = cg.function_epigraph("square")
    scans = []
    for k_par, k_hom in zip(stratified(rng, 2 * per_body, 0.5, 2.0),
                            stratified(rng, 2 * per_body, 1.5, 3.0)):
        anchors = [[x] for x in rng.uniform(-2.0, 2.0, size=5)]
        scans.append(_scan_op("cutvol.parallel_cut_scan", cg.parallel_cut_scan, square,
                              k_par, anchors, orc.parabola_parallel_area(k_par)))
        anchors = [[x] for x in rng.uniform(-1.0, 1.0, size=5)]
        scans.append(_scan_op("cutvol.homothety_cut_scan", cg.homothety_cut_scan, hyper,
                              k_hom, anchors, orc.hyperbola_homothety_area(1.0, k_hom)))
    # oblique superellipse normals, away from the symmetry axes where the
    # centroid curve is straight
    superell = cg.superellipsoid(4.0)
    thetas = [t + rng.integers(4) * math.pi / 2.0
              for t in stratified(rng, per_body, math.pi / 16.0, 3.0 * math.pi / 16.0)]
    sccp = interleave(
        [_parabola_sccp_op(square, m) for m in stratified(rng, 2 * per_body, -2.0, 2.0)],
        [_superellipse_sccp_op(superell, 4.0, np.array([math.cos(t), math.sin(t)]))
         for t in thetas])
    # the hyperbola's shell distance is the least accurate value of the
    # workload (9 to 10.5 digits, varying with R), so digits_min is the
    # minimum over several radii rather than one draw
    expo = cg.function_epigraph("exp")
    shells = []
    for R_exp, R_hyp in zip(stratified(rng, per_body, 1e2, 1e4, log=True),
                            stratified(rng, per_body, 1e2, 1e3, log=True)):
        shells += [
            _shell_op(expo, R_exp, orc.quadrant_shell(orc.exp_shell(R_exp), R_exp)),
            _blowdown_op(expo, R_exp, orc.quadrant_shell(
                orc.exp_shell(R_exp, center_y=2.0), R_exp) / R_exp),
            _shell_op(hyper, R_hyp, orc.unit_hyperboloid_shell(R_hyp)),
            _blowdown_op(hyper, R_hyp, orc.hyperbola_blowdown(R_hyp)),
        ]
    # an odd pool (for odd per_body): the median falls inside the repeats of
    # one op, not on the gap between two
    return interleave(grads, scans, sccp, shells)


WORKLOADS = {
    w.name: w for w in (
        Workload("cutvol-3d", build_cutvol_3d, 13.0),
        Workload("sccp-3d", build_sccp_3d, 3.1),
        Workload("shell-3d", build_shell_3d, 7.4),
        Workload("planar-2d", build_planar_2d, 5.1),
    )
}
