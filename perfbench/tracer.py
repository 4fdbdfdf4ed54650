"""Outside-in tracer: spans around ccgeom's layer boundaries, no source edits.

The tracer replaces names where the callers look them up: methods on the
body classes, and module globals such as ``sections.ray_hits_batch`` or
``cutvol.quad``. Each wrapped call records a span (name, start, end, parent
span, op id, item count) in memory. A call made while a span of the same
name is innermost is not recorded again, so ``contains`` calling
``defining`` is one oracle call. ``uninstall`` restores every name.
"""
from __future__ import annotations

import csv
from collections import defaultdict
from time import perf_counter

import numpy as np

ORACLE = "bodies.oracle"
RAY_BATCH = "bodies.ray_hits_batch"
QUAD = "cutvol.quad"
SHELL = "asymptotics.body_shell_points"
CDIST = "asymptotics.cdist"
SECTION_CALLS = ("section_measure", "section_stats", "section_diameter")
SECTIONS = tuple("sections." + f for f in SECTION_CALLS)

def _points(args, kwargs):
    """Points in an oracle call: method(self, x), x of shape (..., dim)."""
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    return x.size // x.shape[-1] if x.ndim else 1


def _rays(args, kwargs):
    """Rays in ray_hits_batch(setlike, origin, directions, ...)."""
    return int(np.shape(args[2] if len(args) > 2 else kwargs["directions"])[0])


class Tracer:
    """Span recorder; spans are lists [name, start, end, parent, op, count]."""

    def __init__(self):
        self.spans = []
        self.first = None  # spans of the first pass
        self.stack = []
        self.op = -1
        self._undo = []

    def begin(self, name, count=0):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, count])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def end_pass(self):
        """Keep the first pass's spans; drop those of later passes."""
        if self.first is None:
            self.first = self.spans
        self.spans = []

    def wrap(self, owner, attr, name, count=None):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.spans[stack[-1]][0] == name:
                return orig(*args, **kwargs)
            idx = tracer.begin(name, count(args, kwargs) if count else 0)
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.end(idx)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def install(self, ccgeom):
        """Wrap every layer boundary of the imported ccgeom package."""
        bodies, sections = ccgeom.bodies, ccgeom.sections
        cutvol, centroids, asym = ccgeom.cutvol, ccgeom.centroids, ccgeom.asymptotics
        self.wrap(bodies.BodySpec, "contains", ORACLE, _points)
        self.wrap(bodies.BodySpec, "defining", ORACLE, _points)
        self.wrap(bodies.ConeDescriptor, "contains", ORACLE, _points)
        self.wrap(sections, "ray_hits_batch", RAY_BATCH, _rays)
        self.wrap(asym, "ray_hits_batch", RAY_BATCH, _rays)
        for fn in SECTION_CALLS:
            self.wrap(cutvol, fn, "sections." + fn)
        self.wrap(cutvol, "quad", QUAD)
        self.wrap(centroids, "section_stats", "sections.section_stats")
        self.wrap(asym, "body_shell_points", SHELL)
        self.wrap(asym, "cdist", CDIST)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    def write(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["name", "start", "end", "parent", "op", "count"])
            w.writerows(self.first)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer counts and self times from one traced pass of a workload.

    Self time is a span's duration minus the durations of its children
    (children of one span never overlap in a single-threaded run).
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    c = defaultdict(float)
    last_batch = {}
    for i, (name, t0, t1, parent, _, count) in enumerate(spans):
        self_s = t1 - t0 - child[i]
        up = spans[parent][0] if parent >= 0 else None
        if name == ORACLE:
            c["oracle_calls"] += 1
            c["oracle_points"] += count
            c["oracle_self_s"] += self_s
            if up == RAY_BATCH:
                c["ray_points"] += count
            elif up in SECTIONS and count == 1:
                c["section_scalar_calls"] += 1
        elif name == RAY_BATCH:
            c["ray_calls"] += 1
            c["rays"] += count
            c["ray_self_s"] += self_s
            if up in SECTIONS:
                c["section_rays"] += count
                last_batch[parent] = count
            elif up == SHELL:
                c["shell_batches"] += 1
                c["shell_rays"] += count
        elif name in SECTIONS:
            c[name + ".calls"] += 1
            c["sections_self_s"] += self_s
            if up == QUAD:
                c["quad_sections"] += 1
            elif up == "centroids.sccp_residual":
                c["curve_sections"] += 1
        elif name == QUAD:
            c["quads"] += 1
            c["quad_s"] += t1 - t0
            c["cutvol.self_s"] += self_s
        elif name == SHELL:
            c["shells"] += 1
            c["asymptotics.self_s"] += self_s
        elif name == CDIST:
            c["hausdorff_s"] += t1 - t0
        elif parent < 0:  # an op: one public call issued by the benchmark
            c[name.split(".")[0] + ".self_s"] += self_s
            if name == "centroids.sccp_residual":
                c["curves"] += 1
    n_sections = sum(c[s + ".calls"] for s in SECTIONS)
    return {
        "bodies.oracle_calls": c["oracle_calls"],
        "bodies.oracle_points": c["oracle_points"],
        "bodies.points_per_call": _ratio(c["oracle_points"], c["oracle_calls"]),
        "bodies.oracle_self_s": c["oracle_self_s"],
        "bodies.ray_hits_batch.calls": c["ray_calls"],
        "bodies.ray_hits_batch.rays": c["rays"],
        "bodies.ray_hits_batch.points_per_ray": _ratio(c["ray_points"], c["rays"]),
        "bodies.ray_hits_batch.self_s": c["ray_self_s"],
        "sections.section_measure.calls": c["sections.section_measure.calls"],
        "sections.section_stats.calls": c["sections.section_stats.calls"],
        "sections.section_diameter.calls": c["sections.section_diameter.calls"],
        "sections.self_s": c["sections_self_s"],
        "sections.rays_per_section": _ratio(c["section_rays"], n_sections),
        "sections.useful_ray_frac": _ratio(sum(last_batch.values()), c["section_rays"]),
        "sections.scalar_oracle_calls_per_section":
            _ratio(c["section_scalar_calls"], n_sections),
        "cutvol.cut_volumes": c["quads"],
        "cutvol.sections_per_volume": _ratio(c["quad_sections"], c["quads"]),
        "cutvol.quad_s": c["quad_s"],
        "cutvol.self_s": c["cutvol.self_s"],
        "centroids.sections_per_curve": _ratio(c["curve_sections"], c["curves"]),
        "centroids.self_s": c["centroids.self_s"],
        "asymptotics.ray_batches_per_shell": _ratio(c["shell_batches"], c["shells"]),
        "asymptotics.rays_per_shell": _ratio(c["shell_rays"], c["shells"]),
        "asymptotics.hausdorff_s": c["hausdorff_s"],
        "asymptotics.self_s": c["asymptotics.self_s"],
    }
