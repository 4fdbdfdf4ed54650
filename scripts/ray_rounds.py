#!/usr/bin/env python3
"""Print the work behind each benchmark workload's ops: ray batches, levels,
shell scans and set-ups:

    python scripts/ray_rounds.py --seed 1

Each workload's pool (``perfbench/workloads.py``) is built for the seed and
every op runs once, in pool order, as ``op_digest.py`` runs them, with 17
library names hooked from outside (``install``). The hook logs each call to
them, with the hooked call it was made in, and one handler per name reads
its counts off that call and its children:

- a ``ray_hits_batch`` call's F-rounds are its ``defining`` children. It is
  unguessed (a 2D chord, a gauge ray, or the centring rays of a 3D section
  on a body whose kind has no form, which no workload sections), first
  polar (the first batch of a ``sections._polar_sections`` call, cast in
  its guide ellipse with every radius guessed at 1), or refinement (the
  later batches of a polar rule, guessed by interpolation, and the 128-ray
  grid of a ``section_diameter`` call);
- a spine check is a ``defining`` call made by ``_centred_sections`` itself:
  F at the spine anchors of a 3D section centred from its kind's form, one
  point a level (the closed form's F checks are not spine checks);
- a shell scan is a call of its solver, ``asymptotics._form_crossings`` on
  the closed-form path (ladder and split, two rounds; one that returns None
  has fallen back to the grid scan that follows, and counts apart) or
  ``asymptotics._crossings`` after the grid scan. Its solver rounds are its
  ``defining`` children, one point per bracket still open;
- a 3D section level takes the closed form where ``sections._form_check``
  passes it, casting no ray, and the polar rule otherwise;
- a cut volume is one cut that a ``cutvol._cut_volumes`` call integrates
  (one whose ``fixed`` entry is NaN, whichever rule takes it), and its
  section levels those of the call's ``section_measure`` and ``_sections``
  calls (the two Gauss-Legendre levels of a 3D quadric cut, the nodes of
  ``quad``'s rule elsewhere, or a gradient's cut plane);
- the set-up work is the calls of ``BodySpec.gauss_map`` and of each cone
  kind's ``margin`` with the rows they take, and the plane set-ups
  (``sections._section_frames``: a section batch's normals oriented, their
  bases and their spine anchors) with their normals and levels.

It also prints the ``defining`` calls and oracle points of the pass, the
3D polar levels' rays per level in the first batch and in all (diameter
grids included), the open brackets per round of the grid scans (a stopped
scan counting 0), the minor page faults of the process per op
(``getrusage`` around each op), and the time outside F per ray batch (per
kind and in all) and per shell solver round: its time less its
``defining`` children's, the median over PASSES passes of the pool (one
pass spreads too widely to compare two trees by). Every count comes from
the first pass. A new count is one handler in ``install`` and its line in
``report``.
"""
import argparse
import math
import resource
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402  (first: it pins the thread counts before numpy loads)
import numpy as np  # noqa: E402

KINDS = ("unguessed", "first polar", "refinement")
PASSES = 5
SETUP = {"gauss_map": "Gauss-map", "margin": "cone-margin", "_section_frames": "plane set-ups"}
PATHS = {"_form_crossings": "closed form", "_crossings": "grid"}


class Counts:
    """The counts of one pass, and the seconds of its ray batches and shell
    solvers in all and inside their ``defining`` calls."""

    def __init__(self):
        self.op = None  # the name of the op that runs
        # per op name, its calls, its cut volumes and their section levels
        self.ops, self.volumes, self.levels = defaultdict(int), defaultdict(int), defaultdict(int)
        self.defining = self.points = self.rays = 0  # of the pass: F calls, oracle points, rays
        # the F-rounds of each ray batch, per kind and, if unguessed, per body label
        self.rounds, self.unguessed = defaultdict(list), defaultdict(list)
        self.faults = []  # the minor page faults of each op
        # the 3D levels of the polar rule, the rays of its guessed batches, the
        # levels refined past its first batch and the rays per level of each first
        self.polar_levels = self.polar_rays = self.refined = 0
        self.first_nodes = []
        self.closed = self.fell_back = 0  # 3D levels whose closed-form check passed, failed
        # per shell scan, the points of each solver round (on the grid, the brackets
        # open) and its path: "closed form", "grid", or "fallback" for a closed-form
        # ladder that fell back to the grid
        self.scans, self.paths = [], []
        self.solve_s = self.solve_f_s = 0.0
        self.ray_s, self.ray_f_s = defaultdict(float), defaultdict(float)  # per batch kind
        # per set-up step, its calls and rows (normals; for the plane set-ups, and levels)
        self.setup = defaultdict(lambda: [0, 0, 0])
        self.spine = [0, 0]  # the calls and points of the spine checks


class Call:
    """One hooked call: its name, the hooked call it was made in (None at
    the top), the op that ran it, the summary of its arguments, its result,
    whether it returned (or raised), its seconds and the hooked calls made
    in it, in order."""
    __slots__ = ("name", "parent", "op", "args", "result", "returned", "s", "children")

    def __init__(self, name, parent, op, args):
        self.name, self.parent, self.op, self.args = name, parent, op, args
        self.result, self.returned, self.s, self.children = None, False, 0.0, []

    def under(self, name):
        """Whether this call was made in a call to name, no hooked call between."""
        return self.parent is not None and self.parent.name == name

    def f_calls(self):
        """The ``defining`` calls made in this call, no hooked call between."""
        return [c for c in self.children if c.name == "defining"]


def label(body):
    """A body's kind or function tag, its params and, if moved, its translation."""
    name = body.tag or body.kind
    if body.params:
        name += f" {list(body.params)}"
    if np.any(body.translation):
        name += f" at {body.translation.tolist()}"
    return name


def install(ccgeom, counts):
    """Log every call to the hooked library names and count it into counts
    as it returns or raises; returns a function that restores the library."""
    bodies, sections, cutvol = ccgeom.bodies, ccgeom.sections, ccgeom.cutvol
    asymptotics = ccgeom.asymptotics
    running, undo = [], []  # the hooked calls under way, innermost last

    def hook(owner, name, summary, handler):
        """Log each call to owner.name, with summary(*its arguments), and
        hand it to handler when it ends."""
        orig = owner.__dict__[name]

        def hooked(*args, **kwargs):
            t0 = perf_counter()
            parent = running[-1] if running else None
            call = Call(name, parent, counts.op, summary(*args, **kwargs))
            if parent is not None:
                parent.children.append(call)
            running.append(call)
            try:
                call.result = orig(*args, **kwargs)
                call.returned = True
                return call.result
            finally:
                call.s = perf_counter() - t0
                running.pop()
                handler(call)
                call.parent = None  # no cycle: a tree is freed as its top call ends
        undo.append((owner, name, orig))
        setattr(owner, name, hooked)

    def defining(call):  # one F evaluation; a spine check if made by a section set-up
        n = math.prod(call.args[:-1]) if call.args else 1
        counts.defining += 1
        counts.points += n
        if call.under("_centred_sections"):
            counts.spine[0] += 1
            counts.spine[1] += n

    def ray_batch(call):  # its F-rounds are its defining calls; on raising, its seconds alone
        body, origins, rays, guessed = call.args
        rank = None  # which batch of its polar rule it is, the last so far
        if call.under("_polar_sections"):
            rank = sum(c.name == "ray_hits_batch" for c in call.parent.children) - 1
        kind = "unguessed" if not guessed else "first polar" if rank == 0 else "refinement"
        f = call.f_calls()
        counts.ray_s[kind] += call.s
        counts.ray_f_s[kind] += sum(c.s for c in f)
        if not call.returned:
            return
        counts.rounds[kind].append(len(f))
        counts.rays += rays
        if not guessed:
            counts.unguessed[label(body)].append(len(f))
        elif rank is not None:
            if rank == 0:  # the levels' diameter grids come as more groups of as many rays
                counts.first_nodes.append(rays // origins)
            elif rank == 1:
                counts.refined += origins
            counts.polar_rays += rays

    def polar(call):  # a polar rule over the levels of its anchors, (levels, d)
        if call.args[1] == 3:
            counts.polar_levels += call.args[0]

    def form_check(call):  # its result's mask holds the levels it passed
        if call.returned:
            ok = call.result[0]
            counts.closed += int(np.count_nonzero(ok))
            counts.fell_back += int(ok.size - np.count_nonzero(ok))

    def solver(call):  # a shell scan: its rounds are its defining calls
        f = call.f_calls()
        counts.scans.append([c.args[0] for c in f])
        fell_back = call.returned and call.result is None  # a closed-form ladder
        counts.paths.append("fallback" if fell_back else PATHS[call.name])
        counts.solve_s += call.s
        counts.solve_f_s += sum(c.s for c in f)

    def volumes(call):
        counts.volumes[call.op] += call.args

    def levels(call):
        counts.levels[call.op] += call.args

    def setup(call):
        c = counts.setup[SETUP[call.name]]
        c[0] += 1
        c[1] += call.args[0]
        c[2] += call.args[1]

    def rows(self, rows, *args, **kwargs):
        return len(rows), 0

    def batch(body, origin, directions, guess=None):
        return body, len(origin), len(directions), guess is not None

    def nothing(*args, **kwargs):
        return None

    hook(bodies.BodySpec, "defining", lambda self, x: np.shape(x), defining)
    hook(bodies, "ray_hits_batch", batch, ray_batch)  # the gauge's
    hook(sections, "ray_hits_batch", batch, ray_batch)
    hook(sections, "_centred_sections", nothing, nothing)
    hook(sections, "_polar_sections", lambda body, anchors, *a, **kw: anchors.shape, polar)
    hook(sections, "_form_check", nothing, form_check)
    hook(cutvol, "_cut_volumes",
         lambda body, ranges, *a, **kw: int(np.count_nonzero(np.isnan(ranges[2]))), volumes)
    hook(cutvol, "section_measure", lambda body, u, t, *a, **kw: np.size(t), levels)
    hook(cutvol, "_sections", lambda body, normals, k, ts, *a, **kw: np.size(ts), levels)
    hook(asymptotics, "_crossings", nothing, solver)
    hook(asymptotics, "_form_crossings", nothing, solver)
    hook(bodies.BodySpec, "gauss_map", rows, setup)
    for kind in bodies._CONE_KINDS.values():
        hook(kind, "margin", rows, setup)
    hook(sections, "_section_frames",
         lambda body, normals, which, ts, *a, **kw: (len(normals), len(ts)), setup)

    def uninstall():
        for owner, name, orig in reversed(undo):
            setattr(owner, name, orig)
    return uninstall


def report(name, seed, n_ops, counts, passes=None):
    """The report of one workload's counts (its first pass), with the
    times of the passes (the counts of each pass; default, the first)."""
    passes = passes or [counts]
    calls = sum(len(r) for r in counts.rounds.values())
    lines = [f"{name} seed {seed}: {n_ops} ops, {calls} ray_hits_batch calls, "
             f"{counts.rays:,} rays"]
    for kind in KINDS:
        r = counts.rounds.get(kind)
        if r:
            lines.append(f"  {kind:<12} F-rounds per call {np.mean(r):6.2f} (max {max(r)}) "
                         f"over {len(r)} calls")
    for body, r in counts.unguessed.items():
        lines.append(f"    unguessed on {body}: {np.mean(r):.2f} (max {max(r)}) "
                     f"over {len(r)} calls")
    if calls:
        times = [f"all {_median_us(passes, KINDS, calls):.1f} us"]
        times += [f"{kind} {_median_us(passes, [kind], len(counts.rounds[kind])):.1f} us"
                  for kind in KINDS if counts.rounds.get(kind)]
        lines.append(f"  ray_hits_batch time per call outside F, median of {len(passes)} "
                     f"passes: " + ", ".join(times))
    lines.append(f"  defining calls {counts.defining:,}, oracle points {counts.points:,}")
    lines.append(f"  spine checks: defining calls {counts.spine[0]:,}, oracle points "
                 f"{counts.spine[1]:,}")
    gauss, margin, planes = (counts.setup[k] for k in ("Gauss-map", "cone-margin", "plane set-ups"))
    lines.append(f"  set-up: Gauss-map calls {gauss[0]:,} ({gauss[1]:,} normals), cone-margin "
                 f"calls {margin[0]:,} ({margin[1]:,} rows), plane set-ups {planes[0]:,} "
                 f"({planes[1]:,} normals, {planes[2]:,} levels)")
    if counts.scans:
        paths = [counts.paths.count(p) for p in ("closed form", "grid", "fallback")]
        lines.append("  shell scans by path: {} closed form, {} grid; {} closed-form ladders "
                     "fell back to the grid".format(*paths))
        s = [len(r) for r, p in zip(counts.scans, counts.paths) if p != "fallback"]
        if s:
            lines.append(f"  solver rounds per shell scan {np.mean(s):.2f} (max {max(s)}) "
                         f"over {len(s)} scans")
        grid = [r for r, p in zip(counts.scans, counts.paths) if p == "grid"]
        if grid:
            table = np.zeros((len(grid), max(map(len, grid))))  # a stopped scan has 0 open
            for row, brackets in zip(table, grid):
                row[:len(brackets)] = brackets
            lines.append("  open brackets per solver round, mean over the grid scans: "
                         + "/".join(f"{m:.1f}" for m in table.mean(axis=0)))
        rounds = sum(map(len, counts.scans))
        outside = 1e6 * np.median([c.solve_s - c.solve_f_s for c in passes]) / rounds
        lines.append(f"  solver time per round outside F {outside:.1f} us over {rounds} rounds"
                     f" (median of {len(passes)} passes)")
    if counts.faults:
        f = counts.faults
        lines.append(f"  minor page faults per op: median {np.median(f):g}, "
                     f"mean {np.mean(f):.1f} (max {max(f)}) over {len(f)} ops")
    if counts.closed or counts.polar_levels:
        lines.append(f"  3D section levels by path: {counts.closed:,} closed form, "
                     f"{counts.polar_levels:,} polar; {counts.fell_back:,} fell back")
    if counts.polar_levels:
        nodes = sorted(set(counts.first_nodes))
        lines.append(f"  polar rays per 3D section level: {'/'.join(map(str, nodes))} in the "
                     f"first batch, {counts.polar_rays / counts.polar_levels:.2f} in all over "
                     f"{counts.polar_levels:,} levels; {counts.refined} levels refined "
                     f"past the first batch")
    volumes = {op: n for op, n in counts.volumes.items() if n}
    if volumes:
        lines.append(f"  section levels {sum(counts.levels.values()):,} over "
                     f"{sum(volumes.values())} cut volumes")
    for op, volumes in volumes.items():
        levels, calls = counts.levels[op], counts.ops[op]
        lines.append(f"    {op}: {calls} calls, {volumes} volumes, {levels:,} levels, "
                     f"{levels / volumes:.2f} per volume, {levels / calls:.2f} per call")
    return "\n".join(lines)


def _median_us(passes, kinds, calls):
    """The median over passes of the microseconds per call outside F of
    the ray batches of kinds, calls of them a pass."""
    return 1e6 * np.median([sum(c.ray_s[k] - c.ray_f_s[k] for k in kinds)
                            for c in passes]) / calls


def run_pool(pool, counts):
    """Run every op of pool once, in order, counting its calls and the minor
    page faults of the process around it into counts."""
    for op in pool:
        counts.op = op.name
        counts.ops[op.name] += 1
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        op.call()
        counts.faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    ccgeom, _ = run.import_library()
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        pool = workload.build(args.seed)
        passes = []
        for _ in range(PASSES):
            passes.append(Counts())
            uninstall = install(ccgeom, passes[-1])
            try:
                run_pool(pool, passes[-1])
            finally:
                uninstall()
        print(report(name, args.seed, len(pool), passes[0], passes), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
