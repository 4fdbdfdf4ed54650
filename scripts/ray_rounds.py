#!/usr/bin/env python3
"""Print how many F-rounds the ray batches of each benchmark workload take,
how many levels its cut volumes section and how many solver rounds its
shell scans take:

    python scripts/ray_rounds.py --seed 1

Each workload's pool (``perfbench/workloads.py``) is built for the seed and
every op runs once, in pool order, with ``BodySpec.defining``,
``ray_hits_batch`` and the levels that ``cutvol`` sections counted from
outside the library, as ``op_digest.py`` runs them. An F-round is one
``defining`` call made inside one ``ray_hits_batch`` call. Each batch is of
one of three kinds:

- unguessed: a 2D chord, a gauge ray (and the centring rays of a 3D
  section on a body whose kind has no form, which no workload sections);
- first polar: the first guessed batch of a 3D section's polar rule, cast
  in its guide ellipse's angle with every radius guessed at 1 (a 3D
  level centred from its kind's form that asks for its measure alone casts
  none when F confirms its closed form, ``sections._form_check``);
- refinement: the later guessed batches, guessed by interpolation, and
  the 128-ray grid of a ``section_diameter`` call, cast outside any rule.

For each workload it prints the ``ray_hits_batch`` calls and rays, the
F-rounds per call of each kind (mean and max, and its number of calls),
the unguessed F-rounds per call of each body (its kind or function tag,
params and any translation), the root-finder's time per call outside F,
and the ``defining`` calls and oracle points (points at which
``defining`` was evaluated) of the whole pass, the spine checks (the
``defining`` calls, and their points, that a section set-up makes outside
any ray batch: F at the spine anchors of a 3D section centred from its
kind's form, one point a level; the F checks of closed-form measures are
counted in the pass's calls but not here), the solver rounds per shell
scan (mean and max, and the number of scans), how many scans took each
path (the closed form or the grid scan, and how many closed-form ladders
fell back to the grid), the brackets still open in each solver round of
the grid scans (the mean over them, a scan that has stopped counting 0),
the solver's mean time per round outside F, and the minor
page faults of the process per op (``getrusage`` around each op; the
median, which the first op's one-off set-up, such as the shell scan's
cached arcs, does not move, the mean and the max). For each op that
integrates cut volumes it prints its calls, the volumes they integrate (one
``quad`` integral each), the section levels they take (each a node of a
volume's quadrature rule, or a gradient's cut plane) and the levels per
volume and per call. It prints how many 3D section levels took each
path: the closed form (measure-only levels centred from a form whose F
check passed), or the polar rule, and how many of those checked fell back
to the polar rule. For the 3D section levels of the polar rule it
prints the rays per level of the first polar batch (the rule's first
nodes), the polar rays per level over all its guessed batches (diameter
grids included), and how many levels were refined past the first batch.
It also prints the set-up work of the pass: the calls of the row-wise Gauss
map (``BodySpec.gauss_map``) and the normals they take, the calls of the
cone margin (the ``margin`` of each cone kind; ``ConeDescriptor.sides``
takes it on the rows u and -u) and the rows they take, and the plane
set-ups (``sections._section_frames``, which orients the normals of a
section batch, builds their bases and places their spine anchors) with
their normals and levels.

A shell scan's solver rounds are the ``defining`` calls made inside its
solver, which the script wraps by name: ``asymptotics._form_crossings`` on
the closed-form path (its ladder and its split, two calls), and
``asymptotics._crossings`` after the grid scan, one call per round, one
point per bracket still open. A closed-form call that returns None has
fallen back to the grid: its ladder call counts apart, and the grid scan
that follows is the scan. The solver's time outside F is the time inside
the solvers less the time of those calls.
Likewise the ray root-finder's time per call outside F, for all its calls
and for each batch kind, is the time inside ``ray_hits_batch`` less that of
its ``defining`` calls. Both times are the median over PASSES passes of
the pool (one pass spreads too widely to compare two trees by); every
count comes from the first pass.
"""
import argparse
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


class Counts:
    """Oracle and ray-batch counts of one pass; ``rounds[kind]`` lists the
    F-rounds of each ray batch of that kind, ``unguessed[body]`` those of
    each unguessed batch on the body of that label; ``ops``, ``volumes`` and
    ``levels`` count the calls, cut volumes and section levels of each op
    name ``op``; ``faults`` lists the minor page faults of each op;
    ``polar_levels``, ``polar_rays`` and ``refined`` count the 3D levels of
    the polar rule, the rays of its guessed batches and the levels refined
    past its first batch, and ``first_nodes`` lists the rays per level of
    each first polar batch; ``closed`` and ``fell_back`` count the 3D levels
    that F's check of the closed form passed and failed; ``scans`` lists,
    for each shell scan, the points of each of its solver rounds (on the
    grid path, the brackets open), ``paths`` the path of each ("closed
    form", "grid", or "fallback" for a closed-form ladder that fell back),
    ``solve`` is the list of the
    scan whose solver runs (or None), and ``solve_s`` and ``solve_f_s`` are
    the seconds inside the solver and inside its ``defining`` calls; ``ray``
    is the kind of the running ``ray_hits_batch`` call (or None), and
    ``ray_s[kind]`` and ``ray_f_s[kind]`` are the seconds inside the calls
    of that kind and inside their ``defining`` calls; ``setup[name]`` counts
    the calls and rows of each set-up step (rows: normals, or for the plane
    set-ups normals and levels); ``centring`` is whether a section set-up
    (``sections._centred_sections``) runs, and ``spine`` counts the calls
    and points of the ``defining`` calls it makes outside any ray batch."""

    def __init__(self):
        self.op = None  # the name of the op that runs
        self.ops = defaultdict(int)
        self.volumes = defaultdict(int)
        self.levels = defaultdict(int)
        self.defining = 0
        self.points = 0
        self.rays = 0
        self.rounds = defaultdict(list)
        self.unguessed = defaultdict(list)
        self.faults = []
        self.polar_levels = 0
        self.polar_rays = 0
        self.refined = 0
        self.first_nodes = []
        self.closed = 0
        self.fell_back = 0
        self.guessed = None  # guessed batches of the running polar rule so far
        self.scans = []
        self.paths = []
        self.solve = None
        self.solve_s = 0.0
        self.solve_f_s = 0.0
        self.ray = None
        self.ray_s = defaultdict(float)
        self.ray_f_s = defaultdict(float)
        self.setup = defaultdict(lambda: [0, 0, 0])
        self.centring = False
        self.spine = [0, 0]


def label(body):
    """A body's kind or function tag, its params and, if moved, its translation."""
    name = body.tag or body.kind
    if body.params:
        name += f" {list(body.params)}"
    if np.any(body.translation):
        name += f" at {body.translation.tolist()}"
    return name


def install(ccgeom, counts):
    """Count every ``defining``, ``ray_hits_batch`` and shell solver call,
    and every cut volume and section level of ``cutvol``, into counts;
    returns a function that restores the library."""
    bodies, sections, cutvol = ccgeom.bodies, ccgeom.sections, ccgeom.cutvol
    asymptotics = ccgeom.asymptotics
    undo = []

    def patch(owner, name, wrapper):
        orig = owner.__dict__[name]
        undo.append((owner, name, orig))
        setattr(owner, name, wrapper(orig))

    def defining(orig):
        def counted(self, x):
            t0 = perf_counter()
            x = np.asarray(x)
            n = x.size // x.shape[-1] if x.ndim else 1
            counts.defining += 1
            counts.points += n
            if counts.centring and counts.ray is None:  # a spine check
                counts.spine[0] += 1
                counts.spine[1] += n
            solve = counts.solve
            if solve is not None:  # a round of a shell scan's solver
                solve.append(len(x))
            out = orig(self, x)
            if solve is not None:
                counts.solve_f_s += perf_counter() - t0
            if counts.ray is not None:  # an F-round of a ray batch
                counts.ray_f_s[counts.ray] += perf_counter() - t0
            return out
        return counted

    def solver(path):
        """A wrapper counting a shell scan's solver calls on path, its
        defining calls as the scan's rounds."""
        def wrapper(orig):
            def counted(*args):
                counts.scans.append([])
                counts.paths.append(path)
                counts.solve = counts.scans[-1]
                t0 = perf_counter()
                try:
                    out = orig(*args)
                finally:
                    counts.solve_s += perf_counter() - t0
                    counts.solve = None
                if out is None:  # a closed-form ladder that fell back to the grid
                    counts.paths[-1] = "fallback"
                return out
            return counted
        return wrapper

    def ray_hits_batch(orig):
        def counted(body, origin, directions, guess=None):
            if guess is None:
                kind = "unguessed"
            else:
                kind = "first polar" if counts.guessed == 0 else "refinement"
            before = counts.defining
            counts.ray = kind
            t0 = perf_counter()
            try:
                out = orig(body, origin, directions, guess=guess)
            finally:
                counts.ray_s[kind] += perf_counter() - t0
                counts.ray = None
            rounds = counts.defining - before
            if guess is None:
                counts.unguessed[label(body)].append(rounds)
            else:
                if counts.guessed is not None:  # a batch of the running polar rule
                    if counts.guessed == 0:
                        # the levels' diameter grids come as more groups of as many rays
                        counts.first_nodes.append(len(directions) // len(origin))
                    elif counts.guessed == 1:
                        counts.refined += len(origin)
                    counts.guessed += 1
                    counts.polar_rays += len(directions)
            counts.rounds[kind].append(rounds)
            counts.rays += len(directions)
            return out
        return counted

    def rows(name):
        """A wrapper counting the calls of a set-up step and the rows of its
        argument at (the normals; for the plane set-ups, and the levels)."""
        def wrapper(orig):
            def counted(*args, **kwargs):
                c = counts.setup[name]
                c[0] += 1
                if name == "plane set-ups":  # (body, normals, which, levels)
                    c[1] += len(args[1])
                    c[2] += len(args[3])
                else:  # (self, rows)
                    c[1] += len(args[1])
                return orig(*args, **kwargs)
            return counted
        return wrapper

    def centred_sections(orig):
        def counted(*args, **kwargs):
            counts.centring = True
            try:
                return orig(*args, **kwargs)
            finally:
                counts.centring = False
        return counted

    def polar_sections(orig):
        def counted(body, anchors, *args, **kwargs):
            counts.guessed = 0
            if anchors.shape[1] == 3:
                counts.polar_levels += len(anchors)
            try:
                return orig(body, anchors, *args, **kwargs)
            finally:
                counts.guessed = None
        return counted

    def form_check(orig):
        def counted(*args):
            ok, points = orig(*args)
            counts.closed += int(np.count_nonzero(ok))
            counts.fell_back += int(ok.size - np.count_nonzero(ok))
            return ok, points
        return counted

    def quad(orig):
        def counted(f, a, *args, **kwargs):
            counts.volumes[counts.op] += np.size(a)
            return orig(f, a, *args, **kwargs)
        return counted

    def levels(at):
        """A wrapper counting the levels, argument at, of a section call."""
        def wrapper(orig):
            def counted(*args, **kwargs):
                counts.levels[counts.op] += np.size(args[at])
                return orig(*args, **kwargs)
            return counted
        return wrapper

    patch(bodies.BodySpec, "defining", defining)
    patch(bodies, "ray_hits_batch", ray_hits_batch)  # the gauge's
    patch(sections, "ray_hits_batch", ray_hits_batch)
    patch(sections, "_centred_sections", centred_sections)
    patch(sections, "_polar_sections", polar_sections)
    patch(sections, "_form_check", form_check)
    patch(cutvol, "quad", quad)
    patch(cutvol, "section_measure", levels(2))  # (body, u, t)
    patch(cutvol, "_sections", levels(3))  # (body, normals, k, levels, ...), with the cut plane
    patch(asymptotics, "_crossings", solver("grid"))
    patch(asymptotics, "_form_crossings", solver("closed form"))
    patch(bodies.BodySpec, "gauss_map", rows("Gauss-map"))
    for kind in bodies._CONE_KINDS.values():
        patch(kind, "margin", rows("cone-margin"))
    patch(sections, "_section_frames", rows("plane set-ups"))

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
