#!/usr/bin/env python3
"""ccgeom benchmark: one seeded workload, timed, oracle-checked, optionally traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cutvol-3d --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the checkout, never from an
installed copy. With ``--trace 0`` the op pool is cycled for ``--seconds``
and the end-to-end metrics are reported; with ``--trace 1`` whole passes
run untraced and then traced (``--seconds`` / 2 each) and the per-layer
metrics of the first traced pass are reported. Time is counted in whole
passes of the pool (see ``passes_for``). Human-readable lines come
first; the last line of stdout is one JSON object. A full record, with the
machine and library versions, goes to ``perfbench/out/``. The exit code is
1 when any op raised or missed its closed-form oracle, 2 on a usage or
checkout error.
"""
import os

# one thread per process for every BLAS / OpenMP runtime numpy or scipy may load
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_GAUGE_READS = 5
# imported before the set-up clock starts: their cold import takes 0.7-0.8 s
# on the tuning VM and swings with the file cache, which would drown the
# ~40 ms of ccgeom's own modules that setup_s is meant to follow
THIRD_PARTY = ("numpy", "scipy.integrate", "scipy.optimize", "scipy.spatial.distance")
# reference-loop time that normalized latencies are scaled to (see Gauge);
# on the 2-core Xeon VM this was tuned on the loop takes 0.72 ms when the core
# is free and 1.2-1.4 ms when it is shared
REFERENCE_S = 1e-3
MAX_DIGITS = 16.0


class CheckoutError(Exception):
    pass


def metric_units(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    path = ROOT / "BENCHMARK.json"
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise CheckoutError(f"cannot read {path}: {e}") from e
    return {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}


def import_library():
    """Import ccgeom from the checkout's src/; returns (module, seconds).

    The THIRD_PARTY modules are loaded first, untimed, so the seconds cover
    ccgeom's own modules only.
    """
    if not (SRC / "ccgeom" / "__init__.py").is_file():
        raise CheckoutError(f"no ccgeom sources under {SRC}")
    for name in THIRD_PARTY:
        importlib.import_module(name)
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import ccgeom
    elapsed = perf_counter() - t0
    if Path(ccgeom.__file__).resolve().parent != SRC / "ccgeom":
        raise CheckoutError(f"imported ccgeom from {ccgeom.__file__}, not {SRC}")
    sys.path.insert(1, str(HERE))
    return ccgeom, elapsed


def environment():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(ln.split(":", 1)[1].strip() for ln in f
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": os.environ["OMP_NUM_THREADS"]}


class Gauge:
    """How fast the machine runs right now, read from a fixed reference loop.

    On a shared VM the same op runs up to about 1.8x slower, for seconds at
    a time, while another tenant loads the core; raw latencies of identical
    20 s runs then spread by 20-30%. The loop mixes interpreter work and
    small numpy calls, as the library does, and is independent of it. It
    runs after every op, and each latency is scaled by REFERENCE_S over the
    mean of the readings before and after it: the time the op would take on
    a machine where the loop takes exactly REFERENCE_S. A loop of plain
    integer arithmetic was tried too; it tracked the 3D cut volumes about as
    well but left the 2D battery spread by 14% instead of 1-2%.
    """

    def __init__(self):
        import numpy

        self._np = numpy
        self._x = numpy.linspace(0.0, 1.0, 64)
        self.readings = []
        self.read()  # the first loop pays for cold caches: read again
        self.readings = []
        self.read()

    def read(self):
        np, x = self._np, self._x
        t0 = perf_counter()
        acc = 0.0
        for i in range(150):
            acc += float(np.sum(np.sqrt(x * i + 1.0)))
        self.readings.append(perf_counter() - t0)
        return self.readings[-1]

    @property
    def last(self):
        return self.readings[-1]


class Tally:
    """Latencies, failures and oracle digits of the ops run in one phase."""

    def __init__(self, gauge):
        self.gauge = gauge
        self.names = []
        self.latencies = []  # raw seconds
        self.refs = []  # reference-loop seconds around each op
        self.failed = 0
        self.digits = []
        self.failures = []

    def run(self, op, tracer=None, op_id=0):
        before = self.gauge.last
        if tracer is not None:
            tracer.op = op_id
            idx = tracer.begin(op.name)
        t0 = perf_counter()
        try:
            result = op.call()
        except Exception as e:  # an op that raises counts as failed, and the run goes on
            result, error = None, f"{type(e).__name__}: {e}"
        else:
            error = None
        self.latencies.append(perf_counter() - t0)
        self.names.append(op.name)
        if tracer is not None:
            tracer.end(idx)
        self.refs.append(0.5 * (before + self.gauge.read()))
        if error is None:
            error = self._verify(op, result)
        if error is not None:
            self.failed += 1
            self.failures.append(f"{op.name}: {error}")

    def _verify(self, op, result):
        digits, bad = MAX_DIGITS, []
        for check in op.check(result):
            err = check.rel_error()
            if not err <= check.rtol:
                bad.append(f"{check.label} rel. error {err:.3g} > {check.rtol:g}")
            if check.counts_digits:
                digits = min(digits, -math.log10(max(err, 10.0 ** -MAX_DIGITS)))
        self.digits.append(digits)
        return "; ".join(bad) or None

    def normalized(self):
        """Latencies scaled to the reference machine speed (see Gauge)."""
        return [lat * REFERENCE_S / ref for lat, ref in zip(self.latencies, self.refs)]

    def merge(self, other):
        for name in ("names", "latencies", "refs", "digits", "failures"):
            getattr(self, name).extend(getattr(other, name))
        self.failed += other.failed


def cycle(pool, passes, tally, tracer=None):
    """Run `passes` whole passes over the pool, in order."""
    for _ in range(passes):
        for i, op in enumerate(pool):
            tally.run(op, tracer, i)
        if tracer is not None:
            tracer.end_pass()


def passes_for(workload, seconds):
    """Whole passes that fill `seconds` of normalized time at the benchmark's
    defining commit.

    A fixed count, rather than a clock, keeps the number of samples, and with
    it the percentile behind op_tail_s, the same from run to run and from
    commit to commit.
    """
    return max(1, round(seconds / workload.pass_s))


def tail(latencies):
    """Highest percentile with at least 10 samples beyond it: (value, percentile)."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def setup(gauge, workload, seed):
    """Build the inputs and run one untimed warm-up op, SETUP_REPEATS times.

    Returns the pool, the raw seconds of each repeat, and the median of
    SETUP_GAUGE_READS reference-loop readings taken after each repeat: a
    single reading is too noisy to scale a set-up of 0.1 s by.
    """
    reps, refs = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        pool = workload.build(seed)
        warm = Tally(gauge)
        warm.run(pool[0])
        reps.append(perf_counter() - t0)
        if warm.failed:
            raise RuntimeError(f"warm-up op failed: {warm.failures[0]}")
        refs += [gauge.read() for _ in range(SETUP_GAUGE_READS)]
    return pool, reps, statistics.median(refs)


def end_to_end(tally, setup_s):
    lat = tally.normalized()
    tail_s, tail_pct = tail(lat)
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "digits_min": min(tally.digits) if tally.digits else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = tally.latencies
    by_name = {}
    for op_name, value in zip(tally.names, lat):
        by_name.setdefault(op_name, []).append(value)
    extra = {"op_tail_percentile": tail_pct, "n_ops": len(lat),
             "op_p50_s_by_call": {k: statistics.median(v) for k, v in by_name.items()},
             "raw_ops_per_s": len(raw) / sum(raw), "raw_op_p50_s": statistics.median(raw),
             "reference_median_s": statistics.median(tally.refs)}
    return metrics, extra


def traced_run(ccgeom, pool, passes, tally):
    """`passes` untraced then `passes` traced passes; per-layer metrics of the
    first traced pass."""
    import tracer as tr

    plain, traced = Tally(tally.gauge), Tally(tally.gauge)
    cycle(pool, passes, plain)
    tracer = tr.Tracer()
    tracer.install(ccgeom)
    try:
        cycle(pool, passes, traced, tracer)
    finally:
        tracer.uninstall()
    metrics = tr.layer_metrics(tracer.first)
    metrics["trace_overhead_frac"] = (
        statistics.mean(traced.normalized()) / statistics.mean(plain.normalized()) - 1.0)
    tally.merge(plain)
    tally.merge(traced)
    return metrics, tracer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        units = metric_units(args.trace)
        ccgeom, import_s = import_library()
    except CheckoutError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env))
    gauge = Gauge()
    try:
        pool, setup_reps, setup_ref = setup(gauge, workload, args.seed)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    tally = Tally(gauge)
    if args.trace:
        passes = passes_for(workload, args.seconds / 2.0)
        metrics, tracer = traced_run(ccgeom, pool, passes, tally)
        extra = {"passes_untraced_and_traced": passes, "n_spans": len(tracer.first)}
    else:
        passes = passes_for(workload, args.seconds)
        cycle(pool, passes, tally)
        extra = {"passes": passes}
        # the import ran before the gauge existed: scale it by the set-up readings
        setup_s = REFERENCE_S * (import_s + statistics.median(setup_reps)) / setup_ref
        metrics, more = end_to_end(tally, setup_s)
        extra.update(more)
        tracer = None
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                           "BENCHMARK.json")
    metrics = {k: int(v) if units[k] == "count" else v for k, v in metrics.items()}
    extra.update(pool_size=len(pool), import_s=import_s,
                 setup_repeats_s=setup_reps,
                 reference_min_s=min(gauge.readings))
    for name, value in metrics.items():
        print(f"{name:44s} {value:>16.6g} {units[name]}")
    attempted = len(tally.latencies)
    print(f"{'fail_frac':44s} {tally.failed / attempted:>16.6g} 1   "
          f"({tally.failed} of {attempted} ops)")
    for key, value in extra.items():
        print(f"  {key}: {value}")
    for line in tally.failures[:20]:
        print(f"FAILED {line}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.csv")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "env": env, "metrics": metrics, "units": units, **extra,
              "fail_frac": tally.failed / attempted, "failures": tally.failures}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    result = {
        "correct": tally.failed == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
