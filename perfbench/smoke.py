#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

Runs a tiny pool of every workload twice through the traced path of
run.py and asserts that no op fails, that every per-layer count repeats
exactly, and that the end-to-end metrics come out positive. Run from the
root of a checkout:

    python3 perfbench/smoke.py
"""
import sys

import run  # first: it pins the thread counts before numpy loads

SEED = 0
TINY = {"cutvol-3d": 4, "sccp-3d": 3, "shell-3d": 1, "planar-2d": 1}


def traced_counts(ccgeom, workload, seed, per_body):
    pool = workload.build(seed, per_body=per_body)
    tally = run.Tally(run.Gauge())
    metrics, _ = run.traced_run(ccgeom, pool, 1, tally)
    if tally.failed:
        raise AssertionError(f"{workload.name}: {tally.failures}")
    e2e, _ = run.end_to_end(tally, setup_s=1.0)
    bad = [k for k, v in e2e.items() if not v > 0]
    if bad:
        raise AssertionError(f"{workload.name}: non-positive end-to-end metrics {bad}")
    units = run.metric_units(trace=True)
    if set(metrics) != set(units):
        raise AssertionError(f"{workload.name}: per-layer metrics differ from BENCHMARK.json")
    return {k: v for k, v in metrics.items() if units[k] != "s" and k != "trace_overhead_frac"}


def main():
    ccgeom, _ = run.import_library()
    import workloads

    for name, per_body in TINY.items():
        w = workloads.WORKLOADS[name]
        first, second = (traced_counts(ccgeom, w, SEED, per_body) for _ in range(2))
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        if diff:
            raise AssertionError(f"{name}: counts differ between runs: {diff}")
        print(f"ok {name}: {len(first)} counts repeat, 0 failed ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
