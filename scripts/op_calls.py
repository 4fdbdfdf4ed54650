#!/usr/bin/env python3
"""Print the profiled calls per op of each benchmark workload's pool:

    python scripts/op_calls.py --seed 1
    python scripts/op_calls.py --seed 1 --workload sccp-3d --root ../parent

Each workload's pool (``perfbench/workloads.py``) is built for the seed and
run once, in pool order, as a warm-up; a second pass then runs under
``sys.setprofile``, which sees every call of a Python function and every
call of a C function (numpy's functions and methods, builtins), but not
numpy's operators. The garbage collector is off during that pass, so that
no callback of a collection (``gc.callbacks``, which a test library may
fill) is counted with the ops. The count of those calls over the pool's
ops is exact: two passes of one pool give the same count, so two trees
compare by it without timing noise. ``--root`` names the checkout whose
``perfbench/`` and ``src/`` are run (default: the one around this script);
the last line of stdout is one JSON object, workload -> calls per op.
"""
import argparse
import gc
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def calls_per_op(pool):
    """Profiled calls (Python plus C) per op of one pass over pool, after
    one pass of warm-up, with the garbage collector off."""
    for op in pool:
        op.call()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        for op in pool:
            op.call()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return calls / len(pool)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="a workload to count (repeatable; default: all)")
    ap.add_argument("--root", type=Path, default=ROOT, help="the checkout to run")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "perfbench"))
    import run  # (first: it pins the thread counts before numpy loads)

    run.import_library()
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    for name in names:
        if name not in workloads.WORKLOADS:
            ap.error(f"unknown workload {name!r}")
    counts = {}
    for name in names:
        counts[name] = calls_per_op(workloads.WORKLOADS[name].build(args.seed))
        print(f"{name} seed {args.seed}: {counts[name]:.1f} calls per op", flush=True)
    print(json.dumps(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
