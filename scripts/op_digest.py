#!/usr/bin/env python3
"""Print one SHA-256 per benchmark workload over the results of its ops:

    python scripts/op_digest.py --seed 1 > digests.txt

Each workload's pool (``perfbench/workloads.py``) is built for the seed and
every op runs once, in pool order. A result is hashed by value: a float or
a float array by its ``tobytes()`` (with its shape), a dataclass field by
field, an op that raises by its error's type and message. Two checkouts
that print the same digests gave the same result, bit for bit, on every op,
so checking that a change leaves every number alone is one ``diff`` of
this script's output run in each checkout.
"""
import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402  (first: it pins the thread counts before numpy loads)
import numpy as np  # noqa: E402


def _feed(h, value):
    """Add one result to the hash h, tagged by its type."""
    if dataclasses.is_dataclass(value):
        h.update(type(value).__name__.encode())
        for field in dataclasses.fields(value):
            _feed(h, getattr(value, field.name))
    elif isinstance(value, (list, tuple)):
        h.update(b"[%d" % len(value))
        for item in value:
            _feed(h, item)
    elif isinstance(value, str):
        h.update(b"s" + value.encode() + b"\0")
    elif value is None:
        h.update(b"n")
    else:
        a = np.asarray(value)
        if a.dtype == object:
            raise TypeError(f"cannot hash a result of type {type(value).__name__}")
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())


def digest(pool):
    h = hashlib.sha256()
    for op in pool:
        h.update(op.name.encode())
        try:
            result = op.call()
        except Exception as e:  # a failure is part of the result
            result = f"{type(e).__name__}: {e}"
        _feed(h, result)
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    run.import_library()
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        pool = workload.build(args.seed)
        print(f"{name} seed {args.seed} {len(pool)} ops {digest(pool)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
