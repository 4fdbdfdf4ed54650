#!/usr/bin/env python3
"""Print one SHA-256 per benchmark workload over the results of its ops:

    python scripts/op_digest.py --seed 1 > digests.txt
    python scripts/op_digest.py --seed 1 --dump results-seed1.npz

Each workload's pool (``perfbench/workloads.py``) is built for the seed and
every op runs once, in pool order. A result is hashed by value: a float or
a float array by its ``tobytes()`` (with its shape), a dataclass field by
field, an op that raises by its error's type and message. Two checkouts
that print the same digests gave the same result, bit for bit, on every op,
so checking that a change leaves every number alone is one ``diff`` of
this script's output run in each checkout.

With ``--dump PATH`` the results are also written to one ``.npz`` file, one
entry per op named ``WORKLOAD/INDEX/OP`` in pool order: the result
flattened to a float64 array (a dataclass field by field, skipping its
strings and Nones), or the error text of an op that raised. Where two
checkouts differ within a tolerance, ``scripts/op_diff.py`` compares two
such files.
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


def _flatten(value):
    """The numbers of one result, in the order _feed hashes them."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, field.name) for field in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        parts = [_flatten(item) for item in value if not isinstance(item, str) and item is not None]
        return np.concatenate(parts) if parts else np.zeros(0)
    return np.asarray(value, dtype=float).ravel()


def digest(pool, results=None):
    """SHA-256 over the results of the ops in pool; each result, or the
    error text of an op that raised, is appended to the list results."""
    h = hashlib.sha256()
    for op in pool:
        h.update(op.name.encode())
        try:
            result = op.call()
        except Exception as e:  # a failure is part of the result
            result = f"{type(e).__name__}: {e}"
        _feed(h, result)
        if results is not None:
            results.append(np.array(result) if isinstance(result, str) else _flatten(result))
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dump", metavar="PATH", help="also write every op's result to this .npz")
    args = ap.parse_args(argv)
    run.import_library()
    import workloads

    dumped = {}
    for name, workload in workloads.WORKLOADS.items():
        pool = workload.build(args.seed)
        results = []
        print(f"{name} seed {args.seed} {len(pool)} ops {digest(pool, results)}", flush=True)
        dumped.update((f"{name}/{i:04d}/{op.name}", r)
                      for i, (op, r) in enumerate(zip(pool, results)))
    if args.dump:
        np.savez(args.dump, **dumped)
    return 0


if __name__ == "__main__":
    sys.exit(main())
