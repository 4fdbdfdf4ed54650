#!/usr/bin/env python3
"""Largest differences between two result dumps of ``scripts/op_digest.py``:

    python scripts/op_digest.py --seed 1 --dump parent.npz   # in one checkout
    python scripts/op_digest.py --seed 1 --dump change.npz   # in the other
    python scripts/op_diff.py parent.npz change.npz

Prints one line per workload and op name: how many of its ops are
identical, the largest absolute difference of any number in their results
and the largest relative one, |a - b| / max(|a|, |b|). Two NaNs, or two
equal infinities, count as equal. Ops whose results differ in length or
in error text are listed on their own. The exit code is 1 when the two
files do not hold the same ops, else 0.
"""
import argparse
import sys
from collections import defaultdict

import numpy as np


def compare(a, b):
    """(identical, max abs difference, max relative difference) of two
    flattened results of the same length."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    if same.all():
        return True, 0.0, 0.0
    a, b = a[~same], b[~same]
    diff = np.abs(a - b)
    rel = diff / np.maximum(np.abs(a), np.abs(b))
    return False, float(diff.max()), float(rel.max())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="the reference dump (.npz)")
    ap.add_argument("b", help="the dump compared with it (.npz)")
    args = ap.parse_args(argv)
    A, B = np.load(args.a), np.load(args.b)
    if set(A.files) != set(B.files):
        print(f"different ops: {sorted(set(A.files) ^ set(B.files))[:10]}")
        return 1
    rows = defaultdict(lambda: [0, 0, 0.0, 0.0])  # ops, identical, max abs, max rel
    odd = []
    for key in sorted(A.files):
        workload, _, op = key.split("/", 2)
        a, b = A[key], B[key]
        row = rows[workload, op]
        row[0] += 1
        if a.dtype.kind == "U" or b.dtype.kind == "U" or a.shape != b.shape:
            if a.dtype == b.dtype and np.array_equal(a, b):
                row[1] += 1
            else:
                odd.append(f"{key}: {a!s:.60} | {b!s:.60}")
            continue
        same, diff, rel = compare(a, b)
        row[1] += same
        row[2], row[3] = max(row[2], diff), max(row[3], rel)
    print(f"{'workload':<10} {'op':<32} {'identical':>10} {'max abs':>10} {'max rel':>10}")
    for (workload, op), (n, same, diff, rel) in rows.items():
        print(f"{workload:<10} {op:<32} {f'{same}/{n}':>10} {diff:10.3g} {rel:10.3g}")
    for line in odd:
        print("differs:", line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
