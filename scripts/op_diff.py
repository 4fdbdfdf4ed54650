#!/usr/bin/env python3
"""Largest differences between two result dumps of ``scripts/op_digest.py``:

    python scripts/op_digest.py --seed 1 --dump parent.npz   # in one checkout
    python scripts/op_digest.py --seed 1 --dump change.npz   # in the other
    python scripts/op_diff.py parent.npz change.npz

Prints one line per workload and op name: how many of its ops are
identical, the largest absolute difference of any number in their results
and the largest relative one, |a - b| / max(|a|, |b|). Two NaNs, or two
equal infinities, count as equal. Below the table, each row whose numbers
differ names the number that sets its largest relative difference (the
op and the index in its flattened result), its two values and its own
absolute difference: a large relative move of a number at rounding level
reads apart from a move of a number of size. Ops whose results differ in
length or in error text are listed on their own. The exit code is 1 when
the two files do not hold the same ops, else 0.
"""
import argparse
import sys
from collections import defaultdict

import numpy as np


def compare(a, b):
    """(identical, max abs difference, max relative difference, cell) of
    two flattened results of the same length, cell = (index, a, b) of the
    number that sets the relative one (None when identical)."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    if same.all():
        return True, 0.0, 0.0, None
    at = np.flatnonzero(~same)
    a, b = a[at], b[at]
    diff = np.abs(a - b)
    rel = diff / np.maximum(np.abs(a), np.abs(b))
    i = int(rel.argmax())
    return False, float(diff.max()), float(rel[i]), (int(at[i]), float(a[i]), float(b[i]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="the reference dump (.npz)")
    ap.add_argument("b", help="the dump compared with it (.npz)")
    args = ap.parse_args(argv)
    A, B = np.load(args.a), np.load(args.b)
    if set(A.files) != set(B.files):
        print(f"different ops: {sorted(set(A.files) ^ set(B.files))[:10]}")
        return 1
    # ops, identical, max abs, max rel and its cell (op, index, a, b)
    rows = defaultdict(lambda: [0, 0, 0.0, 0.0, None])
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
        same, diff, rel, cell = compare(a.ravel(), b.ravel())
        row[1] += same
        row[2] = max(row[2], diff)
        if cell is not None and (row[4] is None or rel > row[3]):
            row[3], row[4] = rel, (key,) + cell
    print(f"{'workload':<10} {'op':<32} {'identical':>10} {'max abs':>10} {'max rel':>10}")
    for (workload, op), (n, same, diff, rel, _) in rows.items():
        print(f"{workload:<10} {op:<32} {f'{same}/{n}':>10} {diff:10.3g} {rel:10.3g}")
    for (workload, op), (*_, cell) in rows.items():
        if cell is not None:
            key, i, a, b = cell
            print(f"max rel of {workload} {op}: {key}[{i}] {a!r} -> {b!r}, abs {abs(a - b):.3g}")
    for line in odd:
        print("differs:", line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
