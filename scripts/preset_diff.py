#!/usr/bin/env python3
"""Largest differences between two preset trees of ``scripts/run_presets.py``:

    python scripts/run_presets.py sccp --out parent/sccp   # in one checkout
    python scripts/run_presets.py sccp --out change/sccp   # in the other
    python scripts/preset_diff.py parent change

Compares every CSV file under A with the file at the same path under B.
A byte-identical file prints one line. Otherwise each column that differs
prints its largest absolute difference and its largest relative one,
|a - b| / max(|a|, |b|), where both cells are numbers, and the count of
differing cells where either is text (a verdict tag, say); the line below
it names the cell that sets the relative one (its data row, from 1), its
two values and its own absolute difference, so that a large relative move
of a value at rounding level reads apart from a move of a value of size.
Two NaNs, or
two equal infinities, count as equal. Other files (a report.json holds
wall times) are only checked to exist on both sides. The exit code is 1
when the two trees hold different files, or a CSV differs in its header
or its row count, else 0.
"""
import argparse
import csv
import math
import sys
from pathlib import Path


def files(root):
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def column_diffs(rows_a, rows_b):
    """{column: (max abs, max rel, differing text cells, cell)} of the
    columns with a differing cell, cell = (data row from 1, a, b, abs
    difference) of the number that sets the relative one, or None."""
    out = {}
    for col in rows_a[0]:
        diff = rel = 0.0
        text, cell = 0, None
        for row, (ra, rb) in enumerate(zip(rows_a, rows_b), start=1):
            a, b = ra[col], rb[col]
            if a == b:
                continue
            x, y = number(a), number(b)
            if x is None or y is None:
                text += 1
            elif not (x == y or (math.isnan(x) and math.isnan(y))):
                d = abs(x - y)
                r = d / max(abs(x), abs(y))
                diff = max(diff, d)
                if cell is None or r > rel:
                    rel, cell = r, (row, a, b, d)
        if diff or rel or text:
            out[col] = (diff, rel, text, cell)
    return out


def read(path):
    with open(path, newline="") as f:
        r = csv.DictReader(f)
        return r.fieldnames, list(r)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="the reference tree")
    ap.add_argument("b", type=Path, help="the tree compared with it")
    args = ap.parse_args(argv)
    fa, fb = files(args.a), files(args.b)
    rc = 0
    if fa != fb:
        print(f"different files: {sorted(str(p) for p in fa ^ fb)[:10]}")
        rc = 1
    for rel_path in sorted(p for p in fa & fb if p.suffix == ".csv"):
        a, b = args.a / rel_path, args.b / rel_path
        if a.read_bytes() == b.read_bytes():
            print(f"{rel_path}: identical")
            continue
        (head_a, rows_a), (head_b, rows_b) = read(a), read(b)
        if head_a != head_b or len(rows_a) != len(rows_b):
            print(f"{rel_path}: header or row count differs")
            rc = 1
            continue
        print(f"{rel_path}: {len(rows_a)} rows")
        for col, (diff, rel, text, cell) in column_diffs(rows_a, rows_b).items():
            tail = f"  {text} text cells differ" if text else ""
            print(f"  {col:<24} max abs {diff:10.3g}  max rel {rel:10.3g}{tail}")
            if cell is not None:
                row, x, y, d = cell
                print(f"    max rel at row {row}: {x} -> {y}, abs {d:.3g}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
