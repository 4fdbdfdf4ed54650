#!/usr/bin/env python3
"""Run one benchmark workload in rotated rounds over two or three source
checkouts and compare their end-to-end metrics pair by pair:

    python scripts/ab_pairs.py --workload shell-3d --seed 1 --rounds 10 \\
        PARENT CHANGE [CONTROL]
    python scripts/ab_pairs.py --workload cutvol-3d HEAD~1 HEAD

PARENT, CHANGE and CONTROL are each a directory holding a checkout (made
with ``git clone`` or ``git archive``, say) or a git revision of the
repository around the working directory, which is exported with ``git
archive`` into a temporary directory removed at exit. The control is the
parent plus one comment line in a source file: trees that differ only in
that line can run a workload several percent apart, so a change must beat
the control as well as the parent. Without CONTROL the script builds it
from PARENT, a copy with ``CONTROL_LINE`` appended to
``src/ccgeom/sections.py``. Each round runs ``perfbench/run.py`` once from
the root of each checkout, its own copy, for ``--seconds``; round r starts
with checkout r mod 3, so that none always runs first. A pair is one
round's runs of the change and of the parent (or the control).

For each end-to-end metric that BENCHMARK.json lists, it prints each
checkout's median and interquartile range, and the pairs the change wins
against the parent and against the control; a tie wins for neither side.
The change gains on a metric when it wins at least nine tenths of the pairs
against each, its median lies beyond the control's interquartile range on
the better side, and it is better than the parent's median by more than the
parent's interquartile range; it loses when the same holds the other way.
The exit code is 1 when a run fails or reports a failed op, else 0.

``--workload`` may be given more than once; the workloads then run one
after another. With ``--record LABEL`` the script also writes
``BENCH_<LABEL>.json`` at the top of the repository around the working
directory: the revisions compared, the environment (CPU count, Python,
numpy, and the load average before and after the rounds), and for each
workload every end-to-end metric's median, quartiles and interquartile
range per checkout, the change's pair wins and losses against the parent
and the control, the verdict, each round's values, the profiled calls per
op of each checkout (``scripts/op_calls.py`` run on the seed's pool) and
the workload's lines of each checkout's own ``scripts/ray_rounds.py --seed
SEED``, each null where a checkout cannot run it.
"""
import argparse
import functools
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

LABELS = ("parent", "change", "control")
WIN_SHARE = 0.9
CONTROL_FILE = Path("src") / "ccgeom" / "sections.py"
CONTROL_LINE = "# control tree: this comment is its one difference from the parent\n"


def checkout(spec, scratch, label):
    """The directory of a checkout given as a directory or as a git
    revision of the repository around the working directory, exported into
    scratch/label; None if it is neither."""
    path = Path(spec)
    if path.is_dir():
        return path
    done = subprocess.run(["git", "archive", "--format=tar", spec, "--"], capture_output=True)
    if done.returncode:
        return None
    dest = Path(scratch) / label
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def make_control(parent, scratch):
    """A copy of the checkout parent with CONTROL_LINE appended to
    CONTROL_FILE, in scratch/control."""
    dest = Path(scratch) / "control"
    shutil.copytree(parent, dest, ignore=shutil.ignore_patterns(".git", "__pycache__", "out"))
    with open(dest / CONTROL_FILE, "a") as f:
        f.write(CONTROL_LINE)
    return dest


def run_once(checkout, workload, seed, seconds):
    """The result object that ``perfbench/run.py`` prints last, or None if
    the run gave none."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stderr)
        return None


def revision(spec):
    """The commit a checkout was given as: the full hash of a git revision,
    or of the HEAD of a directory that holds a git repository; else the
    directory."""
    path = Path(spec)
    if path.is_dir():
        if not (path / ".git").exists():
            return str(path.resolve())
        cmd = ["git", "-C", str(path), "rev-parse", "HEAD"]
    else:
        cmd = ["git", "rev-parse", "--verify", f"{spec}^{{commit}}"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else spec


def count_calls(checkout, workload, seed):
    """Profiled calls per op of one pass of the workload's pool in the
    checkout (``scripts/op_calls.py``, run in a process of its own), or
    None if the checkout cannot run it."""
    done = subprocess.run([sys.executable, str(Path(__file__).resolve().parent / "op_calls.py"),
                           "--root", str(checkout), "--workload", workload, "--seed", str(seed)],
                          capture_output=True, text=True)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])[workload]
    except (IndexError, KeyError, ValueError):
        return None


@functools.cache
def ray_rounds(checkout, seed):
    """The lines that the checkout's own ``scripts/ray_rounds.py --seed
    seed`` prints, by workload (its header line and the indented lines
    under it), or None if the checkout cannot run it."""
    done = subprocess.run([sys.executable, "scripts/ray_rounds.py", "--seed", str(seed)],
                          cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        return None
    blocks, lines = {}, []
    for line in done.stdout.splitlines():
        if not line.startswith(" "):
            blocks[line.split()[0]] = lines = []
        lines.append(line)
    return blocks


def _wins(a, b, better):
    """Pairs in which a is better than b, and in which b is better than a."""
    a, b = np.asarray(a), np.asarray(b)
    if better == "lower":
        a, b = -a, -b
    return int(np.sum(a > b)), int(np.sum(b > a))


def _verdict(change, baselines, better, won, lost):
    """'gain', 'loss' or '-' (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    c = sign * np.median(change)
    for verdict, way, counts in (("gain", 1.0, won), ("loss", -1.0, lost)):
        if any(n < WIN_SHARE * len(change) for n in counts):
            continue
        ok = True
        for label, runs in baselines.items():
            q1, med, q3 = np.percentile(sign * np.asarray(runs), [25, 50, 75])
            if label == "control":
                ok &= bool(c > q3) if way > 0 else bool(c < q1)
            else:
                ok &= bool(way * (c - med) > q3 - q1)
        if ok:
            return verdict
    return "-"


def summarize(runs, better):
    """One row per metric of ``better`` (name -> "higher" or "lower"), from
    ``runs`` (label -> one dict of metric values per round, label among
    LABELS, parent and change given): each label's median and quartiles,
    the change's pair wins and losses against each other label, and the
    verdict."""
    rows = []
    for name, way in better.items():
        values = {label: [r[name] for r in rounds] for label, rounds in runs.items()}
        row = {"metric": name, "better": way}
        for label, v in values.items():
            q1, q3 = np.percentile(v, [25, 75])
            row[label] = (float(np.median(v)), float(q1), float(q3))
        baselines = {label: v for label, v in values.items() if label != "change"}
        won, lost = [], []
        for label, v in baselines.items():
            w, l_ = _wins(values["change"], v, way)
            row[f"wins vs {label}"] = (w, l_)
            won.append(w)
            lost.append(l_)
        row["verdict"] = _verdict(values["change"], baselines, way, won, lost)
        rows.append(row)
    return rows


def format_rows(rows, labels, units):
    """The table of ``summarize``'s rows, one line per metric."""
    head = f"{'metric':12s} {'unit':6s}" + "".join(f" {label + ' median [q1, q3]':>32s}"
                                                    for label in labels)
    head += "".join(f" {'wins vs ' + label:>16s}" for label in labels if label != "change")
    lines = [head + "  verdict"]
    for row in rows:
        line = f"{row['metric']:12s} {units[row['metric']]:6s}"
        for label in labels:
            m, q1, q3 = row[label]
            line += f" {f'{m:.4g} [{q1:.4g}, {q3:.4g}]':>32s}"
        for label in labels:
            if label != "change":
                w, l_ = row[f"wins vs {label}"]
                line += f" {f'{w}-{l_}':>16s}"
        lines.append(line + f"  {row['verdict']}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, action="append",
                    help="a workload to run (repeatable)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--record", metavar="LABEL",
                    help="also write BENCH_LABEL.json at the top of the repository")
    ap.add_argument("checkouts", nargs="+",
                    help="parent, change and optional control: directories or git revisions")
    args = ap.parse_args(argv)
    if len(args.checkouts) not in (2, 3):
        ap.error("give two or three checkouts: parent, change and optional control")
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as scratch:
        checkouts = [checkout(spec, scratch, label) for spec, label in zip(args.checkouts, LABELS)]
        for spec, path in zip(args.checkouts, checkouts):
            if path is None:
                ap.error(f"{spec} is neither a directory nor a git revision")
        revisions = {label: revision(spec) for label, spec in zip(LABELS, args.checkouts)}
        if len(checkouts) == 2:
            checkouts.append(make_control(checkouts[0], scratch))
            revisions["control"] = f"parent with {CONTROL_LINE.strip()!r} appended to {CONTROL_FILE}"
        before = os.getloadavg()
        record = {}
        for workload in args.workload:
            code = compare(args, workload, checkouts, record)
            if code:
                return code
        if args.record:
            write_record(args, revisions, before, record)
        return 0


def compare(args, workload, checkouts, record):
    """Run the rounds of one workload over the checkouts (parent, change and
    control), print the table and put the workload's entry into record; the
    exit code of ``main``."""
    labels = LABELS
    manifest = json.loads((checkouts[0] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in manifest["end_to_end"]}
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    runs = {label: [] for label in labels}
    for r in range(args.rounds):
        for i in [(r + j) % len(labels) for j in range(len(labels))]:
            result = run_once(checkouts[i], workload, args.seed, args.seconds)
            if result is None or result["failed"]:
                print(f"round {r + 1}: the {labels[i]} run failed", flush=True)
                return 1
            runs[labels[i]].append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"round {r + 1}/{args.rounds} done", flush=True)
    print(f"{workload} seed {args.seed}: {args.rounds} rounds of {args.seconds:g} s; "
          + ", ".join(f"{label} {path}" for label, path in zip(labels, checkouts)))
    rows = summarize(runs, better)
    print(format_rows(rows, labels, units))
    if args.record:
        calls = {label: count_calls(path, workload, args.seed)
                 for label, path in zip(labels, checkouts)}
        print("calls per op: " + ", ".join(f"{label} {n}" for label, n in calls.items()))
        rounds = {label: (ray_rounds(path, args.seed) or {}).get(workload)
                  for label, path in zip(labels, checkouts)}
        record[workload] = workload_record(rows, units, runs, calls, rounds)
    return 0


def workload_record(rows, units, runs, calls, rounds):
    """One workload's entry of a record, from ``summarize``'s rows, the
    units, each checkout's rounds, its calls per op and its ``ray_rounds.py``
    lines."""
    metrics = {}
    for row in rows:
        entry = {"unit": units[row["metric"]], "better": row["better"]}
        for label in LABELS:
            median, q1, q3 = row[label]
            entry[label] = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}
        entry["wins"] = {label: list(row[f"wins vs {label}"]) for label in LABELS
                         if label != "change"}
        entry["verdict"] = row["verdict"]
        metrics[row["metric"]] = entry
    return {"metrics": metrics, "calls_per_op": calls, "ray_rounds": rounds, "runs": runs}


def write_record(args, revisions, load_before, workloads):
    """Write BENCH_<label>.json at the top of the repository around the
    working directory (the working directory outside one)."""
    done = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True)
    root = Path(done.stdout.strip()) if done.returncode == 0 else Path.cwd()
    record = {
        "label": args.record,
        "revisions": revisions,
        "environment": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                        "numpy": np.__version__, "load_before": list(load_before),
                        "load_after": list(os.getloadavg())},
        "seed": args.seed, "rounds": args.rounds, "seconds": args.seconds,
        "workloads": workloads,
    }
    path = root / f"BENCH_{args.record}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    sys.exit(main())
