#!/usr/bin/env python3
"""Run every preset of one ccgeom command in PRESETS order, each with the extra flags:

    python scripts/run_presets.py cutvol --format csv --out results/

With ``--out DIR`` each preset writes its rows.csv and report.json to DIR/NAME/.
The exit code is the worst run's. One preset alone is ``ccgeom COMMAND --preset NAME``.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from ccgeom.cli import PRESETS, main  # noqa: E402  (this checkout's, installed or not)

if __name__ == "__main__":
    ap = argparse.ArgumentParser(usage="run_presets.py COMMAND [--out DIR] [flags]")
    ap.add_argument("command", choices=PRESETS)
    ap.add_argument("--out", help="directory that gets one subdirectory per preset")
    args, flags = ap.parse_known_args()
    rc = 0
    for name in PRESETS[args.command]:
        print(f"== {args.command} --preset {name}")
        out = [] if args.out is None else ["--out", f"{args.out}/{name}"]
        rc = max(rc, main([args.command, "--preset", name] + flags + out))
    raise SystemExit(rc)
