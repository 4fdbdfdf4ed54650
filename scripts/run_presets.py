#!/usr/bin/env python3
"""Run every preset of one ccgeom command in PRESETS order, each with the extra flags:

    python scripts/run_presets.py cutvol --format csv

The exit code is the worst run's. One preset alone is ``ccgeom COMMAND --preset NAME``.
"""
import sys

from ccgeom.cli import PRESETS, main

if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in PRESETS:
        raise SystemExit(f"usage: run_presets.py {{{','.join(PRESETS)}}} [flags]")
    command, flags = sys.argv[1], sys.argv[2:]
    rc = 0
    for name in PRESETS[command]:
        print(f"== {command} --preset {name}")
        rc = max(rc, main([command, "--preset", name] + flags))
    raise SystemExit(rc)
