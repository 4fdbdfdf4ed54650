#!/usr/bin/env python3
"""Cut-volume constancy scans and the gradient-identity audit.

Runs every cut-volume preset (two positive parallel-cut scans, the
homothety scan, both negative controls, and the sphere gradient audit).
Forward arguments to run a single configuration:

    python scripts/run_cutvol.py --preset hyperbola-homothety --format csv
"""
import sys

from ccgeom.cli import PRESETS, main

if __name__ == "__main__":
    if len(sys.argv) > 1:
        raise SystemExit(main(["cutvol"] + sys.argv[1:]))
    rc = 0
    for name in PRESETS["cutvol"]:
        print(f"== cutvol --preset {name}")
        rc = max(rc, main(["cutvol", "--preset", name]))
    raise SystemExit(rc)
