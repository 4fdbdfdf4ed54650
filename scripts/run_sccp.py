#!/usr/bin/env python3
"""Section-centroid collinearity experiments for the quadric catalog.

Runs the three positive presets plus the superellipse control and prints
each verdict. Forward any extra arguments to a single preset instead:

    python scripts/run_sccp.py --preset hyperboloid --format csv
"""
import sys

from ccgeom.cli import PRESETS, main

if __name__ == "__main__":
    if len(sys.argv) > 1:
        raise SystemExit(main(["sccp"] + sys.argv[1:]))
    rc = 0
    for name in PRESETS["sccp"]:
        print(f"== sccp --preset {name}")
        rc = max(rc, main(["sccp", "--preset", name]))
    raise SystemExit(rc)
