#!/usr/bin/env python3
"""Shell-distance experiments separating blow-down convergence from
genuine asymptotic convergence to the recession cone.

Runs the exponential epigraph (blow-down only), the hyperbola
(asymptotic), and the parabola ray (neither small). Forward arguments
to run one configuration:

    python scripts/run_asym.py --preset fig1 --format csv
"""
import sys

from ccgeom.cli import PRESETS, main

if __name__ == "__main__":
    if len(sys.argv) > 1:
        raise SystemExit(main(["asym"] + sys.argv[1:]))
    rc = 0
    for name in PRESETS["asym"]:
        print(f"== asym --preset {name}")
        rc = max(rc, main(["asym", "--preset", name]))
    raise SystemExit(rc)
