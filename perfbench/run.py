#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes through dune into the
checkout's own _build directory (the shared dune cache is disabled, so
nothing is written outside the checkout); its output goes to standard
error.  The arguments are passed to perfbench/main.exe, whose standard
output ends with one JSON result line.  A failed build exits nonzero
without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "--display", "quiet",
         "perfbench/main.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
