#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune inside the checkout, then runs it with
the same arguments.  The program prints every metric by name with its unit
and, as the last line, one JSON result object.  A failed build, a failed
run or a timeout exits nonzero without printing a result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "--display=quiet",
         "./perfbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
