#!/usr/bin/env python3
r"""Build and run the benchmark of the ICBM reproduction.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 30 \
        --trace 0

Builds perfbench/bench.exe with dune (the first run in a fresh checkout
builds the libraries too), runs it, and passes its output through.  The
last line of standard output is the JSON result; the exit code is 0 only
when every output checked out.  See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper-suite", "fuzz-random", "scale-large")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    # The benchmark compiles the repository's libraries; without them
    # there is nothing to measure.
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            print(f"run.py: {needed} not found; run from the root of a "
                  "checkout of the repository", file=sys.stderr)
            return 2

    # --root pins the dune workspace to this checkout; without the shared
    # cache the build writes nothing outside it.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 3

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
