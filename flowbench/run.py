#!/usr/bin/env python3
"""Builds flowbench from source and runs one of its workloads.

Run from the root of a checkout:

    python3 flowbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The Release build goes to $CARGO_TARGET_DIR/flowbench (default
.bench_build/flowbench); journals and trace files go to its work/
subdirectory. The last line of stdout is the result JSON. Exits nonzero,
printing no result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"flowbench: {e}", file=sys.stderr)
        return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build = os.path.abspath(os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                                         "flowbench"))
    if not (run_quiet(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
                      BUILD_TIMEOUT_S) and
            run_quiet(["cmake", "--build", build, "--target", "flowbench", "-j", "4"],
                      BUILD_TIMEOUT_S)):
        return 1

    work = os.path.join(build, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(build, "flowbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--data", os.path.join(HERE, "expected"),
           "--work", work]
    try:
        return subprocess.run(cmd, timeout=args.seconds + 150).returncode
    except subprocess.TimeoutExpired:
        print("flowbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
