#!/usr/bin/env python3
"""Builds ESD from source and runs one workload of the time-to-reproduce benchmark.

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (the ESD library from src/
plus the esdbench driver) into $CARGO_TARGET_DIR, or .bench_build when that
is unset; later runs rebuild only what changed. Build output goes to
standard error, so the last line of standard output is esdbench's JSON
result. Workloads, metrics and seeds are described in perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("oneshot", "interleavings", "service")


def build(source_dir, build_dir):
    """Configures (once) and builds esdbench; returns True on success."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "--target", "esdbench", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(os.path.join(root, "perfbench"), build_dir):
        print("run.py: building esdbench failed", file=sys.stderr)
        return 1
    command = [os.path.join(build_dir, "esdbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--out-dir", os.path.join(build_dir, "perfbench-out")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
