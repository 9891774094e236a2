#!/usr/bin/env python3
"""Builds and runs the replidb host-cost benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (the repository's src/ tree plus the benchmark driver) in
Release mode under .bench_build/perfbench; later calls only check that the
build is current. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. The exit code is the benchmark's, or 3
when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "middleware", "cluster.h")):
        print("perfbench: replidb sources (src/) not found under " + ROOT,
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 3
    # The program reads a few REPLIDB_* variables (trace sinks, hash-seed
    # perturbation); none of them belongs in a measurement.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPLIDB_")}
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
