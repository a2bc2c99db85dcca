#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper|steering|incast|check \\
        --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench/perfbench.exe from
source with dune (the shared dune cache off, so the build reads and
writes only under _build/ in the checkout), then runs it with the same
arguments.  The benchmark's last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Build output goes
to standard error.  See perfbench/README.md for the workloads and
metrics.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")

# The repository sources the benchmark is built from.
REQUIRED = ["dune-project", os.path.join("lib", "harness", "run.ml"),
            os.path.join("perfbench", "dune")]

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail("run from the repository root; missing " + ", ".join(missing))
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled",
             "--display=quiet", "./perfbench/perfbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")
    try:
        run = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
