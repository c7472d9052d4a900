#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload classify|loss_storm|flow_churn \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (which pulls in the simulator's own CMake build) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
benchmark binary with the same arguments.  Build output goes to stderr; the
binary's stdout passes through, so the last stdout line is its JSON result.
NIMBUS_* variables are removed from the binary's environment, so the result
cache stays off and no telemetry is read from the environment.  The exit
code is the binary's, or nonzero if the build fails.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(bdir):
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
    return True


def main():
    bdir = build_dir()
    if not build(bdir):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    env = {k: v for k, v in os.environ.items() if not k.startswith("NIMBUS_")}
    cmd = [os.path.join(bdir, "perfbench")] + sys.argv[1:]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
