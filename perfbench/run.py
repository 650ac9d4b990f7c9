#!/usr/bin/env python3
"""Build and run the doradb benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: tm1, tm1-baseline, tpcb-durable, tpcc-neworder-payment.

The first call configures and builds perfbench/CMakeLists.txt (the engine
sources plus perfbench/doraperf.cc) into $CARGO_TARGET_DIR, default
.bench_build, relative to the repository root; later calls rebuild only
what changed. Build output goes to stderr, so the last line of standard
output is the benchmark's JSON result. The exit code is the benchmark's,
or 1 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    work_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(work_dir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "doraperf", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    binary = os.path.join(build_dir, "doraperf")
    cmd = [binary] + sys.argv[1:] + ["--work-dir", work_dir]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
