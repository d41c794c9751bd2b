#!/usr/bin/env python3
"""Builds and runs the end-to-end statement benchmark.

    python3 perfbench/run.py --workload hot_reports --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
library sources (src/) and the benchmark into .bench_build/; later calls
rebuild only what changed. Every argument is passed to the e2e_bench binary,
whose last line of output is the JSON result. Build output goes to stderr.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: no library sources at %s/src\n" % ROOT)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def main(argv):
    if not build(["e2e_bench"]):
        sys.stderr.write("run.py: build failed\n")
        return 2
    binary = os.path.join(BUILD_DIR, "e2e_bench")
    proc = subprocess.Popen([binary] + argv, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("run.py: benchmark timed out\n")
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
