#!/usr/bin/env python3
"""Build perfbench against the library in this checkout, then run it.

    python3 perfbench/run.py --workload analyst_mix --seed 1 --seconds 20 --trace 0

Run from the root of the checkout. The build goes to .bench_build/perfbench
(Release). Every argument is passed on to the benchmark binary, whose last
line of output is the result JSON. Build output goes to
.bench_build/perfbench-build.log and, on failure, to standard error.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
LOG = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(BENCH_DIR, "..", needed)):
            sys.stderr.write("perfbench: the library sources (%s) are not in "
                             "this checkout\n" % needed)
            return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j",
         str(min(4, os.cpu_count() or 1))],
    ]
    with open(LOG, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(LOG) as f:
                    sys.stderr.write(f.read()[-8000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
                return False
    return True


def main():
    if not build():
        return 2
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
