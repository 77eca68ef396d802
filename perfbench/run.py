#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload os-accel --seed 1 --seconds 30 --trace 0

Run from the repository root. The benchmark is built from the
simulator sources under src/ into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr. Every argument
is passed to the perfbench binary, whose last stdout line is the JSON
result. Exits non-zero, without a result, when the sources are
missing, the build fails or a correctness check fails.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "src", "sim", "machine.hh")):
        print("perfbench: run from the repository root; simulator "
              "sources (src/) not found", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", here, "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [["cmake", "--build", build, "-j", jobs]]
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.insert(0, configure)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2

    work = os.path.join(build, "work")
    cmd = [os.path.join(build, "perfbench"), *sys.argv[1:],
           "--work-dir", work]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    shutil.rmtree(work, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
