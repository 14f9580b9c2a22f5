#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the checkout; the first run configures and compiles the
program's libraries, later runs only re-check them. The benchmark's own
output, whose last line is the JSON result, goes to standard output; build
logs go to standard error.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no program sources under %s/src; "
                         "run from the root of a checkout\n" % root)
        return 1
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    out_dir = os.path.join(build_root, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    jobs = str(os.cpu_count() or 1)
    steps = []
    generated = any(os.path.isfile(os.path.join(build_dir, name))
                    for name in ("build.ninja", "Makefile"))
    if not generated:
        configure = ["cmake", "-S", here, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target",
                  "urbane_perfbench", "-j", jobs])
    for step in steps:
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                               check=False)
        if built.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            return 1

    binary = os.path.join(build_dir, "urbane_perfbench")
    command = [binary] + sys.argv[1:] + ["--out-dir", out_dir]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
