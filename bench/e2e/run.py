#!/usr/bin/env python3
"""Builds gpupipe_bench from this checkout and runs one workload.

Usage (from the repository root):
    python3 bench/e2e/run.py --workload NAME --seed S --seconds N --trace 0|1

Every argument goes to gpupipe_bench unchanged (see README.md); results and
spans land in .bench_build/e2e-results unless --out is given. The build is a
Release configuration of bench/e2e in .bench_build/e2e; build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. Exits non-zero without a result when the gpupipe sources are missing
or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no gpupipe sources at %s/src; run from a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "gpupipe_bench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("run.py: build failed: %s" % e)
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(ROOT, ".bench_build", "e2e-results")]
    return subprocess.run([os.path.join(BUILD, "gpupipe_bench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
