#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <tpch|join_wide> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and compiles the
engine library and the program into .bench_build/perfbench (about a minute
on four cores); later calls only re-check the build. Build output goes to
standard error, so the last line of standard output is the program's JSON
result. The exit code is the program's, or non-zero when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "perfbench")
    out_dir = os.path.join(ROOT, "perfbench", "out")
    return subprocess.run([binary] + sys.argv[1:] + ["--out", out_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
