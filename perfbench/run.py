#!/usr/bin/env python3
"""Build and run the benchmark program.

Usage, from the repository root:

    python3 perfbench/run.py --workload kv_zipf --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (an optimized standalone CMake
project that compiles the library sources under src/) into
.bench_build/perfbench, then runs the program with the same arguments.
Build output goes to stderr; the program's stdout is passed through, so
its last line is the JSON result. Exits non-zero, printing no result,
if the library sources are missing or the build or the run fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "sim" / "machine.cpp").is_file():
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["kv_zipf", "rw_cache", "sim_suite"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build()
    out_dir = BUILD / "spans"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out-dir", str(out_dir)]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded its time limit")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
