#!/usr/bin/env python3
"""Builds and runs the end-to-end System::run benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures perfbench/CMakeLists.txt into .bench_build/perfbench (Release),
builds the `perfbench` executable from the repository's sources, and runs
it with the same arguments.  The program's stdout is passed through; its
last line is the JSON result.  Spans of a traced run are written under
.bench_out/.  Exits non-zero, printing no result, when the build or the
run fails.
"""
import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("trace-warm", "stream-cold", "exec-seq", "exec-sharded")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
# The build may use every CPU; the timed runs themselves use at most two.
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def build() -> Path:
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
             "-j", BUILD_JOBS],
            check=True, stdout=sys.stderr)
    return BUILD_DIR / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench build failed: {e}", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out", str(OUT_DIR)]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(result.stdout)
        print(f"perfbench failed (exit {result.returncode})",
              file=sys.stderr)
        return result.returncode or 1
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
