#!/usr/bin/env python3
"""Benchmark of record for tkc: builds the benchmark binary and runs one
workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload decompose-rmat --seed 1 \
        --seconds 20 --trace 0

The first run configures and builds `perfbench/` (which compiles the library
from `src/`) into `.bench_build/perfbench`; later runs rebuild only what
changed. Build output goes to stderr. The binary's last line of stdout is
the result object; the full record, and with `--trace 1` the span dump, are
written to `.bench_build/perfbench-results/`. The exit status is the
binary's: 0 when every output check passed, 1 when one failed, 2 on a usage,
build or I/O error.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build") / "perfbench"
RESULTS_DIR = Path(".bench_build") / "perfbench-results"
WORK_DIR = Path(".bench_build") / "perfbench-work"
RUN_TIMEOUT_S = 175


def configured_source(cache):
    """The source directory a CMake build directory was configured from."""
    key = "CMAKE_HOME_DIRECTORY:INTERNAL="
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith(key):
            return Path(line[len(key):]).resolve()
    return None


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.exists() and configured_source(cache) != HERE:
        shutil.rmtree(BUILD_DIR)  # configured from another checkout
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "tkc_perfbench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run {step[0]}: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return None
    return BUILD_DIR / "tkc_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--corrupt", action="store_true",
                        help="bump one kappa value; the gate must fail")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--out-dir={RESULTS_DIR}",
               f"--work-dir={WORK_DIR}"]
    if args.smoke:
        command.append("--smoke")
    if args.corrupt:
        command.append("--corrupt")
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
