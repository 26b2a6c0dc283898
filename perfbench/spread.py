#!/usr/bin/env python3
"""Run-to-run spread of the benchmark: runs one workload once per seed and
prints, for every metric, the median, the quartiles and the quartile
distance as a share of the median (Python's statistics.quantiles, n=4).

    python3 perfbench/spread.py --workload replay-churn --seeds 1-10 \
        --seconds 20 [--trace 0]

Compare the spreads with the bounds in BENCHMARK.json: a metric whose
spread is near its bound cannot resolve a change of that size.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    values = {}
    for seed in seeds_of(args.seeds):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace",
             args.trace], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"wall={time.monotonic() - start:.1f}s", file=sys.stderr)

    print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for name, v in values.items():
        median = statistics.median(v)
        q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                     else (v[0], v[0], v[0]))
        share = (q3 - q1) / median if median else float("nan")
        print(f"{name:24} {median:12.6g} {q1:12.6g} {q3:12.6g} {share:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
