#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on tiny inputs (about a minute after
the build):

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it checks that
  * an untraced and a traced run pass the gate and print exactly the
    end-to-end / per-layer metrics of BENCHMARK.json, with their units;
  * the traced run writes a span dump with self times;
  * a run with one κ value corrupted fails the gate (exit 1, correct=false);
and that the benchmark refuses to run, without printing a result, from a
directory holding only BENCHMARK.json and perfbench/.
Exits 0 when every check holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_build" / "perfbench-results"

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)
    return ok


def run(workload, trace, *extra, cwd=ROOT):
    # The run.py under `cwd`, so the bare-directory check runs the copy.
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0.5",
         "--trace", str(trace), "--smoke", *extra], cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    notes = json.loads((HERE / "workloads.json").read_text())
    check([w["name"] for w in notes["workloads"]]
          == [w["name"] for w in spec["workloads"]],
          "workloads.json lists the workloads of BENCHMARK.json")
    for key, trace in (("end_to_end", 0), ("per_layer", 1)):
        check({m["name"]: m["unit"] for m in notes[key]} == expected[trace],
              f"workloads.json {key} metrics and units match BENCHMARK.json")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            tag = f"{workload} trace={trace}"
            code, result, err = run(workload, trace)
            if not check(code == 0 and result is not None,
                         f"{tag}: exits 0 with a result"):
                print(err[-2000:])
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, f"{tag}: gate passes")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected[trace], f"{tag}: metric names and units")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  f"{tag}: metric values are numbers")
            if trace == 1:
                dump = RESULTS / f"{workload}-seed7.spans.json"
                ok = dump.exists()
                if ok:
                    spans = json.loads(dump.read_text())["spans"]
                    ok = bool(spans) and all(
                        {"name", "start_ns", "end_ns", "parent", "run_id",
                         "self_ns"} <= set(s) for s in spans)
                check(ok, f"{tag}: span dump with self times")

            code, result, _ = run(workload, trace, "--corrupt")
            check(code == 1 and result is not None
                  and result["correct"] is False and result["failed"] >= 1,
                  f"{tag}: a corrupted kappa fails the gate")

    # Without the sources next to it the benchmark must fail cleanly.
    bare = ROOT / ".bench_build" / "perfbench-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run(spec["workloads"][0]["name"], 0, cwd=bare)
    check(code != 0 and result is None,
          "without src/: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
