#!/usr/bin/env bash
# A/B gate for the bench_micro hot path: parent and change measured on the
# same machine in the same run, instead of a change measured against a
# checked-in artifact recorded on other hardware.
#
#   tools/bench_ab.sh <base-ref>
#
# Run from anywhere inside the repository after building ./build (HEAD's
# bench_micro is taken from build/bench/bench_micro). The script
#   1. checks <base-ref> out into a temporary `git worktree` and builds its
#      bench_micro with the CMake settings of ./build (build type,
#      compilers and their launchers, CMAKE_CXX_FLAGS and every TKC_*
#      option);
#   2. runs base and HEAD strictly alternately, kPasses times each, with
#      --kernel=scalar --benchmark_min_time=0.05, so a burst of load from
#      other tenants lands on both sides alike instead of on two
#      back-to-back runs of one side;
#   3. keeps each row's median real_time per side and diffs the two with
#      tools/bench_compare.py, blocking on the support/peel rows at a 35%
#      threshold (the rest of the rows are informational).
#
# Exit code: bench_compare's (0 = no gated regression, 1 = gated
# regression, 2 = usage/parse error); 2 also when the setup fails.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: tools/bench_ab.sh <base-ref>" >&2
  exit 2
fi

root="$(git rev-parse --show-toplevel)"
head_bench="$root/build/bench/bench_micro"
cache="$root/build/CMakeCache.txt"
if [[ ! -x "$head_bench" || ! -f "$cache" ]]; then
  echo "bench_ab: build HEAD first (cmake -B build -S . && cmake --build" \
       "build --target bench_micro)" >&2
  exit 2
fi
base_sha="$(git -C "$root" rev-parse --verify "$1^{commit}")" || exit 2

work="$(mktemp -d)"
cleanup() {
  git -C "$root" worktree remove --force "$work/src" > /dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT

git -C "$root" worktree add --detach --quiet "$work/src" "$base_sha"

# Same cache entries as the HEAD build, in -DNAME:TYPE=value form.
flags=()
while IFS= read -r entry; do
  flags+=("-D$entry")
done < <(grep -E '^(CMAKE_BUILD_TYPE|CMAKE_(C|CXX)_COMPILER(_LAUNCHER)?|CMAKE_CXX_FLAGS|TKC_[A-Z_]+):' \
           "$cache")
echo "== building bench_micro at $base_sha (${flags[*]})"
cmake -S "$work/src" -B "$work/build" "${flags[@]}" > /dev/null
cmake --build "$work/build" --target bench_micro -j"$(nproc)" > /dev/null
base_bench="$work/build/bench/bench_micro"

readonly kPasses=5
run() {  # run <binary> <out.json>; google-benchmark's banner goes to a log
  if ! "$1" --kernel=scalar --benchmark_min_time=0.05 --json-out="$2" \
      > /dev/null 2> "$2.log"; then
    cat "$2.log" >&2
    return 1
  fi
}
for ((pass = 0; pass < kPasses; ++pass)); do
  echo "== pass $((pass + 1))/$kPasses"
  run "$base_bench" "$work/base_$pass.json"
  run "$head_bench" "$work/head_$pass.json"
done

# One artifact per side: the first pass's envelope with each row's
# real_time replaced by its median over the passes.
median_merge() {  # median_merge <out.json> <in.json>...
  python3 - "$@" <<'EOF'
import json
import statistics
import sys

out, *paths = sys.argv[1:]
docs = [json.load(open(p, encoding="utf-8")) for p in paths]
times = {}
for doc in docs:
    for row in doc["rows"]:
        if isinstance(row.get("real_time"), (int, float)):
            times.setdefault(row.get("name"), []).append(row["real_time"])
merged = docs[0]
for row in merged["rows"]:
    if row.get("name") in times:
        row["real_time"] = statistics.median(times[row["name"]])
with open(out, "w", encoding="utf-8") as f:
    json.dump(merged, f, indent=1)
EOF
}
median_merge "$work/base.json" "$work"/base_*.json
median_merge "$work/head.json" "$work"/head_*.json

echo "== base $base_sha vs HEAD $(git -C "$root" rev-parse HEAD)"
status=0
python3 "$root/tools/bench_compare.py" "$work/base.json" "$work/head.json" \
  --threshold=0.35 --gate='BM_(SupportCount|Peel)' --fail-on-regression ||
  status=$?
exit "$status"
