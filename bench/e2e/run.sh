#!/usr/bin/env bash
# Build the FixD end-to-end benchmark from source and run it.
#
#   bench/e2e/run.sh --seed N [--workload NAME] [--seconds S] [--trace 0|1]
#                    [--smoke] [--out FILE]
#
# Without --workload it runs every workload, each in its own process.
# A bare `--trace` means `--trace 1`. Build output goes to stderr and to
# build/bench-e2e/; stdout carries only the benchmark's own lines, ending
# with one JSON object per workload run.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"

if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run.sh: no FixD sources (CMakeLists.txt, src/) at $root" >&2
  exit 2
fi

workloads=()
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload)
      [[ $# -ge 2 ]] || { echo "run.sh: --workload needs a value" >&2; exit 2; }
      workloads+=("$2"); shift 2 ;;
    --trace)
      if [[ $# -ge 2 && ( "$2" == 0 || "$2" == 1 ) ]]; then
        args+=(--trace "$2"); shift 2
      else
        args+=(--trace 1); shift
      fi ;;
    *) args+=("$1"); shift ;;
  esac
done
if [[ ${#workloads[@]} -eq 0 ]]; then
  workloads=(verify-trail verify-par protect recover daemon)
fi

build=build/bench-e2e
jobs="$(nproc 2>/dev/null || echo 2)"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target fixd_bench -j "$jobs" >&2

for w in "${workloads[@]}"; do
  "$build/fixd_bench" --workload "$w" --workdir "$build/work" "${args[@]}"
done
