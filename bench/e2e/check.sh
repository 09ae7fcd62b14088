#!/usr/bin/env bash
# The benchmark's own CI entry point: build it, run every workload in
# --smoke mode (a fraction of a second of measuring each) untraced and
# traced, and fail when a correctness check fails, a workload did not
# run, or a metric declared in BENCHMARK.json is missing from its output.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
out=build/bench-e2e/check
rm -rf "$out"
mkdir -p "$out"

bash bench/e2e/run.sh --smoke --seed 1 --trace 0 --out "$out/runs.jsonl" \
  > "$out/untraced.txt"
bash bench/e2e/run.sh --smoke --seed 1 --trace 1 --out "$out/runs.jsonl" \
  > "$out/traced.txt"

python3 - "$out/runs.jsonl" <<'EOF'
import json, sys

bench = json.load(open("BENCHMARK.json"))
want = {0: {m["name"] for m in bench["end_to_end"]},
        1: {m["name"] for m in bench["per_layer"]}}
kind = {0: "end_to_end", 1: "per_layer"}
seen = set()
ok = True
for line in open(sys.argv[1]):
    rec = json.loads(line)
    w, t = rec["workload"], rec["trace"]
    seen.add((w, t))
    got = {n for n, m in rec["metrics"].items() if m["kind"] == kind[t]}
    if not rec["correct"] or rec["failed"]:
        print(f"check: {w} trace={t}: {rec['failed']} of "
              f"{rec['attempted']} requests failed their checks")
        ok = False
    for name in sorted(want[t] - got):
        print(f"check: {w} trace={t}: declared metric {name} is missing")
        ok = False
    for name in sorted(got - want[t]):
        print(f"check: {w} trace={t}: metric {name} is not declared")
        ok = False
for w in (x["name"] for x in bench["workloads"]):
    for t in (0, 1):
        if (w, t) not in seen:
            print(f"check: {w} trace={t} did not run")
            ok = False
print("check: ok" if ok else "check: FAILED")
sys.exit(0 if ok else 1)
EOF
