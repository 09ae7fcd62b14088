#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

    python3 bench/e2e/compare.py --parent P1.jsonl P2.jsonl ... \
                                 --change C1.jsonl C2.jsonl ...

Each file holds records written by `run.sh --out FILE` (one JSON object
per line; a file may hold several runs). Records are grouped by workload
and by traced/untraced; the i-th parent run of a group is paired with its
i-th change run, so pass the files in the order the runs alternated.

For every (metric, workload) pair it applies the rule of the
choosing-metrics guide, section 8:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              own spread (the distance between its quartiles);
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's spread is wider than the bound, and not every
              change run beats every parent run;
  unchanged   otherwise.

Per-layer metrics have no bound: they read improved, worsened (the mirror
of improved) or unchanged. Exits 1 when any pair regressed, else 0.
Standard library only.
"""

import argparse
import json
import os
import statistics
import sys


def load(paths):
    """{(workload, trace): [metrics dict per run, in file order]}"""
    runs = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                key = (rec["workload"], rec["trace"])
                runs.setdefault(key, []).append(rec["metrics"])
    return runs


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """The section 8 verdict plus the numbers behind it."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    pq1, pq3 = quartiles(parent)
    spread = pq3 - pq1
    gain = sign * (cm - pm)  # > 0: the change is better
    facts = {"wins": wins, "pairs": len(pairs), "gain": gain, "spread": spread}
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        return "improved", facts
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > spread:
            return "worsened", facts
        return "unchanged", facts
    all_better = (min(sign * c for c in change) >
                  max(sign * p for p in parent))
    if pm and spread / abs(pm) > bound and not all_better:
        return "unresolved", facts
    if pm and -gain / abs(pm) > bound:
        return "regressed", facts
    return "unchanged", facts


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    here = os.path.dirname(os.path.abspath(__file__))
    ap.add_argument("--benchmark",
                    default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load(args.parent), load(args.change)

    print(f"{'workload':<13} {'metric':<29} {'parent p50 [q1, q3]':>30} "
          f"{'change p50 [q1, q3]':>30} {'gain':>7} {'wins':>6} "
          f"{'bound':>6}  verdict")
    regressed = False
    for key in sorted(set(parent) & set(change)):
        workload, _ = key
        p_runs, c_runs = parent[key], change[key]
        if min(len(p_runs), len(c_runs)) < 10:
            print(f"# {workload}: only {min(len(p_runs), len(c_runs))} "
                  f"pairs; the rule asks for at least 10", file=sys.stderr)
        names = [n for n in p_runs[0] if n in declared]
        for name in names:
            pv = [r[name]["value"] for r in p_runs if name in r]
            cv = [r[name]["value"] for r in c_runs if name in r]
            if not pv or not cv:
                continue
            m = declared[name]
            v, facts = verdict(pv, cv, m["better"], m.get("bound"))
            regressed |= v == "regressed"
            pm = statistics.median(pv)
            rel = facts["gain"] / abs(pm) if pm else 0.0
            pq, cq = quartiles(pv), quartiles(cv)
            bound = f"{m['bound']:.0%}" if "bound" in m else "-"
            print(f"{workload:<13} {name:<29} "
                  f"{pm:>11.5g} [{pq[0]:>7.4g}, {pq[1]:>7.4g}] "
                  f"{statistics.median(cv):>11.5g} [{cq[0]:>7.4g}, "
                  f"{cq[1]:>7.4g}] {rel:>+7.1%} "
                  f"{facts['wins']:>2}/{facts['pairs']:<3} {bound:>6}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
