#!/usr/bin/env python3
"""Compare two sets of bench_e2e results against BENCHMARK.json's bounds.

    python3 bench/e2e/compare.py A/ B/ [--benchmark BENCHMARK.json]

A and B are directories of result files named <workload>-<seed>.json, each
holding the output of one `run.py --workload <workload> --seed <seed>` run
(its last line is the result object; earlier lines are ignored).  A is the
parent or first set, B the change or second set.  Runs of A and B with the
same workload and seed form a pair.

For every workload and metric the table shows each side's median and
quartiles (statistics.quantiles, n=4), each side's spread (quartile
distance / median), how much worse B's median is than A's, the share of
pairs B wins (ties count for neither) and a status:

  regressed   B's median is worse than A's by more than the metric's bound
  unresolved  A's own spread (quartile distance / median) exceeds the bound,
              and not every run of B beats every run of A
  improved    B wins at least 9/10 of the pairs and the medians differ by
              more than A's quartile distance
  same        none of the above

Per-layer metrics (traced runs) have no bound; they are listed with
medians only.  The exit status is 1 when a metric regressed or a run
failed, 0 otherwise.
"""

import argparse
import json
import os
import re
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_runs(directory):
    """{workload: {seed: result}} from <workload>-<seed>.json files."""
    runs = defaultdict(dict)
    for name in sorted(os.listdir(directory)):
        match = re.fullmatch(r"(.+)-(\d+)\.json", name)
        if not match:
            continue
        with open(os.path.join(directory, name)) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines:
            raise SystemExit(f"{name}: empty result file")
        runs[match.group(1)][int(match.group(2))] = json.loads(lines[-1])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """+1 when b is better than a, -1 when worse, 0 on a tie."""
    if a == b:
        return 0
    return 1 if (b > a) == (direction == "higher") else -1


def judge(a_vals, b_vals, pairs, metric):
    a_q1, a_med, a_q3 = quartiles(a_vals)
    _, b_med, _ = quartiles(b_vals)
    direction = metric["better"]
    bound = metric.get("bound")
    worse_by = (a_med - b_med if direction == "higher" else b_med - a_med) / abs(a_med)
    wins = sum(better(a, b, direction) > 0 for a, b in pairs)
    win_share = wins / len(pairs) if pairs else float("nan")
    if bound is None:
        return worse_by, win_share, "-"
    spread = (a_q3 - a_q1) / abs(a_med)
    b_beats_all = all(better(a, b, direction) > 0 for a in a_vals for b in b_vals)
    if worse_by > bound:
        status = "regressed"
    elif spread > bound and not b_beats_all:
        status = "unresolved"
    elif pairs and win_share >= 0.9 and abs(b_med - a_med) > (a_q3 - a_q1):
        status = "improved"
    else:
        status = "same"
    return worse_by, win_share, status


def spread(values):
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med)


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.4g}, {q3:.4g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = parser.parse_args()

    with open(args.benchmark) as f:
        benchmark = json.load(f)
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    metrics.update({m["name"]: m for m in benchmark["per_layer"]})
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)

    bad = False
    for workload in [w["name"] for w in benchmark["workloads"]]:
        a, b = a_runs.get(workload, {}), b_runs.get(workload, {})
        if not a or not b:
            print(f"\n{workload}: no runs in {'A' if not a else 'B'}")
            continue
        failed = {side: sum(r["failed"] for r in runs.values()) +
                  sum(not r["correct"] for r in runs.values())
                  for side, runs in (("A", a), ("B", b))}
        print(f"\n{workload}: {len(a)} runs in A, {len(b)} in B, "
              f"failures A {failed['A']} B {failed['B']}")
        bad |= failed["A"] > 0 or failed["B"] > 0
        print(f"  {'metric':34} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30} "
              f"{'spread A':>9} {'spread B':>9} {'worse by':>9} {'B wins':>7}  status")
        names = [n for n in metrics if all(n in r["metrics"] for r in (*a.values(), *b.values()))]
        for name in names:
            a_vals = [r["metrics"][name]["value"] for r in a.values()]
            b_vals = [r["metrics"][name]["value"] for r in b.values()]
            pairs = [(a[s]["metrics"][name]["value"], b[s]["metrics"][name]["value"])
                     for s in sorted(set(a) & set(b))]
            if statistics.median(a_vals) == 0:
                print(f"  {name:34} {fmt(a_vals):>30} {fmt(b_vals):>30}")
                continue
            worse_by, win_share, status = judge(a_vals, b_vals, pairs, metrics[name])
            bad |= status == "regressed"
            wins = f"{win_share:.0%}" if pairs else "-"
            print(f"  {name:34} {fmt(a_vals):>30} {fmt(b_vals):>30} "
                  f"{spread(a_vals):>9.1%} {spread(b_vals):>9.1%} "
                  f"{worse_by:>+9.1%} {wins:>7}  {status}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
