#!/usr/bin/env python3
"""Compares two result sets of perfbench/run.py under BENCHMARK.json's bounds.

  python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records `run.py --out FILE` appends, one untraced run
per line. For every (workload, end-to-end metric) the report gives both
sides' median and quartiles (statistics.quantiles, n=4), the change of the
median in the metric's better direction, the paired wins of the change
(a pair is one seed run once on each side; ties count for neither) and a
verdict:

  regression  the change's median is worse than the base's by more than
              the metric's bound
  unresolved  a side's spread (quartile distance over median) is wider
              than the bound, and not every change run reads better than
              every base run
  gain        the change wins at least 9 of 10 pairs, the medians differ
              by more than the base's own quartile distance, and no more
              operations failed than in the base
  ok          within the bound; no claim

Both files must carry the same stamp (nproc, build type, CTSDD_TRACE,
compiler); otherwise nothing is compared. A record with a wrong answer
invalidates its file. Exit status: 0 no regression, 1 regression, 2 refused.
"""

import json
import statistics
import sys
from collections import Counter
from pathlib import Path

STAMP_KEYS = ("nproc", "build_type", "ctsdd_trace", "compiler")


class Refused(Exception):
    pass


def load_records(path):
    with open(path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    records = [r for r in records if r.get("trace", 0) == 0]
    if not records:
        raise Refused(f"{path}: no untraced records")
    for r in records:
        if not r["correct"]:
            raise Refused(f"{path}: {r['workload']} seed {r['seed']} "
                          "gave wrong answers")
    return records


def common_stamp(base, change):
    stamps = {tuple(r["stamp"][k] for k in STAMP_KEYS) for r in base + change}
    if len(stamps) != 1:
        raise Refused("stamps differ: " + "; ".join(
            ", ".join(f"{k}={v}" for k, v in zip(STAMP_KEYS, s))
            for s in sorted(stamps, key=str)))
    return dict(zip(STAMP_KEYS, stamps.pop()))


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def paired(base, change):
    """(base value, change value) for every seed run once on each side."""
    def once(runs):
        counts = Counter(seed for seed, _ in runs)
        return {seed: v for seed, v in runs if counts[seed] == 1}
    b, c = once(base), once(change)
    return [(b[s], c[s]) for s in sorted(set(b) & set(c))]


def compare_metric(base, change, better, bound):
    """base, change: lists of (seed, value). Returns a result row (dict)."""
    if len(base) < 2 or len(change) < 2:
        raise Refused("need at least two runs per side")
    sign = 1.0 if better == "lower" else -1.0
    base_values = [v for _, v in base]
    change_values = [v for _, v in change]
    bq1, bmed, bq3 = quartiles(base_values)
    cq1, cmed, cq3 = quartiles(change_values)
    worse = sign * (cmed - bmed) / abs(bmed) if bmed else 0.0
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    pairs = paired(base, change)
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    every_run_better = (max(sign * v for v in change_values) <
                        min(sign * v for v in base_values))
    if spread > bound and not every_run_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    elif (pairs and wins >= 0.9 * len(pairs) and
          abs(cmed - bmed) > bq3 - bq1):
        verdict = "gain"
    else:
        verdict = "ok"
    return {"base": (bq1, bmed, bq3), "change": (cq1, cmed, cq3),
            "worse": worse, "spread": spread, "wins": wins,
            "pairs": len(pairs), "verdict": verdict}


def compare(base_records, change_records, benchmark):
    """Rows for every (workload, end-to-end metric) both sides ran."""
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        base = [r for r in base_records if r["workload"] == workload]
        change = [r for r in change_records if r["workload"] == workload]
        if not base or not change:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = compare_metric(
                [(r["seed"], r["metrics"][name]) for r in base],
                [(r["seed"], r["metrics"][name]) for r in change],
                metric["better"], metric["bound"])
            row.update(workload=workload, metric=name, bound=metric["bound"])
            # A gain does not count when more operations fail.
            if (row["verdict"] == "gain" and
                    sum(r["failed"] for r in change) >
                    sum(r["failed"] for r in base)):
                row["verdict"] = "ok"
            rows.append(row)
    return rows


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as f:
        benchmark = json.load(f)
    try:
        base = load_records(argv[1])
        change = load_records(argv[2])
        stamp = common_stamp(base, change)
        rows = compare(base, change, benchmark)
    except Refused as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    print("stamp: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"{'workload':12s} {'metric':18s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'worse':>7s} {'bound':>6s} "
          f"{'wins':>6s}  verdict")
    for r in rows:
        b, c = r["base"], r["change"]
        print(f"{r['workload']:12s} {r['metric']:18s} "
              f"{b[1]:12.5g} [{b[0]:9.5g}, {b[2]:9.5g}] "
              f"{c[1]:12.5g} [{c[0]:9.5g}, {c[2]:9.5g}] "
              f"{100 * r['worse']:6.1f}% {100 * r['bound']:5.0f}% "
              f"{r['wins']:2d}/{r['pairs']:<3d}  {r['verdict']}")
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
