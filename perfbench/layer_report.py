#!/usr/bin/env python3
"""Per-layer metrics of a traced benchmark run.

Turns the Chrome trace a traced run of the benchmark binary writes (library
spans plus the bench-side spans of perfbench/layers.h) and its layer counters
into
the per_layer metrics named in BENCHMARK.json:

  - serve shares: the part of client-observed request time spent queued,
    in the shard's own dispatch work (shard.process self time), compiling,
    in the WMC pass, in GC pauses, and outside admission-to-publish;
  - replay percentiles: p50/p99 in microseconds of each bench-side layer
    span (db.lineage, graph.width_predict, ...);
  - counters, passed through from the binary;
  - trace overhead: untraced over traced throughput.

A span's self time is its duration minus the union of its children's
intervals on the same thread; children on other threads (stolen exec
tasks) run in parallel and are not subtracted.

  python3 perfbench/layer_report.py TRACE.json RESULT.json [UNTRACED_OPS]
"""

import json
import math
import sys
from collections import defaultdict
from pathlib import Path

# (metric prefix, bench span name) pairs reported as p50/p99 microseconds.
SPAN_PERCENTILES = [
    ("db.lineage_us", "db.lineage", ("p50", "p99")),
    ("graph.width_predict_us", "graph.width_predict", ("p50", "p99")),
    ("graph.decompose_us", "graph.decompose", ("p50",)),
    ("vtree.build_us", "vtree.build", ("p50",)),
    ("obdd.compile_us", "obdd.compile", ("p50", "p99")),
    ("sdd.compile_us", "sdd.compile", ("p50", "p99")),
    ("obdd.wmc_us", "obdd.wmc", ("p50", "p99")),
    ("sdd.wmc_us", "sdd.wmc", ("p50", "p99")),
]


def load_events(path):
    with open(path) as f:
        return json.load(f)["traceEvents"]


def quantile(values, q):
    """Nearest-rank quantile, as the binary computes its own."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def union_length(intervals):
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(events, name):
    """Self times of every complete span called `name`."""
    spans = [e for e in events if e.get("ph") == "X"]
    children = defaultdict(list)  # (tid, parent span id) -> intervals
    for e in spans:
        parent = e["args"].get("parent_span", 0)
        if parent:
            children[(e["tid"], parent)].append(
                (e["ts"], e["ts"] + e["dur"]))
    out = []
    for e in spans:
        if e["name"] != name:
            continue
        lo, hi = e["ts"], e["ts"] + e["dur"]
        clipped = [(max(a, lo), min(b, hi))
                   for a, b in children.get((e["tid"], e["args"]["span_id"]),
                                            [])
                   if min(b, hi) > max(a, lo)]
        out.append(e["dur"] - union_length(clipped))
    return out


def durations(events, cat, name):
    return [e["dur"] for e in events
            if e.get("ph") == "X" and e["cat"] == cat and e["name"] == name]


def async_durations(events, cat, name):
    """Durations of async b/e pairs, matched by id."""
    begins = {}
    out = []
    for e in events:
        if e.get("cat") != cat or e.get("name") != name:
            continue
        if e["ph"] == "b":
            begins[e["id"]] = e["ts"]
    for e in events:
        if (e.get("cat") == cat and e.get("name") == name and
                e["ph"] == "e" and e["id"] in begins):
            out.append(e["ts"] - begins[e["id"]])
    return out


def compute(events, counters, untraced_ops, traced_ops):
    """All per-layer metrics of one traced run, by name."""
    metrics = {}
    client = sum(durations(events, "bench", "client.request"))

    def share(total):
        return total / client if client > 0 else 0.0

    request = sum(async_durations(events, "request", "request"))
    metrics["serve.queue_wait_share"] = share(
        sum(async_durations(events, "serve", "queue.wait")))
    metrics["serve.dispatch_self_share"] = share(
        sum(self_times(events, "shard.process")))
    metrics["serve.compile_share"] = share(
        sum(durations(events, "compile", "compile")))
    metrics["serve.wmc_share"] = share(sum(durations(events, "serve", "wmc")))
    metrics["serve.client_overhead_share"] = share(max(client - request, 0.0))
    metrics["gc.pause_share"] = share(
        sum(durations(events, "gc", "obdd.gc")) +
        sum(durations(events, "gc", "sdd.gc")))
    for prefix, span, stats in SPAN_PERCENTILES:
        values = durations(events, "bench", span)
        for stat in stats:
            metrics[f"{prefix}.{stat}"] = quantile(
                values, 0.5 if stat == "p50" else 0.99)
    metrics.update(counters)
    metrics["trace.overhead_ratio"] = (
        untraced_ops / traced_ops if traced_ops > 0 else 0.0)
    return metrics


def missing_metrics(metrics, benchmark, kind="per_layer"):
    """Metric names of BENCHMARK.json[kind] absent from `metrics`."""
    return sorted(m["name"] for m in benchmark[kind]
                  if m["name"] not in metrics)


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[2]) as f:
        result = json.load(f)
    traced_ops = result["metrics"]["ops_per_s"]
    untraced_ops = float(argv[3]) if len(argv) > 3 else traced_ops
    metrics = compute(load_events(argv[1]), result["counters"], untraced_ops,
                      traced_ops)
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as f:
        missing = missing_metrics(metrics, json.load(f))
    for name in sorted(metrics):
        print(f"{name:36s} {metrics[name]:.6g}")
    if missing:
        print(f"missing per-layer metrics: {missing}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
