#!/usr/bin/env python3
"""Unit tests of layer_report.py on hand-built traces.

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layer_report  # noqa: E402


def span(name, ts, dur, span_id, parent=0, tid=1, cat="serve"):
    return {"ph": "X", "cat": cat, "name": name, "tid": tid, "ts": ts,
            "dur": dur, "args": {"trace_id": 0, "span_id": span_id,
                                 "parent_span": parent}}


def async_pair(cat, name, ident, begin, end, tid_begin=1, tid_end=2):
    return [{"ph": "b", "cat": cat, "name": name, "tid": tid_begin,
             "ts": begin, "id": ident},
            {"ph": "e", "cat": cat, "name": name, "tid": tid_end, "ts": end,
             "id": ident}]


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_subtract_direct_children_only(self):
        events = [span("outer", 0, 100, 1),
                  span("mid", 10, 30, 2, parent=1),
                  span("inner", 15, 10, 3, parent=2)]
        self.assertEqual(layer_report.self_times(events, "outer"), [70])
        self.assertEqual(layer_report.self_times(events, "mid"), [20])
        self.assertEqual(layer_report.self_times(events, "inner"), [10])

    def test_children_on_other_threads_are_ignored(self):
        events = [span("outer", 0, 100, 1, tid=1),
                  span("stolen", 10, 50, 2, parent=1, tid=2),
                  span("local", 70, 10, 3, parent=1, tid=1)]
        self.assertEqual(layer_report.self_times(events, "outer"), [90])

    def test_overlapping_children_count_once(self):
        events = [span("outer", 0, 100, 1),
                  span("a", 10, 30, 2, parent=1),
                  span("b", 30, 20, 3, parent=1),
                  span("c", 45, 5, 4, parent=1)]
        # Children cover [10, 50]: 40 of the parent's 100.
        self.assertEqual(layer_report.self_times(events, "outer"), [60])

    def test_children_clipped_to_the_parent(self):
        events = [span("outer", 0, 100, 1),
                  span("late", 90, 30, 2, parent=1)]
        self.assertEqual(layer_report.self_times(events, "outer"), [90])

    def test_union_length(self):
        self.assertEqual(layer_report.union_length([]), 0)
        self.assertEqual(
            layer_report.union_length([(0, 10), (5, 15), (20, 25)]), 20)


class ComputeTest(unittest.TestCase):
    def test_quantile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(layer_report.quantile(values, 0.5), 50)
        self.assertEqual(layer_report.quantile(values, 0.99), 99)
        self.assertEqual(layer_report.quantile([7], 0.99), 7)
        self.assertEqual(layer_report.quantile([], 0.5), 0.0)

    def test_serve_shares_and_span_percentiles(self):
        events = [
            span("client.request", 0, 100, 1, cat="bench"),
            span("client.request", 200, 100, 2, cat="bench"),
            span("shard.process", 40, 50, 3, tid=2),
            span("wmc", 60, 20, 4, parent=3, tid=2),
            span("compile", 240, 30, 5, parent=6, tid=2, cat="compile"),
            span("shard.process", 230, 60, 6, tid=2),
            span("obdd.gc", 280, 5, 7, parent=6, tid=2, cat="gc"),
            span("obdd.compile", 0, 10, 8, cat="bench"),
            span("obdd.compile", 0, 30, 9, cat="bench"),
        ]
        events += async_pair("request", "request", "1", 2, 95)
        events += async_pair("request", "request", "2", 202, 295)
        events += async_pair("serve", "queue.wait", "1", 2, 40)
        events += async_pair("serve", "queue.wait", "2", 202, 230)
        m = layer_report.compute(events, {"gc.runs": 1.0}, 90.0, 100.0)
        self.assertAlmostEqual(m["serve.queue_wait_share"], 66 / 200)
        # shard.process self: (50 - 20) + (60 - 30 - 5).
        self.assertAlmostEqual(m["serve.dispatch_self_share"], 55 / 200)
        self.assertAlmostEqual(m["serve.wmc_share"], 20 / 200)
        self.assertAlmostEqual(m["serve.compile_share"], 30 / 200)
        self.assertAlmostEqual(m["gc.pause_share"], 5 / 200)
        self.assertAlmostEqual(m["serve.client_overhead_share"], 14 / 200)
        self.assertEqual(m["obdd.compile_us.p50"], 10)
        self.assertEqual(m["obdd.compile_us.p99"], 30)
        self.assertEqual(m["sdd.compile_us.p50"], 0.0)
        self.assertEqual(m["gc.runs"], 1.0)
        self.assertAlmostEqual(m["trace.overhead_ratio"], 0.9)

    def test_no_requests_means_zero_shares(self):
        m = layer_report.compute([span("sdd.compile", 0, 5, 1, cat="bench")],
                                 {}, 1.0, 1.0)
        self.assertEqual(m["serve.queue_wait_share"], 0.0)
        self.assertEqual(m["sdd.compile_us.p50"], 5)

    def test_missing_metrics_named(self):
        benchmark = {"per_layer": [{"name": "a"}, {"name": "b"}],
                     "end_to_end": [{"name": "c"}]}
        self.assertEqual(layer_report.missing_metrics({"a": 1}, benchmark),
                         ["b"])
        self.assertEqual(
            layer_report.missing_metrics({}, benchmark, "end_to_end"), ["c"])


if __name__ == "__main__":
    unittest.main()
