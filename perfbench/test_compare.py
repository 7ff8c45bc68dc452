#!/usr/bin/env python3
"""Unit tests of compare.py on synthetic result sets.

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BENCHMARK = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "ops", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}
STAMP = {"nproc": 4, "build_type": "Release", "ctsdd_trace": True,
         "compiler": "12.2.0", "commit": "abc"}


def records(lat, ops=None, stamp=STAMP, failed=0, correct=True):
    ops = ops or [1000.0] * len(lat)
    return [{"workload": "w", "seed": seed, "trace": 0, "correct": correct,
             "attempted": 100, "failed": failed, "stamp": dict(stamp),
             "metrics": {"lat_ms": l, "ops": o}}
            for seed, (l, o) in enumerate(zip(lat, ops), start=1)]


def verdicts(base, change):
    return {r["metric"]: r["verdict"]
            for r in compare.compare(base, change, BENCHMARK)}


# Ten runs with about 2% quartile spread around 10.
STEADY = [9.9, 10.0, 10.1, 9.95, 10.05, 10.0, 9.9, 10.1, 10.0, 10.02]


class CompareTest(unittest.TestCase):
    def test_same_distribution_is_ok(self):
        self.assertEqual(verdicts(records(STEADY), records(STEADY[::-1])),
                         {"lat_ms": "ok", "ops": "ok"})

    def test_median_worse_than_bound_is_regression(self):
        slower = [v * 1.2 for v in STEADY]
        self.assertEqual(verdicts(records(STEADY), records(slower))["lat_ms"],
                         "regression")

    def test_worse_within_bound_is_ok(self):
        slower = [v * 1.05 for v in STEADY]
        self.assertEqual(verdicts(records(STEADY), records(slower))["lat_ms"],
                         "ok")

    def test_higher_is_better_direction(self):
        fewer = [800.0 + i for i in range(10)]
        more = [1200.0 + i for i in range(10)]
        base = [1000.0 + i for i in range(10)]
        self.assertEqual(
            verdicts(records(STEADY, base), records(STEADY, fewer))["ops"],
            "regression")
        self.assertEqual(
            verdicts(records(STEADY, base), records(STEADY, more))["ops"],
            "gain")

    def test_gain_needs_nine_of_ten_paired_wins(self):
        faster = [v * 0.8 for v in STEADY]
        self.assertEqual(verdicts(records(STEADY), records(faster))["lat_ms"],
                         "gain")
        # Three pairs lost: the median still drops, but no claim.
        mixed = [v * 0.95 for v in STEADY[:7]] + [v * 1.01 for v in STEADY[7:]]
        self.assertEqual(verdicts(records(STEADY), records(mixed))["lat_ms"],
                         "ok")

    def test_gain_needs_difference_beyond_base_spread(self):
        barely = [v - 0.01 for v in STEADY]
        self.assertEqual(verdicts(records(STEADY), records(barely))["lat_ms"],
                         "ok")

    def test_gain_void_when_more_operations_fail(self):
        faster = [v * 0.8 for v in STEADY]
        self.assertEqual(
            verdicts(records(STEADY), records(faster, failed=3))["lat_ms"],
            "ok")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [5, 15, 8, 12, 6, 14, 7, 13, 10, 10]
        self.assertEqual(verdicts(records(noisy), records(STEADY))["lat_ms"],
                         "unresolved")
        worse_noisy = [v * 1.3 for v in noisy]
        self.assertEqual(
            verdicts(records(noisy), records(worse_noisy))["lat_ms"],
            "unresolved")

    def test_every_change_run_better_resolves_a_wide_spread(self):
        noisy = [20, 30, 22, 28, 21, 29, 23, 27, 25, 25]
        self.assertEqual(verdicts(records(noisy), records(STEADY))["lat_ms"],
                         "gain")

    def test_pairs_by_seed(self):
        base = records(STEADY)
        change = records([v * 0.8 for v in STEADY])
        change.reverse()  # order in the file does not matter
        row = compare.compare(base, change, BENCHMARK)[0]
        self.assertEqual((row["wins"], row["pairs"]), (10, 10))

    def test_repeated_seeds_are_kept_but_not_paired(self):
        base = records(STEADY)
        change = records(STEADY) + records(STEADY)
        row = compare.compare(base, change, BENCHMARK)[0]
        self.assertEqual(row["pairs"], 0)
        self.assertEqual(row["verdict"], "ok")

    def test_quartiles_match_statistics_module(self):
        row = compare.compare(records(STEADY), records(STEADY), BENCHMARK)[0]
        q1, med, q3 = row["base"]
        self.assertAlmostEqual(med, 10.0)
        self.assertLess(q1, med)
        self.assertGreater(q3, med)

    def test_stamp_mismatch_is_refused(self):
        other = dict(STAMP, nproc=1)
        with self.assertRaises(compare.Refused):
            compare.common_stamp(records(STEADY), records(STEADY, stamp=other))
        # The commit is expected to differ between the two sides.
        compare.common_stamp(records(STEADY),
                             records(STEADY, stamp=dict(STAMP, commit="def")))

    def test_wrong_answers_invalidate_a_file(self):
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                         delete=False) as f:
            for r in records(STEADY, correct=False):
                f.write(json.dumps(r) + "\n")
        try:
            with self.assertRaises(compare.Refused):
                compare.load_records(f.name)
        finally:
            os.unlink(f.name)

    def test_main_exit_codes(self):
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
            benchmark = json.load(f)
        workload = benchmark["workloads"][0]["name"]
        names = [m["name"] for m in benchmark["end_to_end"]]
        paths = []
        for recs in (records(STEADY), records([v * 1.3 for v in STEADY])):
            with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                             delete=False) as f:
                for r in recs:
                    r["workload"] = workload
                    r["metrics"] = {m: r["metrics"]["lat_ms"] for m in names}
                    f.write(json.dumps(r) + "\n")
                paths.append(f.name)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                same = compare.main(["compare.py", paths[0], paths[0]])
                worse = compare.main(["compare.py", paths[0], paths[1]])
            self.assertEqual(same, 0)
            self.assertEqual(worse, 1)
        finally:
            for p in paths:
                os.unlink(p)

if __name__ == "__main__":
    unittest.main()
