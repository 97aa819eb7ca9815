#!/usr/bin/env python3
# Copyright (c) mhxq authors. Licensed under the MIT license.
"""Self-test of compare.py: python3 mhxbench/compare_test.py"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

BENCHMARK = {
    "end_to_end": [
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "sat_rps", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def record(p50, sat, seed=1, workload="w", correct=True, trace=0):
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": {"correct": correct, "attempted": 10, "failed": 0,
                       "metrics": {
                           "p50_ms": {"value": p50, "unit": "ms"},
                           "sat_rps": {"value": sat, "unit": "1/s"}}}}


def runs(p50s, sats):
    return [record(p, s, seed=i) for i, (p, s) in enumerate(zip(p50s, sats))]


class VerdictTest(unittest.TestCase):
    def test_same_numbers_are_unchanged(self):
        self.assertEqual(compare.verdict([1.0, 1.01, 0.99], [1.0, 1.02, 0.98],
                                         "lower", 0.1), "unchanged")

    def test_slower_past_bound_regresses(self):
        self.assertEqual(compare.verdict([1.0, 1.01, 0.99], [1.2, 1.21, 1.19],
                                         "lower", 0.1), "regressed")

    def test_direction_follows_better(self):
        # Throughput falling is the regression; rising is the gain.
        self.assertEqual(compare.verdict([100, 101, 99], [80, 81, 79],
                                         "higher", 0.1), "regressed")
        self.assertEqual(compare.verdict([100, 101, 99], [120, 121, 119],
                                         "higher", 0.1), "better")

    def test_gain_within_base_spread_is_unchanged(self):
        self.assertEqual(compare.verdict([1.0, 1.05, 0.95, 1.0],
                                         [0.97, 0.98, 0.96, 0.97],
                                         "lower", 0.2), "unchanged")

    def test_wide_spread_is_unresolved(self):
        self.assertEqual(compare.verdict([1.0, 1.5, 0.6, 1.2], [1.1, 1.0, 1.3],
                                         "lower", 0.1), "unresolved")

    def test_wide_spread_but_disjoint_sets_decide(self):
        self.assertEqual(compare.verdict([2.0, 3.0, 2.5], [1.0, 1.5, 1.2],
                                         "lower", 0.1), "better")


class CompareTest(unittest.TestCase):
    def test_report_and_exit_status(self):
        base = runs([1.0, 1.01, 0.99], [100, 101, 99])
        lines, failed = compare.compare(base, runs([1.0, 1.0, 1.01],
                                                   [100, 100, 101]),
                                        BENCHMARK)
        self.assertFalse(failed)
        self.assertEqual(len(lines), 2)
        self.assertTrue(all(line.endswith("unchanged") for line in lines))
        _, failed = compare.compare(base, runs([1.3, 1.3, 1.31],
                                               [100, 100, 101]), BENCHMARK)
        self.assertTrue(failed)

    def test_wrong_results_fail(self):
        base = runs([1.0, 1.0], [100, 100])
        cand = [record(1.0, 100, correct=False)]
        lines, failed = compare.compare(base, cand, BENCHMARK)
        self.assertTrue(failed)
        self.assertIn("wrong results", lines[0])

    def test_single_set_reports_spread_against_bound(self):
        _, failed = compare.compare(runs([1.0, 1.01, 0.99], [100, 99, 101]),
                                    None, BENCHMARK)
        self.assertFalse(failed)
        lines, failed = compare.compare(runs([1.0, 2.0, 0.5, 1.5],
                                             [100, 99, 101, 100]),
                                        None, BENCHMARK)
        self.assertTrue(failed)
        self.assertIn("wider than bound", lines[0])

    def test_traced_runs_list_layers_without_verdict(self):
        base = runs([1.0], [100]) + [record(5.0, 7.0, trace=1)]
        lines, failed = compare.compare(base, None, BENCHMARK)
        self.assertFalse(failed)
        self.assertTrue(any("p50_ms" in line and "base 5" in line
                            for line in lines))

    def test_reads_record_directories(self):
        with tempfile.TemporaryDirectory() as tmp:
            records = Path(tmp, "runs")
            records.mkdir()
            for i, r in enumerate(runs([1.0, 1.02], [100, 98])):
                Path(records, "r%d.json" % i).write_text(json.dumps(r))
            self.assertEqual(len(compare.load_records(records)), 2)
            bench = Path(tmp, "BENCHMARK.json")
            bench.write_text(json.dumps(BENCHMARK))
            self.assertEqual(compare.main([str(records), str(records),
                                           "--benchmark", str(bench)]), 0)


if __name__ == "__main__":
    unittest.main()
