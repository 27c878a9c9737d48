"""Tests of compare.py's verdicts: python3 -m unittest stackbench/test_compare.py"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


class Verdicts(unittest.TestCase):
    def test_same_numbers_are_unchanged(self):
        self.assertEqual(compare.verdict(BASE, BASE, "higher", 0.1)[0], "unchanged")

    def test_winning_every_pair_by_more_than_the_spread_is_improved(self):
        change = [x * 1.05 for x in BASE]
        v, wins, pairs = compare.verdict(BASE, change, "higher", 0.1)
        self.assertEqual((v, wins, pairs), ("improved", 10, 10))
        self.assertEqual(compare.verdict(BASE, change, "lower", 0.1)[0], "unchanged")

    def test_worse_than_the_bound_is_worse(self):
        self.assertEqual(compare.verdict(BASE, [x * 0.8 for x in BASE], "higher", 0.1)[0], "worse")
        self.assertEqual(compare.verdict(BASE, [x * 1.2 for x in BASE], "lower", 0.1)[0], "worse")

    def test_a_base_noisier_than_the_bound_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        self.assertEqual(compare.verdict(noisy, list(reversed(noisy)), "higher", 0.1)[0], "unresolved")

    def test_too_few_pairs_is_unresolved(self):
        self.assertEqual(compare.verdict(BASE[:5], [x * 1.05 for x in BASE[:5]], "higher", 0.1)[0], "unresolved")

    def test_more_failures_block_a_gain(self):
        change = [x * 1.05 for x in BASE]
        self.assertEqual(compare.verdict(BASE, change, "higher", 0.1, failed_more=True)[0], "unresolved")

    def test_unbounded_metrics_follow_the_pair_rule_both_ways(self):
        self.assertEqual(compare.verdict(BASE, [x * 1.05 for x in BASE], "lower", None)[0], "worse")
        self.assertEqual(compare.verdict(BASE, [x * 0.95 for x in BASE], "lower", None)[0], "improved")


class Reading(unittest.TestCase):
    def test_runs_pair_with_their_record(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "runs.txt")
            with open(path, "w", encoding="utf-8") as fh:
                for tp in (1.0, 2.0):
                    fh.write(json.dumps({"record": {"workload": "lookup", "trace": 0, "rep_get_p50_us": [1.0, 3.0]}}) + "\n")
                    fh.write("throughput_mops 1.0 Mops/s\n")
                    result = {"correct": True, "attempted": 10, "failed": 0,
                              "metrics": {"throughput_mops": {"value": tp, "unit": "Mops/s"}}}
                    fh.write(json.dumps(result) + "\n")
            runs = compare.read_runs([d])
            self.assertEqual([r["throughput_mops"] for r in runs[("lookup", 0)]], [1.0, 2.0])
            self.assertEqual(runs[("lookup", 0)][0]["get_p50_us"], 2.0)


if __name__ == "__main__":
    unittest.main()
