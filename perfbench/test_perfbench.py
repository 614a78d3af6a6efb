#!/usr/bin/env python3
"""Tests for the benchmark's own arithmetic.

    python3 perfbench/test_perfbench.py

The scorer tests run on a tiny seeded trace made by the real generator
(built into $CARGO_TARGET_DIR, default .bench_build, like run.py does), so
they check the truth file the benchmark actually reads.
"""

import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import score  # noqa: E402


class MedianTest(unittest.TestCase):
    def test_odd_count(self):
        self.assertEqual(score.median_with_count([3.0, 1.0, 2.0]), (2.0, 3))

    def test_even_count_averages_the_middle_pair(self):
        self.assertEqual(score.median_with_count([4, 1, 3, 2]), (2.5, 4))

    def test_generator_input(self):
        self.assertEqual(score.median_with_count(x * 2 for x in range(5)), (4, 5))

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            score.median_with_count([])


class LayerSumTest(unittest.TestCase):
    def test_rest_is_unattributed(self):
        share, ok = score.layer_sum({"query": 1.0, "pisa": 2.0, "stream": 0.996}, 4.0)
        self.assertTrue(ok)
        self.assertAlmostEqual(share, 0.001)

    def test_untimed_layer_fails(self):
        # One layer of three left untimed: an eighth of the wall is uncovered.
        share, ok = score.layer_sum({"query": 1.0, "pisa": 2.0, "stream": 0.5}, 4.0)
        self.assertAlmostEqual(share, 0.125)
        self.assertFalse(ok)

    def test_unattributed_limit(self):
        limit = score.MAX_UNATTRIBUTED_SHARE
        _, ok = score.layer_sum({"a": 1.0 - 0.5 * limit}, 1.0)
        self.assertTrue(ok)
        _, ok = score.layer_sum({"a": 1.0 - 1.5 * limit}, 1.0)
        self.assertFalse(ok)

    def test_layers_exactly_fill_the_wall(self):
        share, ok = score.layer_sum({"a": 0.25, "b": 0.75}, 1.0)
        self.assertTrue(ok)
        self.assertAlmostEqual(share, 0.0)

    def test_overlapping_layers_fail(self):
        _, ok = score.layer_sum({"a": 0.7, "b": 0.7}, 1.0)
        self.assertFalse(ok)

    def test_negative_layer_fails(self):
        _, ok = score.layer_sum({"a": -0.1, "b": 0.5}, 1.0)
        self.assertFalse(ok)

    def test_trace_overhead(self):
        self.assertAlmostEqual(score.trace_overhead(1.1, 1.0), 0.1)


class RecallTest(unittest.TestCase):
    """Scores detections against the truth of a tiny seeded trace."""

    @classmethod
    def setUpClass(cls):
        root = os.path.dirname(HERE)
        build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                                 "perfbench")
        run.build(root, build_dir)
        cls.tmp = tempfile.mkdtemp(dir=build_dir)
        prefix = os.path.join(cls.tmp, "tiny")
        run.run_checked([os.path.join(build_dir, "perfbench_gen"), "--seed", "7",
                         "--windows", "2", "--out", prefix], timeout=60)
        with open(prefix + ".truth.json") as f:
            cls.truth = json.load(f)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def triples(self):
        return sorted(score.truth_triples(self.truth))

    def test_truth_covers_every_attack_in_every_window(self):
        self.assertEqual(self.truth["windows"], 2)
        self.assertEqual(len(self.triples()), 2 * len(self.truth["attacks"]))

    def test_all_reported(self):
        dets = [[w, qid, host] for qid, host, w in self.triples()]
        self.assertEqual(score.recall(self.truth, dets), 1.0)

    def test_half_reported_and_extras_ignored(self):
        dets = [[w, qid, host] for qid, host, w in self.triples() if w == 0]
        dets.append([0, 5, 12345])  # a false positive does not lower recall
        self.assertEqual(score.recall(self.truth, dets), 0.5)

    def test_wrong_query_does_not_count(self):
        dets = [[w, qid + 100, host] for qid, host, w in self.triples()]
        self.assertEqual(score.recall(self.truth, dets), 0.0)

    def test_partly_covered_window_is_not_truth(self):
        truth = dict(self.truth)
        truth["attacks"] = [dict(a, start_s=1.5) for a in self.truth["attacks"]]
        self.assertEqual({w for _, _, w in score.truth_triples(truth)}, {1})


if __name__ == "__main__":
    unittest.main()
