"""Unit tests of the benchmark's statistics helpers.

    python3 perfbench/test_stats.py
"""

import math
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 90), 90)
        self.assertEqual(stats.percentile(xs, 99), 99)
        self.assertEqual(stats.percentile(xs, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_p90_needs_100_samples(self):
        self.assertFalse(stats.reportable(99, 90))
        self.assertTrue(stats.reportable(100, 90))
        self.assertEqual(stats.beyond(100, 90), 10)

    def test_p99_needs_1000_samples(self):
        self.assertFalse(stats.reportable(999, 99))
        self.assertTrue(stats.reportable(1000, 99))

    def test_median_needs_20_samples(self):
        self.assertFalse(stats.reportable(19, 50))
        self.assertTrue(stats.reportable(20, 50))
        self.assertFalse(stats.reportable(0, 50))

    def test_highest_reportable(self):
        self.assertIsNone(stats.highest_reportable(10))
        self.assertEqual(stats.highest_reportable(20), 50)
        self.assertEqual(stats.highest_reportable(144), 90)
        self.assertEqual(stats.highest_reportable(1500), 99)
        self.assertEqual(stats.highest_reportable(10000), 99.9)


class Geomean(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(stats.geomean([2.0, 8.0]), 4.0)
        self.assertAlmostEqual(stats.geomean([0.5, 2.0]), 1.0)
        self.assertEqual(stats.geomean([0.948]), 0.948)

    def test_below_one_means_slower(self):
        # unified cycles / GDP cycles: GDP twice as slow on one program,
        # as fast on the other
        self.assertLess(stats.geomean([0.5, 1.0]), 1.0)

    def test_rejects_bad_input(self):
        for bad in ([], [1.0, 0.0], [1.0, -2.0], [math.nan], [math.inf]):
            with self.assertRaises(ValueError):
                stats.geomean(bad)


class FailedRatio(unittest.TestCase):
    def test_counts(self):
        self.assertEqual(stats.failed_ratio(10), 0.0)
        self.assertEqual(stats.failed_ratio(10, failed=1), 0.1)

    def test_refused_and_gave_up_count_as_failed(self):
        self.assertEqual(stats.failed_ratio(10, refused=2), 0.2)
        self.assertEqual(stats.failed_ratio(10, gave_up=3), 0.3)
        self.assertEqual(stats.failed_ratio(8, failed=1, refused=1, gave_up=2), 0.5)

    def test_rejects_bad_counts(self):
        with self.assertRaises(ValueError):
            stats.failed_ratio(0)
        with self.assertRaises(ValueError):
            stats.failed_ratio(2, failed=2, gave_up=1)


class SpeedFactor(unittest.TestCase):
    def test_median_probe(self):
        self.assertEqual(stats.speed_factor([0.1], 0.1), 1.0)
        # a host running at half speed doubles probe times: scale times by 1/2
        self.assertEqual(stats.speed_factor([0.2, 0.3, 0.1, 0.2, 0.2], 0.1), 0.5)

    def test_rejects_bad_input(self):
        for probes in ([], [0.1, 0.0]):
            with self.assertRaises(ValueError):
                stats.speed_factor(probes, 0.1)


if __name__ == "__main__":
    unittest.main()
