"""Tests of the spread and A/A arithmetic in spread.py."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spread  # noqa: E402

METRICS = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
]


class SpreadTest(unittest.TestCase):
    def test_spread_is_quartile_distance_over_median(self):
        # statistics.quantiles([1..9], n=4) = [2.5, 5, 7.5]
        self.assertAlmostEqual(spread.spread(list(range(1, 10))), 5.0 / 5.0)
        self.assertEqual(spread.spread([3.0] * 10), 0.0)

    def test_spread_ignores_one_outlier_in_ten(self):
        steady = [100.0 + i for i in range(10)]
        self.assertLess(spread.spread(steady[:9] + [1000.0]), 0.1)

    def test_worse_by_follows_the_better_direction(self):
        self.assertAlmostEqual(spread.worse_by(100.0, 80.0, "higher"), 0.2)
        self.assertAlmostEqual(spread.worse_by(100.0, 120.0, "higher"), -0.2)
        self.assertAlmostEqual(spread.worse_by(1.0, 1.1, "lower"), 0.1)
        self.assertAlmostEqual(spread.worse_by(1.0, 0.9, "lower"), -0.1)


class AaTest(unittest.TestCase):
    def test_two_sets_of_the_same_code_agree(self):
        a = {"setup_s": [1.0, 1.1, 0.9], "throughput_per_s": [100.0, 104.0, 98.0]}
        b = {"setup_s": [1.05, 1.0, 1.2], "throughput_per_s": [95.0, 101.0, 99.0]}
        self.assertEqual(spread.aa_failures(a, b, METRICS), [])

    def test_a_regression_beyond_the_bound_fails(self):
        a = {"setup_s": [1.0, 1.0, 1.0], "throughput_per_s": [100.0, 100.0, 100.0]}
        b = {"setup_s": [1.3, 1.3, 1.3], "throughput_per_s": [79.0, 79.0, 79.0]}
        names = [f[0] for f in spread.aa_failures(a, b, METRICS)]
        self.assertEqual(names, ["setup_s", "throughput_per_s"])

    def test_an_improvement_never_fails(self):
        a = {"setup_s": [1.0] * 3, "throughput_per_s": [100.0] * 3}
        b = {"setup_s": [0.1] * 3, "throughput_per_s": [500.0] * 3}
        self.assertEqual(spread.aa_failures(a, b, METRICS), [])

    def test_setup_spread_is_exempt(self):
        values = {"setup_s": [1.0, 5.0, 0.1, 9.0], "throughput_per_s": [100.0, 101.0, 99.0, 100.0]}
        self.assertEqual(spread.spread_failures(values, METRICS), [])
        values["throughput_per_s"] = [50.0, 150.0, 100.0, 100.0]
        self.assertEqual([f[0] for f in spread.spread_failures(values, METRICS)],
                         ["throughput_per_s"])


if __name__ == "__main__":
    unittest.main()
