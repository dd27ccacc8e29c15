"""Tests of the benchmark's statistics: the host-speed correction, the
tail-percentile rule, the quartile spread and the comparison verdict.

    python3 -m unittest discover -s perfbench/tests -p "test_*.py"
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import stats  # noqa: E402


class HostCorrectedTest(unittest.TestCase):
    def test_reference_speed_leaves_times_alone(self):
        times = [0.4, 0.5, 1.25]
        probes = [stats.PROBE_REF_S] * 3
        for got, want in zip(stats.host_corrected(times, probes), times):
            self.assertAlmostEqual(got, want)

    def test_slow_host_phase_cancels(self):
        # A phase that slows the probe by a factor k slows the workloads by
        # about as much; the corrected times agree.
        k = 1.8
        base = 0.4
        slow = base * k
        quiet, loud = stats.host_corrected(
            [base, slow], [stats.PROBE_REF_S, stats.PROBE_REF_S * k])
        self.assertAlmostEqual(quiet, loud)

    def test_program_change_still_shows(self):
        probes = [stats.PROBE_REF_S * 1.1] * 2
        before, after = stats.host_corrected([0.5, 0.4], probes)
        self.assertAlmostEqual(after / before, 0.8)

    def test_lengths_must_match(self):
        with self.assertRaises(ValueError):
            stats.host_corrected([0.4, 0.5], [stats.PROBE_REF_S])


class TailTest(unittest.TestCase):
    def test_needs_eleven_samples(self):
        self.assertIsNone(stats.tail(list(range(10))))
        self.assertEqual(stats.tail(list(range(1, 12))), (100 / 11, 1))

    def test_leaves_exactly_ten_samples_beyond(self):
        values = [float(v) for v in range(100, 0, -1)]  # Unsorted input.
        level, value = stats.tail(values)
        self.assertAlmostEqual(level, 90.0)
        self.assertEqual(value, 90.0)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_forty_samples(self):
        level, value = stats.tail([0.01 * v for v in range(1, 41)])
        self.assertAlmostEqual(level, 75.0)
        self.assertAlmostEqual(value, 0.30)


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [1.2, 0.9, 1.0, 1.1, 1.5, 0.95, 1.05, 1.3, 1.0, 1.02]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_identical_values_have_no_spread(self):
        self.assertEqual(stats.spread([3.0] * 10), 0.0)
        self.assertEqual(stats.spread([3.0]), 0.0)


class VerdictTest(unittest.TestCase):
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]

    def test_clear_gain_is_better(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1),
                         ("better", 10, 10))

    def test_gain_direction_follows_better(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "higher", 0.1)[0],
                         "better")
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1)[0],
                         "worse")

    def test_small_drift_is_unchanged(self):
        change = [v * 1.03 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1)[0],
                         "unchanged")

    def test_eight_of_ten_pairs_is_not_a_gain(self):
        change = [v * 0.9 for v in self.parent]
        change[0] = change[1] = 1.05
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1),
                         ("unchanged", 8, 10))

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.4, 0.6, 1.2, 0.9, 1.1]
        change = list(reversed(noisy))
        self.assertEqual(stats.verdict(noisy, change, "lower", 0.1)[0],
                         "unresolved")

    def test_wide_spread_all_better_without_gain_is_unchanged(self):
        parent = [float(v) for v in range(1, 11)]
        change = [0.5] * 10  # Gain ~5.0 is below the parent's IQR of 5.5.
        self.assertEqual(stats.verdict(parent, change, "lower", 0.1),
                         ("unchanged", 10, 10))


if __name__ == "__main__":
    unittest.main()
