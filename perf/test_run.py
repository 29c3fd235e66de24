"""Unit tests for how perf/run.py reads a run's slices.

    python3 -m unittest perf/test_run.py   (or: cd perf && python3 -m unittest test_run)
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class FastSlice(unittest.TestCase):
    def test_third_best_of_28_for_a_time(self):
        # Nearest rank: the 10th percentile of 28 is the ceil(2.8) = 3rd.
        values = [float(v) for v in range(100, 128)]
        self.assertEqual(run.fast_slice(values), 102.0)

    def test_third_best_of_28_for_a_throughput(self):
        values = [float(v) for v in range(100, 128)]
        self.assertEqual(run.fast_slice(values, lower_is_better=False), 125.0)

    def test_order_of_slices_does_not_matter(self):
        self.assertEqual(run.fast_slice([9.0, 1.0, 5.0, 3.0, 7.0]), 1.0)

    def test_exact_tenth_is_not_rounded_up(self):
        # 10% of 20 is exactly 2: the 2nd, not the 3rd.
        self.assertEqual(run.fast_slice([float(v) for v in range(20)]), 1.0)

    def test_one_slice_is_its_own_read(self):
        self.assertEqual(run.fast_slice([4.5]), 4.5)

    def test_no_slice_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.fast_slice([])


class SliceLatencies(unittest.TestCase):
    def test_slices_without_decisions_are_skipped(self):
        phase = {"slices": {"decisions": [3, 0, 5], "latency_p50_us": [10.0, 0.0, 12.0]}}
        self.assertEqual(run.slice_latencies(phase, "latency_p50_us"), [10.0, 12.0])


if __name__ == "__main__":
    unittest.main()
