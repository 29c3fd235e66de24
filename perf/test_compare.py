"""Unit tests for perf/compare.py: one synthetic case per verdict.

    python3 -m unittest perf/test_compare.py   (or: cd perf && python3 -m unittest test_compare)
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

BENCH = {
    "workloads": [{"name": "light", "why": ""}],
    "end_to_end": [
        {"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
        {"name": "sat_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
    ],
}


def result_set(latency, ops, attempted=1000, failed=0):
    return {"workloads": {"light": {
        "attempted": attempted, "failed": failed,
        "metrics": {"latency_p50_us": {"value": latency, "unit": "us"},
                    "sat_ops_s": {"value": ops, "unit": "ops/s"}}}}}


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        self.assertEqual(compare.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), (2.75, 5.5, 8.25))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(compare.quartiles([7.0]), (7.0, 7.0, 7.0))
        self.assertEqual(compare.spread([7.0]), 0.0)

    def test_spread_is_quartile_distance_over_median(self):
        self.assertAlmostEqual(compare.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 5.5 / 5.5)


class Verdicts(unittest.TestCase):
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_pass_when_within_bound(self):
        change = [v * 1.03 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, 0.1, "lower")["verdict"], "pass")

    def test_regressed_when_median_worse_than_bound(self):
        change = [v * 1.2 for v in self.parent]
        cell = compare.verdict(self.parent, change, 0.1, "lower")
        self.assertEqual(cell["verdict"], "regressed")
        self.assertAlmostEqual(cell["diff"], 0.2)

    def test_higher_is_better_regresses_downwards(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, 0.1, "higher")["verdict"],
                         "regressed")
        self.assertEqual(compare.verdict(self.parent, change, 0.1, "lower")["verdict"],
                         "improved")

    def test_unresolved_when_spread_wider_than_bound(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        change = [v * 1.02 for v in noisy]
        self.assertGreater(compare.spread(noisy), 0.1)
        self.assertEqual(compare.verdict(noisy, change, 0.1, "lower")["verdict"], "unresolved")

    def test_wide_spread_but_every_change_run_better_is_resolved(self):
        noisy = [100, 140, 110, 130, 120, 105, 135, 115, 125, 120]
        change = [v / 2 for v in noisy]  # max 70 < min 100
        cell = compare.verdict(noisy, change, 0.1, "lower")
        self.assertEqual(cell["verdict"], "improved")

    def test_wide_spread_and_every_change_run_worse_is_regressed(self):
        noisy = [100, 140, 110, 130, 120, 105, 135, 115, 125, 120]
        change = [v * 2 for v in noisy]  # min 200 > max 140
        self.assertEqual(compare.verdict(noisy, change, 0.1, "lower")["verdict"], "regressed")

    def test_improved_needs_nine_tenths_of_pairs(self):
        change = [v * 0.95 for v in self.parent]
        cell = compare.verdict(self.parent, change, 0.1, "lower")
        self.assertEqual(cell["wins"], 1.0)
        self.assertEqual(cell["verdict"], "improved")
        # Two of ten pairs lost: 0.8 < 0.9, so no gain is claimed.
        mixed = change[:8] + [self.parent[8] * 1.01, self.parent[9] * 1.01]
        cell = compare.verdict(self.parent, mixed, 0.1, "lower")
        self.assertEqual(cell["wins"], 0.8)
        self.assertEqual(cell["verdict"], "pass")

    def test_improved_needs_ten_pairs(self):
        change = [v * 0.95 for v in self.parent]
        cell = compare.verdict(self.parent[:9], change[:9], 0.1, "lower")
        self.assertEqual(cell["wins"], 1.0)
        self.assertEqual(cell["verdict"], "pass")

    def test_improved_needs_a_difference_beyond_the_parent_spread(self):
        change = [v - 0.5 for v in self.parent]  # wins every pair, tiny shift
        cell = compare.verdict(self.parent, change, 0.1, "lower")
        self.assertEqual(cell["wins"], 1.0)
        self.assertEqual(cell["verdict"], "pass")

    def test_ties_count_for_neither_side(self):
        self.assertEqual(compare.win_fraction([1, 2, 3], [1, 1, 4], "lower"), 1 / 3)


class CompareSets(unittest.TestCase):
    def test_rows_and_failure_share(self):
        parent = [result_set(10, 1000), result_set(10.2, 990)]
        change = [result_set(12, 1000, failed=1), result_set(12.1, 995)]
        rows, failures = compare.compare(BENCH, parent, change)
        verdicts = {(w, m): cell["verdict"] for w, m, cell in rows}
        self.assertEqual(verdicts[("light", "latency_p50_us")], "regressed")
        self.assertEqual(verdicts[("light", "sat_ops_s")], "pass")
        self.assertEqual(failures["light"], (0.0, 1 / 2000))

    def test_main_exit_status(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, data in (("bench", BENCH), ("p", result_set(10, 1000)),
                               ("same", result_set(10.1, 1005)),
                               ("slow", result_set(20, 1000))):
                paths[name] = Path(tmp) / f"{name}.json"
                paths[name].write_text(json.dumps(data))
            args = ["--bench", str(paths["bench"]), "--parent", str(paths["p"])]
            with open(Path(tmp) / "out.txt", "w") as out:
                stdout, sys.stdout = sys.stdout, out
                try:
                    same = compare.main(args + ["--change", str(paths["same"])])
                    slow = compare.main(args + ["--change", str(paths["slow"])])
                finally:
                    sys.stdout = stdout
            self.assertEqual(same, 0)
            self.assertEqual(slow, 1)


if __name__ == "__main__":
    unittest.main()
