"""Tests of the benchmark's own statistics and report assembly.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import argparse
import json
import statistics
import tempfile
import unittest
from pathlib import Path

import run
import stats

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())


class SummarizeTest(unittest.TestCase):
    def test_odd_count_median_and_quartiles(self):
        s = stats.summarize([5, 1, 4, 2, 3])
        self.assertEqual(s["median"], 3)
        self.assertEqual((s["q1"], s["q3"]), (1.5, 4.5))
        self.assertEqual(s["n"], 5)

    def test_even_count_matches_statistics_quantiles(self):
        values = [3.2, 1.0, 9.5, 4.4, 7.1, 2.2, 8.0, 5.5, 6.3, 0.7]
        s = stats.summarize(values)
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual((s["q1"], s["median"], s["q3"]), (q1, q2, q3))
        self.assertEqual(s["median"], (4.4 + 5.5) / 2)

    def test_single_sample_has_degenerate_quartiles(self):
        self.assertEqual(stats.summarize([2.5]),
                         {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1})

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.summarize([])

    def test_median_is_not_best_of_n(self):
        self.assertEqual(stats.summarize([1.0, 10.0, 2.0])["median"], 2.0)


class TailPercentileTest(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 99.0), 10)
        self.assertEqual(stats.samples_beyond(999, 99.0), 9)
        self.assertEqual(stats.samples_beyond(200, 95.0), 10)
        self.assertEqual(stats.samples_beyond(20, 50.0), 10)

    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(5000), 99.0)

    def test_falls_back_to_highest_supported(self):
        self.assertEqual(stats.tail_percentile(999), 98.0)
        self.assertEqual(stats.tail_percentile(499), 95.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(199), 90.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)

    def test_too_few_samples_for_any_percentile(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertIsNone(stats.tail_percentile(0))


class FailFracTest(unittest.TestCase):
    def test_ratio_of_failed_to_attempted(self):
        self.assertEqual(stats.fail_frac(100, 0), 0.0)
        self.assertEqual(stats.fail_frac(200, 5), 0.025)
        self.assertEqual(stats.fail_frac(7, 7), 1.0)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (10, 11), (10, -1)):
            with self.assertRaises(ValueError):
                stats.fail_frac(attempted, failed)


DRIVER_LINES = [
    "sample setup_s 0.003 1", "sample setup_s 0.001 1",
    "sample setup_s 0.002 1",
    "sample mpps 4.0 100", "sample mpps 3.0 100", "sample mpps 5.0 100",
    "sample mpps 4.5 100", "sample peak_rss_mb 12.5 1",
    "check rt.in_order 1", "ops 1000 0",
]


def report(*extra):
    return run.parse(DRIVER_LINES + list(extra))


class ParseTest(unittest.TestCase):
    def test_checks_aggregate_and_keep_the_first_failure(self):
        rep = report("check rt.in_order 0 run1: EngineResult::in_order",
                     "check rt.in_order 0 run2: EngineResult::in_order",
                     "check rt.in_order 1")
        self.assertEqual(rep["checks"]["rt.in_order"],
                         {"passed": 2, "failed": 2,
                          "first_failure": "run1: EngineResult::in_order"})

    def test_operations_add_up(self):
        rep = report("ops 500 3", "ops 24 24")
        self.assertEqual((rep["attempted"], rep["failed"]), (1524, 27))

    def test_unknown_record_is_an_error(self):
        with self.assertRaises(ValueError):
            run.parse(["result 1"])


class ReportAssemblyTest(unittest.TestCase):
    def test_end_to_end_reports_medians_of_every_metric(self):
        out = run.end_to_end(report(), SPEC)
        self.assertEqual(set(out), {m["name"] for m in SPEC["end_to_end"]})
        self.assertEqual(out["mpps"][0]["median"], 4.25)
        self.assertEqual(out["mpps"][0]["n"], 4)
        self.assertEqual(out["setup_s"][0]["median"], 0.002)
        self.assertEqual(out["peak_rss_mb"][0]["median"], 12.5)

    def test_per_layer_takes_medians_and_sums_operations(self):
        rep = report("sample nf.apply_ns 12.5 64", "sample nf.apply_ns 30 64",
                     "sample nf.apply_ns 11 64")
        out = run.per_layer(rep, SPEC)
        self.assertEqual(set(out), {m["name"] for m in SPEC["per_layer"]})
        self.assertEqual(out["nf.apply_ns"][0], (12.5, 192))

    def test_per_layer_zeroes_absent_layers(self):
        out = run.per_layer(report(), SPEC)
        self.assertEqual(out["rt.worker.busy_frac"][0], (0.0, 0))
        self.assertEqual(out["fail_frac"][0], (0.0, 1000))

    def test_mouse_tail_falls_back_and_says_which(self):
        ladder = [(50, 700.0), (75, 850.0), (90, 950.0), (95, 990.0),
                  (98, 1007.0), (99, 1024.0)]
        rep = report(*(f"mouse_latency_us {q} {v} 999" for q, v in ladder))
        out = run.per_layer(rep, SPEC)
        self.assertEqual(out["des.sim.mouse_p50_us"][0], (700.0, 999))
        self.assertEqual(out["des.sim.mouse_p99_us"][0], (1007.0, 999))
        self.assertEqual(out["des.sim.mouse_tail_pct"][0], (98.0, 999))

    def test_fail_frac_counts_failed_operations(self):
        out = run.per_layer(report("ops 600 4"), SPEC)
        self.assertEqual(out["fail_frac"][0], (0.0025, 1600))


class HungDriverTest(unittest.TestCase):
    def test_a_driver_past_its_limit_is_a_failed_operation(self):
        with tempfile.TemporaryDirectory() as tmp:
            driver = Path(tmp) / "driver"
            driver.write_text("#!/bin/sh\necho 'ops 64 0'\n"
                              "echo 'check rt.in_order 1'\nexec sleep 30\n")
            driver.chmod(0o755)
            args = argparse.Namespace(workload="rt-churn-lock", seed=1,
                                      seconds=1, trace=0)
            saved = run.DRIVER_DEADLINE_S
            run.DRIVER_DEADLINE_S = 1
            try:
                rep = run.run_driver(driver, args)
            finally:
                run.DRIVER_DEADLINE_S = saved
        self.assertEqual((rep["attempted"], rep["failed"]), (65, 1))
        self.assertEqual(rep["checks"]["rt.in_order"]["passed"], 1)
        self.assertEqual(rep["checks"]["run_finished"]["failed"], 1)


class SpecTest(unittest.TestCase):
    def test_every_computed_metric_is_declared(self):
        declared = {m["name"] for m in SPEC["per_layer"]}
        for name in ("des.sim.mouse_p50_us", "des.sim.mouse_p99_us",
                     "des.sim.mouse_tail_pct", "fail_frac"):
            self.assertIn(name, declared)

    def test_workloads_match_the_runner(self):
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]),
                         run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
