"""Unit tests for the benchmark runner's helpers.

Run from the checkout root:  python3 -m unittest campaignbench/test_run.py
(the C++ side has its own test: campaign_bench_test, see README.md).
"""

import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def rep(**kw):
    r = {"attempted": 100, "records": 100, "digest": "aa", "rules_hash": "00",
         "decoded_ok": True, "dropped": 0}
    r.update(kw)
    return r


ORACLE = {"records": 100, "digest": "aa", "rules_hash": "00"}


class MetricNames(unittest.TestCase):
    def test_runner_names_and_units_are_valid(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, unit in table.items():
                self.assertRegex(name, run.NAME_RE)
                self.assertRegex(unit, run.UNIT_RE)

    def test_benchmark_json_matches_runner(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(
            set(spec), {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"})
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        for m in spec["end_to_end"] + spec["per_layer"]:
            table = run.END_TO_END if "bound" in m else run.PER_LAYER
            self.assertEqual(m["unit"], table[m["name"]])
            self.assertIn(m["better"], ("higher", "lower"))
        for m in spec["end_to_end"]:
            self.assertTrue(0 < m["bound"] <= 0.25)
        # train_2shard is run by hand only (see README.md).
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         [w for w in run.WORKLOADS if w != "train_2shard"])
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))

    def test_invalid_names_are_rejected(self):
        for bad in ("_x", ".x", "a b", "x" * 65, ""):
            self.assertIsNone(run.NAME_RE.match(bad))


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(run.median([5.0]), 5.0)
        with self.assertRaises(ValueError):
            run.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [9.0, 1.0, 4.0, 7.0, 3.0, 8.0, 2.0, 6.0, 5.0, 10.0]
        q1, q2, q3 = run.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, run.median(values))
        self.assertLessEqual(q1, q2)
        self.assertLessEqual(q2, q3)

    def test_quartiles_of_one_value(self):
        self.assertEqual(run.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_spread_line_reports_noise_floor(self):
        line = run.spread_line("x", "s", [1.0, 2.0, 3.0, 4.0, 5.0])
        q1, _, q3 = run.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertIn("n=5", line)
        self.assertIn(f"noise_floor {q3 - q1:.3g} s", line)


class FailedCount(unittest.TestCase):
    def test_matching_rep_has_no_failures(self):
        self.assertEqual(run.rep_failed(rep(), ORACLE), 0)

    def test_dropped_frames_count(self):
        self.assertEqual(run.rep_failed(rep(dropped=3), ORACLE), 3)

    def test_missing_records_count(self):
        self.assertEqual(run.rep_failed(rep(records=97), ORACLE), 3)

    def test_digest_mismatch_fails_every_injection(self):
        self.assertEqual(run.rep_failed(rep(digest="bb"), ORACLE), 100)

    def test_rules_mismatch_fails_every_injection(self):
        self.assertEqual(run.rep_failed(rep(rules_hash="11"), ORACLE), 100)

    def test_undecodable_stream_fails_every_injection(self):
        self.assertEqual(run.rep_failed(rep(decoded_ok=False), ORACLE), 100)

    def test_failures_are_capped_at_attempted(self):
        self.assertEqual(run.rep_failed(rep(dropped=500), ORACLE), 100)

    def test_known_answers(self):
        table = {"seed": 7, "w": {"digest": "aa", "rules_hash": "00",
                                  "records": 100}}
        self.assertTrue(run.known_answer_ok("w", 7, ORACLE, table))
        self.assertTrue(run.known_answer_ok("w", 8, dict(ORACLE, digest="bb"),
                                            table))
        self.assertFalse(run.known_answer_ok("w", 7, dict(ORACLE, digest="bb"),
                                             table))
        self.assertTrue(run.known_answer_ok("other", 7, ORACLE, table))


class Metrics(unittest.TestCase):
    def test_end_to_end_values(self):
        reps = [dict(rep(), campaign_s=2.0, effective=150.0, cpu_s=0.5,
                     setup_s=0.1, total_s=2.3)]
        vals = run.end_to_end_values(reps, 12.5)
        self.assertEqual(set(vals), set(run.END_TO_END))
        self.assertEqual(vals["injections_per_s"], [50.0])
        self.assertEqual(vals["effective_injections_per_s"], [75.0])
        self.assertEqual(vals["cpu_us_per_injection"], [5000.0])
        self.assertEqual(vals["peak_rss_mb"], [12.5])

    def test_trace_overhead(self):
        untraced = [dict(records=100, campaign_s=1.0)]
        traced = [dict({n: 1.0 for n in run.PER_LAYER},
                       traced_injections_per_s=90.0)]
        vals = run.per_layer_values(untraced, traced)
        self.assertEqual(set(vals), set(run.PER_LAYER))
        self.assertAlmostEqual(vals["trace.overhead_frac"][0], 0.1)


if __name__ == "__main__":
    unittest.main()
