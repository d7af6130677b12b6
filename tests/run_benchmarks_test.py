#!/usr/bin/env python3
"""Tests for tools/run_benchmarks.py: its statistics, its gate and the
committed BENCH_*.json files. No build, daemon or network: every number
is fixed or read from the repository.

    python3 tests/run_benchmarks_test.py
"""

import contextlib
import copy
import glob
import importlib.util
import io
import json
import os
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "run_benchmarks", os.path.join(ROOT, "tools", "run_benchmarks.py"))
rb = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rb)

SPEC = rb.load_spec()
WORKLOAD = SPEC["workloads"][0]["name"]


def summary(median, band=0.0):
    """A summary with this median and band (quartiles around it)."""
    half = band * median / 2
    return {"runs": [median], "median": median, "q1": median - half,
            "q3": median + half, "band": band}


def result(metrics):
    return {"metrics": {name: summary(*value) if isinstance(value, tuple)
                        else summary(value)
                        for name, value in metrics.items()}}


def gate(name, base, fresh, spec=SPEC):
    """report()'s exit status and printed table for one bench."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = rb.report({name: result(fresh)}, {name: result(base)},
                           spec)
    return status, out.getvalue()


class SummarizeTest(unittest.TestCase):
    def test_odd_runs(self):
        got = rb.summarize([5.0, 1.0, 4.0, 2.0, 3.0], "ms")
        self.assertEqual(got["median"], 3.0)
        self.assertEqual((got["q1"], got["q3"]), (2.0, 4.0))
        self.assertAlmostEqual(got["band"], 2.0 / 3.0)
        self.assertEqual(got["unit"], "ms")
        self.assertEqual(got["runs"], [5.0, 1.0, 4.0, 2.0, 3.0])

    def test_even_runs_interpolate(self):
        got = rb.summarize([4.0, 1.0, 3.0, 2.0])
        self.assertEqual((got["q1"], got["median"], got["q3"]),
                         (1.75, 2.5, 3.25))
        self.assertAlmostEqual(got["band"], 0.6)
        self.assertNotIn("unit", got)

    def test_one_run_has_no_spread(self):
        got = rb.summarize([7.0])
        self.assertEqual((got["q1"], got["median"], got["q3"],
                          got["band"]), (7.0, 7.0, 7.0, 0.0))

    def test_zero_median_has_zero_band(self):
        self.assertEqual(rb.summarize([0.0, 0.0, 0.0])["band"], 0.0)


class GateTest(unittest.TestCase):
    def test_inside_the_bound_passes(self):
        status, table = gate(WORKLOAD, {"p50_ms": 1.0, "docs_per_s": 100.0},
                             {"p50_ms": 1.2, "docs_per_s": 80.0})
        self.assertEqual(status, 0)
        self.assertIn("ok (bound 25%)", table)
        self.assertIn("+20.0%", table)

    def test_lower_is_better_metric_outside_the_bound_fails(self):
        status, table = gate(WORKLOAD, {"p50_ms": 1.0}, {"p50_ms": 1.3})
        self.assertEqual(status, 1)
        self.assertIn("REGRESSED", table)
        # The same move the other way is an improvement.
        self.assertEqual(gate(WORKLOAD, {"p50_ms": 1.3},
                              {"p50_ms": 1.0})[0], 0)

    def test_higher_is_better_metric_outside_the_bound_fails(self):
        self.assertEqual(gate(WORKLOAD, {"docs_per_s": 100.0},
                              {"docs_per_s": 70.0})[0], 1)
        self.assertEqual(gate(WORKLOAD, {"docs_per_s": 100.0},
                              {"docs_per_s": 130.0})[0], 0)

    def test_success_ratio_bound_comes_from_the_benchmark(self):
        rule = next(metric for metric in SPEC["end_to_end"]
                    if metric["name"] == "success_ratio")
        self.assertEqual(rule["bound"], 0.01)
        self.assertEqual(gate(WORKLOAD, {"success_ratio": 1.0},
                              {"success_ratio": 0.995})[0], 0)
        self.assertEqual(gate(WORKLOAD, {"success_ratio": 1.0},
                              {"success_ratio": 0.985})[0], 1)
        looser = copy.deepcopy(SPEC)
        for metric in looser["end_to_end"]:
            if metric["name"] == "success_ratio":
                metric["bound"] = 0.05
        self.assertEqual(gate(WORKLOAD, {"success_ratio": 1.0},
                              {"success_ratio": 0.985}, looser)[0], 0)

    def test_spread_wider_than_the_bound_is_unresolved(self):
        status, table = gate(WORKLOAD, {"p99_ms": 1.0},
                             {"p99_ms": (2.0, 0.4)})
        self.assertEqual(status, 0)
        self.assertIn("unresolved", table)
        self.assertNotIn("REGRESSED", table)

    def test_every_workload_is_gated(self):
        for workload in SPEC["workloads"]:
            self.assertEqual(gate(workload["name"], {"rss_mb": 10.0},
                                  {"rss_mb": 20.0})[0], 1)

    def test_worse_kernels_store_and_layers_never_fail(self):
        self.assertEqual(gate("kernels", {"BM_Agglomerate/150": 100.0},
                              {"BM_Agglomerate/150": 1000.0})[0], 0)
        self.assertEqual(gate("store_replay", {"p50_ms": 1.0},
                              {"p50_ms": 10.0})[0], 0)
        fresh = result({"p50_ms": 1.0})
        fresh["layers"] = {"som.train_ms_share": 0.9}
        base = result({"p50_ms": 1.0})
        base["layers"] = {"som.train_ms_share": 0.1}
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(rb.report({WORKLOAD: fresh},
                                       {WORKLOAD: base}, SPEC), 0)

    def test_a_metric_without_baseline_is_new(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = rb.report({WORKLOAD: result({"p50_ms": 9.0})},
                               {WORKLOAD: None}, SPEC)
        self.assertEqual(status, 0)
        self.assertIn("new", out.getvalue())


class CommittedBaselineTest(unittest.TestCase):
    def check_summary(self, name, got):
        self.assertIsInstance(got["runs"], list, name)
        self.assertTrue(got["runs"], name)
        expected = rb.summarize(got["runs"], got.get("unit"))
        for key in ("median", "q1", "q3", "band"):
            self.assertAlmostEqual(got[key], expected[key], msg=name)
        self.assertEqual(set(got), set(expected), name)

    def test_every_committed_file_has_the_harness_schema(self):
        workloads = [workload["name"] for workload in SPEC["workloads"]]
        paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
        self.assertTrue(paths)
        for path in paths:
            with open(path) as stream:
                doc = json.load(stream)
            name = os.path.basename(path)[len("BENCH_"):-len(".json")]
            self.assertIn(name, workloads + ["kernels", "store_replay"])
            self.assertEqual(doc["bench"], name)
            meta = doc["meta"]
            for key in ("git_revision", "build_type", "cpu_affinity",
                        "recorded_at"):
                self.assertIn(key, meta, path)
            self.assertTrue(doc["metrics"], path)
            for metric, got in doc["metrics"].items():
                self.check_summary("%s %s" % (name, metric), got)
                self.assertEqual(len(got["runs"]), meta["repeats"])
            if name in workloads:
                self.assertEqual(meta["seeds"],
                                 list(range(1, meta["repeats"] + 1)))
                self.assertEqual(set(doc["metrics"]),
                                 {metric["name"]
                                  for metric in SPEC["end_to_end"]})
                for metric in SPEC["end_to_end"]:
                    self.assertEqual(doc["metrics"][metric["name"]]["unit"],
                                     metric["unit"])
                self.assertTrue(doc["layers"], path)
                for layer, value in doc["layers"].items():
                    self.assertIsInstance(value, (int, float), layer)


if __name__ == "__main__":
    unittest.main()
