#!/usr/bin/env python3
"""The benchmark's own tests, at smoke sizes (under a minute once built).

    python3 perfbench/test_perfbench.py [-v]

Run from the root of a pagen checkout. Checks that every workload prints
every metric BENCHMARK.json names, with its unit, and passes its output
checks; that a deliberately wrong expected value makes each output check
report a failed operation; that the traced run writes a span file whose
span names match the per-layer metric names; and that the benchmark exits
non-zero without a result when the checkout holds nothing to build.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

# Output checks each workload makes, by run kind, and so can be broken.
CHECKS = {
    "massive-x1": {
        0: ["degree_histogram", "edge_count", "bytes_per_edge", "rss_budget"],
        1: ["trace_store_checksums", "decode_count", "rng_draw_range",
            "rng_coin_share"],
    },
    "paper-x6": {
        0: ["edge_count", "degree_sum", "gamma_range", "one_component",
            "distinct_older_targets", "no_self_loops"],
        1: ["rng_draw_range", "rng_coin_share"],
    },
    "svc-closed": {
        0: ["preseal_accepted", "preseal_completed", "job_completed",
            "job_served_as_expected", "store_job_edges", "job_hash",
            "store_hits_exact", "cache_hits_exact", "no_failed_jobs",
            "analyzed_edges"],
        1: ["decode_count", "rng_draw_range", "rng_coin_share"],
    },
}

# Spans each traced workload must record.
SPANS = {
    "massive-x1": {"engine.generate", "sink", "store.write", "store.seal",
                   "store.open", "store.decode", "kernel.degree",
                   "source.visit", "analysis.fit", "rng.draw"},
    "paper-x6": {"engine.generate", "sink", "kernel.degree", "kernel.cc",
                 "analysis.fit", "rng.draw"},
    "svc-closed": {"svc.job", "svc.submit", "svc.wait", "store.open",
                   "store.decode", "kernel.degree", "analysis.fit",
                   "rng.draw"},
}


def run(workload, trace, *extra, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "0.1",
           "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


class Workloads(unittest.TestCase):
    def check_run(self, workload, trace):
        code, result, err = run(workload, trace)
        self.assertEqual(code, 0, err[-3000:])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        kind = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in BENCH[kind]}
        got = result["metrics"]
        self.assertEqual(set(got), set(want))
        for name, unit in want.items():
            self.assertEqual(got[name]["unit"], unit, name)
            if not trace:
                self.assertGreater(got[name]["value"], 0, name)
        return result

    def test_untraced(self):
        for workload in CHECKS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0)

    def test_traced_spans_match_metrics(self):
        metrics = [m["name"] for m in BENCH["per_layer"]]
        for workload, spans in SPANS.items():
            with self.subTest(workload=workload):
                self.check_run(workload, 1)
                path = os.path.join(BUILD_ROOT, "perfbench-traces",
                                    f"{workload}-seed3-trace1.json")
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                names = {e["name"] for e in events}
                self.assertTrue(spans <= names, spans - names)
                for e in events:
                    self.assertEqual(e["ph"], "X")
                    self.assertGreaterEqual(e["dur"], 0)
                # Every span but the grouping ones is the stem of a
                # per-layer metric (span store.write -> store.write_s).
                for name in names - {"source.visit", "kernel.visit",
                                     "svc.job", "svc.wait"}:
                    self.assertTrue(
                        any(m.startswith(name) for m in metrics), name)

    def test_wrong_expected_value_fails_each_check(self):
        for workload, kinds in CHECKS.items():
            for trace, checks in kinds.items():
                for check in checks:
                    with self.subTest(workload=workload, check=check):
                        code, result, err = run(workload, trace,
                                                "--wrong", check)
                        self.assertEqual(code, 1, err[-2000:])
                        self.assertFalse(result["correct"])
                        self.assertGreaterEqual(result["failed"], 1)
                        self.assertIn(f"CHECK FAILED {check}", err)


class BareCheckout(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        bare = os.path.join(BUILD_ROOT, "perfbench-test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, result, _ = run(
                "paper-x6", 0, cwd=bare,
                script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
