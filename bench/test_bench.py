"""Smoke test of the benchmark at tiny d, so that it cannot rot.

    python3 -m pytest bench/test_bench.py      (or: python3 bench/test_bench.py)

It runs the benchmark's own machinery (fresh processes, correctness gates,
tracing) on the small variants in ``run.SMOKE_WORKLOADS``.  It is not part
of the repository's tier-1 test run.
"""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402

SMOKE = list(run.SMOKE_WORKLOADS.values())


def load_digests() -> dict:
    with open(run.DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def quiet_run(workloads, trace):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run.run(workloads, seed=5, seconds=0, trace=trace, single=False)


class BenchSmokeTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=run.ROOT)
        self.addCleanup(shutil.rmtree, self.tmp, True)

    def test_end_to_end_metrics_and_gate(self):
        result = quiet_run(SMOKE, trace=False)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["attempted"], sum(w.units for w in SMOKE))
        for w in SMOKE:
            for metric in ("wall_s", "setup_s", "work_per_s", "peak_rss_mb"):
                self.assertGreater(result["metrics"][f"{w.name}.{metric}"]["value"], 0)

    def test_traced_run_emits_every_layer_metric(self):
        result = quiet_run(SMOKE, trace=True)
        self.assertTrue(result["correct"])
        for w in SMOKE:
            for metric in [*tracing.LAYER_METRICS, "trace.overhead_s"]:
                self.assertIn(f"{w.name}.{metric}", result["metrics"])
        self.assertGreater(result["metrics"]["verify-d2.oracle.matrix_mul.entry_products"]["value"], 0)
        self.assertEqual(result["metrics"]["verify-d2.suites.checks"]["value"], 452)

    def test_counts_repeat_across_hash_seeds(self):
        digests = load_digests()
        for w in SMOKE:
            stats = run.Stats(w)
            for hashseed in (1, 2):
                run.run_sample(stats, 0, 7, self.tmp, digests, float("inf"), True, hashseed)
            self.assertEqual(stats.errors, [])
            first, second = (tracing.count_signature(s) for s in stats.snapshots)
            self.assertEqual(first, second, w.name)
            self.assertEqual(tracing.missing_spans(stats.snapshots[0], w.kind), [])

    def test_wall_times_are_scaled_by_the_calibration(self):
        stats = run.Stats(SMOKE[0])
        # A host at half the reference speed: scaled times are halved.
        with mock.patch.object(run, "calibrate", return_value=2 * run.CALIBRATION_REF_S):
            cal = run.run_sample(stats, 0, 7, self.tmp, load_digests(), float("inf"))
        self.assertEqual(cal, 2 * run.CALIBRATION_REF_S)
        self.assertAlmostEqual(stats.walls[0], stats.raw_walls[0] / 2)

    def test_gate_rejects_wrong_outputs(self):
        digests = load_digests()
        digests["table"] = {d: "0" * 64 for d in digests["table"]}
        digests["ops"] = {k: "0" * 64 for k in digests["ops"]}
        for w in SMOKE:
            if w.kind == "verify":
                w = dataclasses.replace(w, checks=w.checks + 1)
            stats = run.Stats(w)
            run.run_sample(stats, 0, 7, self.tmp, digests, float("inf"))
            self.assertGreater(stats.failed, 0, w.name)

    def test_fails_without_the_program(self):
        bare = os.path.join(self.tmp, "bare")
        shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "table-d8", "--seed", "1",
             "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
