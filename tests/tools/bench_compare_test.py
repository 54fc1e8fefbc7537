#!/usr/bin/env python3
"""Tests for tools/bench_compare.py, the CI perf-regression gate.

Each case writes a baseline directory and a result directory holding one
BENCH_<name>.json each, runs the gate on them, and checks its exit status
and the reason it prints.

Run: python3 tests/tools/bench_compare_test.py
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

GATE = pathlib.Path(__file__).resolve().parents[2] / "tools" / "bench_compare.py"


def convergence_row(**fields):
    row = {"class": "cold", "n": 16, "scheduler": "rounds", "ok": True,
           "rounds": 10, "msgs_per_round": 1000, "rounds_per_sec": 500.0}
    row.update(fields)
    return row


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        root = pathlib.Path(self.tmp.name)
        self.baseline_dir = root / "baselines"
        self.result_dir = root / "results"
        self.baseline_dir.mkdir()
        self.result_dir.mkdir()

    def tearDown(self):
        self.tmp.cleanup()

    def gate(self, base_rows, got_rows):
        """Runs the gate on one series; returns (exit status, stderr)."""
        for directory, rows in ((self.baseline_dir, base_rows),
                                (self.result_dir, got_rows)):
            doc = {"bench": "convergence", "convergence": rows}
            (directory / "BENCH_convergence.json").write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, str(GATE), "--baseline-dir", str(self.baseline_dir),
             "--result-dir", str(self.result_dir)],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stderr

    def assert_fails(self, base_rows, got_rows, reason):
        status, stderr = self.gate(base_rows, got_rows)
        self.assertEqual(status, 1, stderr)
        self.assertIn(reason, stderr)

    def test_identical_results_pass(self):
        status, stderr = self.gate([convergence_row()], [convergence_row()])
        self.assertEqual(status, 0, stderr)

    def test_row_that_did_not_converge_fails(self):
        # A DNF row reports rounds = 0, which alone reads as an improvement.
        self.assert_fails([convergence_row()],
                          [convergence_row(ok=False, rounds=0)], "ok is false")

    def test_lower_is_better_regression_fails(self):
        self.assert_fails([convergence_row(rounds=10)],
                          [convergence_row(rounds=12)], "rounds regressed")

    def test_drift_up_fails(self):
        self.assert_fails([convergence_row(msgs_per_round=1000)],
                          [convergence_row(msgs_per_round=1200)],
                          "msgs_per_round drifted")

    def test_drift_down_fails(self):
        self.assert_fails([convergence_row(msgs_per_round=1000)],
                          [convergence_row(msgs_per_round=800)],
                          "msgs_per_round drifted")

    def test_missing_row_fails(self):
        self.assert_fails([convergence_row(n=16), convergence_row(n=64)],
                          [convergence_row(n=16)], "row missing from results")

    def test_missing_metric_fails(self):
        got = convergence_row()
        del got["rounds"]
        self.assert_fails([convergence_row()], [got],
                          "metric 'rounds' missing from results")

    def test_improvement_passes(self):
        status, stderr = self.gate(
            [convergence_row(rounds=10, rounds_per_sec=500.0)],
            [convergence_row(rounds=7, rounds_per_sec=900.0)])
        self.assertEqual(status, 0, stderr)


if __name__ == "__main__":
    unittest.main()
