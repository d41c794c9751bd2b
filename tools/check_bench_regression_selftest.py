#!/usr/bin/env python3
"""Self-test of tools/check_bench_regression.py on crafted result pairs.

    python3 tools/check_bench_regression_selftest.py

Each case writes a baseline and a fresh JSON file to a temporary directory,
runs the checker on them and checks its exit code and output:
  - a metric key missing on either side fails;
  - keys containing "p99" get --p99-tolerance, other keys --tolerance;
  - --skip-if-key fires on either side and prints "SKIPPED:";
  - --require still runs, and fails, before a skip.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_bench_regression.py")


def check(baseline, fresh, *flags):
    """Runs the checker; returns (exit code, stdout)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in (("baseline", baseline), ("fresh", fresh)):
            paths[name] = os.path.join(tmp, name + ".json")
            with open(paths[name], "w") as f:
                json.dump(doc, f)
        result = subprocess.run(
            [sys.executable, CHECKER, "--baseline", paths["baseline"],
             "--fresh", paths["fresh"], "--ratios-only", *flags],
            capture_output=True, text=True)
        return result.returncode, result.stdout


class CheckBenchRegressionTest(unittest.TestCase):
    def test_equal_files_pass(self):
        doc = {"configs": [{"dims": 2, "speedup_p50": 2.0}]}
        code, out = check(doc, doc)
        self.assertEqual(code, 0, out)
        self.assertIn("OK: 1 metric(s)", out)

    def test_key_missing_in_fresh_fails(self):
        code, out = check({"speedup_a": 2.0, "speedup_b": 2.0},
                          {"speedup_a": 2.0})
        self.assertEqual(code, 1, out)
        self.assertIn("speedup_b: present in baseline, missing in fresh", out)

    def test_key_missing_in_baseline_fails(self):
        code, out = check({"speedup_a": 2.0},
                          {"speedup_a": 2.0, "ratio_b": 1.0})
        self.assertEqual(code, 1, out)
        self.assertIn("ratio_b: present in fresh, missing in baseline", out)

    def test_p99_keys_get_the_p99_tolerance(self):
        base = {"speedup_p50": 2.0, "speedup_p99": 2.0}
        # p99 at half the baseline: inside a 0.6 band, outside a 0.4 one.
        fresh = {"speedup_p50": 1.9, "speedup_p99": 1.0}
        code, out = check(base, fresh, "--tolerance", "0.1",
                          "--p99-tolerance", "0.6")
        self.assertEqual(code, 0, out)
        code, out = check(base, fresh, "--tolerance", "0.1",
                          "--p99-tolerance", "0.4")
        self.assertEqual(code, 1, out)
        self.assertIn("speedup_p99: 1.000 < 2.000", out)
        # Without --p99-tolerance the p99 key gets --tolerance.
        code, out = check(base, fresh, "--tolerance", "0.1")
        self.assertEqual(code, 1, out)
        self.assertIn("speedup_p99", out)

    def test_other_keys_do_not_get_the_p99_tolerance(self):
        code, out = check({"speedup_p50": 2.0}, {"speedup_p50": 1.0},
                          "--tolerance", "0.1", "--p99-tolerance", "0.6")
        self.assertEqual(code, 1, out)
        self.assertIn("speedup_p50: 1.000 < 2.000", out)

    def test_skip_if_key_fires_on_either_side(self):
        regressed = {"speedup_a": 0.1}
        skipped = {"speedup_a": 2.0, "gate_skipped": True}
        for base, fresh, side in ((skipped, regressed, "baseline"),
                                  (regressed, skipped, "fresh")):
            code, out = check(base, fresh, "--skip-if-key", "gate_skipped")
            self.assertEqual(code, 0, out)
            self.assertTrue(out.startswith("SKIPPED:"), out)
            self.assertIn(side, out)

    def test_require_runs_before_a_skip(self):
        fresh = {"speedup_a": 2.0, "gate_skipped": True}
        code, out = check(fresh, fresh, "--skip-if-key", "gate_skipped",
                          "--require", "ops_per_sec")
        self.assertEqual(code, 1, out)
        self.assertIn("--require ops_per_sec", out)
        self.assertNotIn("SKIPPED", out)
        code, out = check(fresh, fresh, "--skip-if-key", "gate_skipped",
                          "--require", "speedup_a")
        self.assertEqual(code, 0, out)
        self.assertIn("SKIPPED:", out)


if __name__ == "__main__":
    unittest.main()
