#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_run.py

The self-test runs every workload of BENCHMARK.json at tiny scale in both
trace modes with every correctness check active, and fails unless the
emitted workload and metric names match BENCHMARK.json.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


class BenchmarkSpecTest(unittest.TestCase):
    def test_spec_keys_and_bounds(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(spec), ["command", "end_to_end", "paths",
                                        "per_layer", "run_seconds", "workloads"])
        self.assertEqual(spec["paths"], ["perfbench"])
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


class SelfTest(unittest.TestCase):
    def test_tiny_scale_runs_every_workload(self):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--self-test"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])


if __name__ == "__main__":
    unittest.main()
