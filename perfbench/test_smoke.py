#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 perfbench/test_smoke.py

Runs perfbench/run.py --tiny for every workload of BENCHMARK.json, untraced
and traced, and asserts that every check passed, that the result line holds
exactly the metrics BENCHMARK.json names with their units, and that each of
them is also printed once, by name and unit, in the human-readable lines.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SmokeTest(unittest.TestCase):
    spec = load_spec()

    def run_workload(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", "7", "--seconds", "1",
             "--trace", str(trace), "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        return lines[:-1], json.loads(lines[-1])

    def check(self, workload, trace):
        metrics = self.spec["per_layer" if trace else "end_to_end"]
        human, result = self.run_workload(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], human)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in metrics}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, unit in expected.items():
            printed = [l for l in human
                       if l.split()[1:2] == [name] and l.split()[-1] == unit]
            self.assertEqual(len(printed), 1, "%s %s printed %d times"
                             % (name, unit, len(printed)))
            self.assertIsInstance(result["metrics"][name]["value"],
                                  (int, float))

    def test_workloads(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


if __name__ == "__main__":
    unittest.main()
