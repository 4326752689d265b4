#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py with short runs (--seconds 3) from the
root of the checkout. The first test builds the benchmark if needed.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload, seed=1, trace=0, extra=(), cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "3", "--trace", str(trace), *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    def test_every_workload_reports_every_end_to_end_metric(self):
        names = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        for workload in BENCHMARK["workloads"]:
            proc = run(workload["name"])
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = result_of(proc)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, names)
            for name, metric in result["metrics"].items():
                self.assertNotEqual(metric["value"], 0, name)
            self.assertIn("prediction digest:", proc.stdout)
            self.assertIn('"build_type": "Release"', proc.stdout)

    def test_traced_run_reports_every_per_layer_metric_and_valid_traces(self):
        names = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        for workload in BENCHMARK["workloads"]:
            proc = run(workload["name"], trace=1)
            self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr)
            result = result_of(proc)
            self.assertTrue(result["correct"])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, names)
            self.assertEqual(proc.stdout.count("check_trace: OK"), 2)

    def test_wrong_replay_seed_fails_the_run(self):
        for workload in ("serve-mlp", "cascade-ood"):
            proc = run(workload, extra=("--replay-seed-offset", "1"))
            self.assertEqual(proc.returncode, 1)
            result = result_of(proc)
            self.assertFalse(result["correct"])
            self.assertGreater(result["failed"], 0)
            self.assertIn("differ from the offline replay", proc.stdout)

    def test_table1_cnn_trains_and_evaluates_identically_across_runs(self):
        outcomes = set()
        for seed in (1, 2):
            proc = run("table1-cnn", seed=seed)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            digest = re.search(r"weight digest: (\w+)", proc.stdout).group(1)
            evaluation = re.search(r"eval: accuracy (\S+)\s+ece (\S+)", proc.stdout).groups()
            outcomes.add((digest, evaluation))
        self.assertEqual(len(outcomes), 1, outcomes)

    def test_same_seed_gives_the_same_prediction_digest(self):
        digests = set()
        for _ in range(2):
            proc = run("cascade-ood", seed=7)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            digests.add(re.search(r"prediction digest: (\w+)", proc.stdout).group(1))
        self.assertEqual(len(digests), 1, digests)

    def test_refuses_to_run_without_the_repository_sources(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "serve-mlp", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
