#!/usr/bin/env python3
"""The benchmark's own tests.

Run from anywhere:  python3 perfbench/test_perfbench.py

Every workload runs at test size (--small) for a fraction of a second:
the same seed must give the same digest and another seed another one,
the traced and untraced runs must give the same digest, every run must
pass its own checks, and every metric name must fit [A-Za-z0-9_.-]+.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as runner  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
with open(runner.ROOT / "BENCHMARK.json") as handle:
    BENCH = json.load(handle)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


class Run:
    """One small run's parsed output."""

    def __init__(self, workload, seed, trace):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
             "--small"],
            cwd=runner.ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            raise AssertionError(f"{workload} seed {seed} trace {trace} "
                                 f"failed:\n{done.stderr}")
        self.lines = done.stdout.splitlines()
        self.result = json.loads(self.lines[-1])
        self.digest = next(line.split()[2] for line in self.lines
                           if line.startswith("digest "))
        self.printed = [line.split()[1] for line in self.lines
                        if line.startswith("metric ")]


class PerfbenchTest(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        runner.build()

    def run_of(self, workload, seed=1, trace=0):
        key = (workload, seed, trace)
        if key not in self.runs:
            self.runs[key] = Run(workload, seed, trace)
        return self.runs[key]

    def test_metric_names_fit_the_pattern(self):
        declared = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        self.assertEqual(len(declared), len(set(declared)))
        for workload in WORKLOADS:
            for trace in (0, 1):
                for name in self.run_of(workload, trace=trace).printed:
                    self.assertRegex(name, NAME)
        for name in declared:
            self.assertTrue(NAME.fullmatch(name), name)

    def test_layer_map_covers_every_layer_metric(self):
        with open(HERE / "layers.json") as handle:
            layers = json.load(handle)
        self.assertEqual(set(layers["per_layer"]),
                         {m["name"] for m in BENCH["per_layer"]})
        self.assertEqual(set(layers["workloads"]), set(WORKLOADS))

    def test_small_runs_pass_their_checks(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                run = self.run_of(workload, trace=trace)
                with self.subTest(workload=workload, trace=trace):
                    self.assertIn("checks PASS", run.lines)
                    self.assertTrue(run.result["correct"])
                    self.assertEqual(run.result["failed"], 0)
                    self.assertGreaterEqual(run.result["attempted"], 1)
                    wanted = BENCH["per_layer" if trace else "end_to_end"]
                    self.assertEqual(set(run.result["metrics"]),
                                     {m["name"] for m in wanted})

    def test_same_seed_same_digest_other_seed_other_digest(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.run_of(workload, seed=1).digest
                twin = Run(workload, 1, 0).digest
                other = self.run_of(workload, seed=2).digest
                self.assertEqual(first, twin)
                self.assertNotEqual(first, other)

    def test_traced_and_untraced_digests_are_equal(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.run_of(workload, trace=0).digest,
                                 self.run_of(workload, trace=1).digest)

    def test_without_the_program_sources_it_fails_without_a_result(self):
        alone = runner.BUILD.parent / "perfbench-alone"
        shutil.rmtree(alone, ignore_errors=True)
        shutil.copytree(HERE, alone / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(runner.ROOT / "BENCHMARK.json", alone)
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace",
                 "0"],
                cwd=alone, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
