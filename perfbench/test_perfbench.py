#!/usr/bin/env python3
"""Tests of the benchmark itself, on a tiny grid (8^3 instead of 26^3).

    python3 perfbench/test_perfbench.py

Builds through perfbench/run.py, then checks that every workload prints
every metric BENCHMARK.json names exactly once, with its unit, in both
modes, and the unbounded solve p95 once in the untraced mode; that two
different seeds both pass the correctness gate; and that a SPARTS_*
environment variable makes the run fail without a result.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
METRIC_LINE = re.compile(r"^metric (\S+)\s+(\S+)\s+(\S+)\s+samples=(\d+)$")


def bench(workload, seed=1, trace=0, env=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--grid", "8"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=600)


class SmokeTest(unittest.TestCase):
    def check_metrics(self, workload, trace, expected):
        done = bench(workload, trace=trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in expected}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         want)
        printed = [METRIC_LINE.match(l).groups() for l in lines
                   if l.startswith("metric ")]
        names = [p[0] for p in printed]
        for name, unit in want.items():
            self.assertEqual(names.count(name), 1, name)
        for name, _, unit, samples in printed:
            self.assertEqual(unit, want[name], name)
            self.assertGreaterEqual(int(samples), 1, name)
        self.assertTrue(any(l.startswith("context: ") for l in lines))
        self.assertTrue(any(l.startswith("error_rate 0.0") for l in lines))
        p95 = [l for l in lines if l.split()[:2] == ["info", "solve_p95_s"]]
        self.assertEqual(len(p95), 1 if trace == 0 else 0)

    def test_every_workload_prints_every_metric_once(self):
        # The p=4 workloads are not gated (too unsteady) but still run.
        ungated = ["grid3d26-p4-m1", "grid3d26-p4-m32"]
        for w in [w["name"] for w in SPEC["workloads"]] + ungated:
            with self.subTest(workload=w):
                self.check_metrics(w, 0, SPEC["end_to_end"])
                self.check_metrics(w, 1, SPEC["per_layer"])

    def test_two_seeds_pass_the_correctness_gate(self):
        for seed in (3, 4):
            done = bench(SPEC["workloads"][0]["name"], seed=seed)
            self.assertEqual(done.returncode, 0, done.stderr[-2000:])
            result = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertTrue(result["correct"])
            self.assertIn('"seed": %d' % seed, done.stdout)

    def test_sparts_environment_is_refused(self):
        env = dict(os.environ, SPARTS_KERNELS="reference")
        done = bench(SPEC["workloads"][0]["name"], env=env)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)

    def test_unknown_workload_is_refused(self):
        done = bench("no-such-workload")
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
