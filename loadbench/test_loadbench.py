#!/usr/bin/env python3
"""Tests of the loader benchmark itself.

    python3 loadbench/test_loadbench.py

Builds the benchmark through run.py (see README.md) and runs short
one-second runs of every workload, traced and untraced. Takes a few minutes.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cam-decode", "cosmo-decode", "wire-cached")


def run(workload, seed, trace, seconds=1):
    """One short benchmark run: (exit code, '#' lines, parsed result)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    lines = proc.stdout.splitlines()
    return proc.returncode, [l for l in lines if l.startswith("#")], json.loads(lines[-1])


def binary():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, build_dir, "loadbench")


def identity(info):
    """(inputs CRC, reference digest) from a run's '#' lines."""
    for line in info:
        m = re.match(r"# inputs_crc (\w+) stream_digest (\w+)", line)
        if m:
            return m.groups()
    raise AssertionError("no inputs_crc line in " + "\n".join(info))


class Benchmark(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        for workload in WORKLOADS:
            for trace in (0, 1):
                cls.runs[workload, trace] = run(workload, 5, trace)

    def test_runs_are_correct(self):
        for key, (code, _, result) in self.runs.items():
            with self.subTest(run=key):
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})

    def test_names_and_units_match_benchmark_json(self):
        for (workload, trace), (_, _, result) in self.runs.items():
            declared = self.spec["per_layer" if trace else "end_to_end"]
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(got, want)

    def test_untraced_run_is_intact(self):
        for workload in WORKLOADS:
            metrics = self.runs[workload, 0][2]["metrics"]
            with self.subTest(workload=workload):
                self.assertEqual(metrics["batch_ok_fraction"]["value"], 1.0)
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)

    def test_cache_serves_every_timed_batch(self):
        for workload in WORKLOADS:
            metrics = self.runs[workload, 1][2]["metrics"]
            with self.subTest(workload=workload):
                self.assertEqual(metrics["serve.cache_hit_ratio"]["value"], 1.0)

    def test_seed_fixes_inputs_and_digest(self):
        first = identity(self.runs["cam-decode", 0][1])
        again = identity(run("cam-decode", 5, 0)[1])
        other = identity(run("cam-decode", 6, 0)[1])
        self.assertEqual(first, again)
        self.assertNotEqual(first[0], other[0])
        self.assertNotEqual(first[1], other[1])

    def tail(self, values):
        proc = subprocess.run(
            [binary(), "--tail-rule", ",".join(str(v) for v in values)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        return proc.returncode, proc.stdout

    def test_tail_rule_keeps_ten_batches_beyond(self):
        code, out = self.tail(range(100, 0, -1))
        self.assertEqual(code, 0)
        self.assertEqual(json.loads(out), {"percentile": 90, "value": 90, "beyond": 10})
        code, out = self.tail(range(1, 21))
        self.assertEqual(json.loads(out), {"percentile": 50, "value": 10, "beyond": 10})
        # 333 batches: p97 would leave 9 beyond it, so the rule stops at
        # 100 * 323 / 333.
        t = json.loads(self.tail(range(333))[1])
        self.assertEqual(t["beyond"], 10)
        self.assertEqual(t["value"], 322)
        self.assertAlmostEqual(t["percentile"], 100 * 323 / 333)

    def test_tail_rule_refuses_too_few_batches(self):
        code, _ = self.tail(range(19))
        self.assertNotEqual(code, 0)


if __name__ == "__main__":
    unittest.main()
