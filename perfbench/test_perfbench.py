#!/usr/bin/env python3
"""The benchmark's own test: a small-size smoke run of every workload.

Run from the root of the checkout:

    python3 perfbench/test_perfbench.py

It checks that both modes of every workload report every metric of
BENCHMARK.json, finite, with the oracle passing (a replay that computes
anything is an oracle failure); that the per-layer counts repeat exactly
across two runs of one seed; and that the benchmark refuses to run where
the program's sources are missing.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

WORKLOADS = ("cli-netlist", "datapath-words", "serve-mixed")
COUNTS = (
    "circuit.gate_evals_per_fault_word",
    "exec.items",
    "serve.shard_rounds",
    "checkpoint.records",
    "cache.hits",
    "jobs.replayed",
)
SEED = 7


def run(workload, trace, cwd=".", seed=SEED):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--scale", "small",
        ],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=600,
    )


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        cls.names = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }

    def result(self, workload, trace):
        r = run(workload, trace)
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        lines = r.stdout.strip().splitlines()
        host = json.loads(lines[-2])["host"]
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], host["failures"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(self.names[trace]))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], self.names[trace][name])
            self.assertTrue(math.isfinite(m["value"]), name)
        for key in ("nproc", "rustc", "commit", "seed", "profile"):
            self.assertIn(key, host)
        return host, result["metrics"]

    def test_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                host, metrics = self.result(workload, 0)
                self.assertTrue(all(n > 0 for n in host["samples"].values()), host)
                self.assertEqual(metrics["ok_frac"]["value"], 1.0)

    def test_traced_counts_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                host, first = self.result(workload, 1)
                self.assertIn("trace_pair_ms", host)
                self.assertGreater(first["jobs.replayed"]["value"], 0)
                _, second = self.result(workload, 1)
                for name in COUNTS:
                    self.assertEqual(first[name]["value"], second[name]["value"], name)


class Refusal(unittest.TestCase):
    def test_fails_without_program_sources(self):
        bare = os.path.join(".bench_work", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy("BENCHMARK.json", bare)
            shutil.copytree(
                "perfbench",
                os.path.join(bare, "perfbench"),
                ignore=shutil.ignore_patterns("__pycache__", "target"),
            )
            r = run("cli-netlist", 0, cwd=bare)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
