#!/usr/bin/env python3
"""The benchmark's own test: determinism, seeds and the pacer cross-check.

    python3 perfbench/test.py

Builds the benchmark (as run.py does), then checks that
  - two runs of one seed print identical virtual-time results and
    per-layer counts, and a different seed changes them, per workload;
  - every run's output checks pass, and in traced runs the ledger
    closes: no row is negative and little time is left unattributed;
  - the benchmark's fleet pacer and fleet::runOpenLoop (what hydra_fleet
    runs) agree exactly on goodput and p50/p99/p999 latency;
  - in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits nonzero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

import run

BINARY = None
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


def short_run(workload, seed, trace):
    """One short run; returns (fingerprint dict, result dict)."""
    done = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise AssertionError(f"{workload} seed {seed}: exit "
                             f"{done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expected = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        raise AssertionError(f"{workload}: metrics {got} != {units}")
    prints = [l for l in lines if l.startswith("fingerprint: ")]
    return json.loads(prints[0][len("fingerprint: "):]), result


class Determinism(unittest.TestCase):
    def check(self, workload, moved):
        a, result = short_run(workload, 1, trace=1)
        b, _ = short_run(workload, 1, trace=1)
        c, _ = short_run(workload, 2, trace=1)
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertLessEqual(metrics["unattributed.share"]["value"], 0.1)
        for name, metric in metrics.items():
            if name.endswith(".share"):
                self.assertGreaterEqual(metric["value"], 0, name)
        self.assertEqual(a, b, "same seed must repeat exactly")
        for name in moved:
            self.assertNotEqual(a[name], c[name],
                                f"seed 2 must change {name}")

    def test_tivo_offloaded(self):
        self.check("tivo_offloaded",
                   ["vlatency_p50_vus", "vlatency_p999_vus", "exec.events"])

    def test_fleet_openloop(self):
        self.check("fleet_openloop",
                   ["vlatency_p50_vus", "vlatency_p999_vus", "exec.events",
                    "net.packets"])

    def test_fleet_churn(self):
        # Seeds 1 and 2 happen to place the same number of streams
        # cross-host, so the counts match; the latencies still move.
        self.check("fleet_churn",
                   ["vlatency_p50_vus", "vlatency_p999_vus",
                    "net.flight_p99_vns"])


class EndToEnd(unittest.TestCase):
    def test_every_metric_reported_and_nonzero(self):
        for workload in run.WORKLOADS:
            _, result = short_run(workload, 1, trace=0)
            self.assertTrue(result["correct"], result)
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, f"{workload} {name}")


class CrossCheck(unittest.TestCase):
    def test_pacer_matches_run_open_loop(self):
        done = subprocess.run([BINARY, "--crosscheck"], capture_output=True,
                              text=True, timeout=run.RUN_TIMEOUT_S)
        self.assertEqual(done.returncode, 0, done.stdout)
        self.assertIn("crosscheck: match", done.stdout)


class Standalone(unittest.TestCase):
    def test_fails_without_sources(self):
        scratch = os.path.join(run.build_dir(), "standalone")
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(run.HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), scratch)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "fleet_openloop", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=scratch, env=env, capture_output=True, text=True,
            timeout=run.RUN_TIMEOUT_S)
        shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    BINARY = run.build()
    if BINARY is None:
        sys.exit("perfbench: build failed")
    unittest.main()
