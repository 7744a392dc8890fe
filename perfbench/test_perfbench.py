#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/test_perfbench.py

They build perfbench/main.exe (as run.py does) and check that workload
generation is deterministic per seed, that the metric catalog the
executable prints agrees with BENCHMARK.json, that every per-layer
metric declares the end-to-end metric it moves, and that short runs of
every workload print exactly the declared metrics and pass their checks.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()
        if cls.exe is None:
            raise RuntimeError("perfbench/main.exe does not build")
        with open("BENCHMARK.json") as f:
            cls.bench = json.load(f)
        cls.catalog = json.loads(cls.output("--list-metrics"))

    @classmethod
    def output(cls, *args):
        return subprocess.run([cls.exe, *args], capture_output=True, text=True,
                              check=True).stdout

    def plan(self, seed):
        return json.loads(self.output("--plan", "--seed", str(seed)))

    def test_plan_is_deterministic_per_seed(self):
        self.assertEqual(self.plan(5), self.plan(5))

    def test_seeds_draw_different_inputs(self):
        a, b = self.plan(5), self.plan(6)
        for key in ("fleet_seed", "boot_seed", "div_master"):
            self.assertNotEqual(a[key], b[key], key)
        # The fuzz campaign seeds are one fixed pool for every seed.
        self.assertEqual(a["fuzz_seeds"], b["fuzz_seeds"])
        self.assertEqual(len(set(a["fuzz_seeds"])), 16)
        self.assertEqual(len(set(a["diversity_seeds"])), len(a["diversity_seeds"]))
        self.assertFalse(set(a["diversity_seeds"]) & set(b["diversity_seeds"]))

    def test_catalog_matches_benchmark_json(self):
        for section in ("end_to_end", "per_layer"):
            declared = [(m["name"], m["unit"], m["better"]) for m in self.bench[section]]
            printed = [(m["name"], m["unit"], m["better"]) for m in self.catalog
                       if m["kind"] == section]
            self.assertEqual(declared, printed, section)
        workloads = [w["name"] for w in self.bench["workloads"]]
        for m in self.catalog:
            self.assertTrue(set(m["on"]) <= set(workloads), m["name"])

    def test_every_layer_metric_declares_what_it_moves(self):
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        for m in self.catalog:
            if m["kind"] != "per_layer":
                continue
            self.assertTrue(m["moves"], m["name"])
            if m["moves"] != ["none"]:
                self.assertTrue(set(m["moves"]) <= e2e, m["name"])

    def test_short_runs_print_the_declared_metrics(self):
        names = {0: [m["name"] for m in self.bench["end_to_end"]],
                 1: [m["name"] for m in self.bench["per_layer"]]}
        for w in self.bench["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    out = self.output("--workload", w["name"], "--seed", "3",
                                      "--seconds", "0.1", "--trace", str(trace))
                    res = last_json(out)
                    self.assertEqual(sorted(res), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(list(res["metrics"]), names[trace])

    def test_refuses_to_run_without_the_program(self):
        bare = os.path.join(run.BUILD_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fuzz",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main()
