#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py

Checks BENCHMARK.json against the benchmark contract (names, units,
bounds), runs a tiny-size smoke pass of every workload in both modes and
checks each emits every named metric with a valid unit and no failed
operation, and checks the benchmark refuses to run without the library
sources next to it.  The first smoke pass builds the benchmark.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


class SpecTest(unittest.TestCase):
    def test_keys_and_limits(self):
        spec = load_spec()
        self.assertEqual(sorted(spec), ["command", "end_to_end", "paths",
                                        "per_layer", "run_seconds",
                                        "workloads"])
        self.assertTrue(1 <= len(spec["paths"]) <= 16)
        for path in spec["paths"]:
            self.assertRegex(path, PATH)
            self.assertFalse(path.startswith("/") or ".." in path.split("/"))
        self.assertTrue(1 <= len(spec["command"]) <= 32)
        self.assertTrue(all(len(a) <= 200 for a in spec["command"]))
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        for w in spec["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertLessEqual(len(w["why"]), 200)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        for m in spec["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        for m in spec["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
            self.assertIn(m["better"], ("lower", "higher"))
        names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for x in spec[key]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        self.assertLessEqual(os.path.getsize(os.path.join(ROOT,
                                                          "BENCHMARK.json")),
                             64 * 1024)


class SmokeTest(unittest.TestCase):
    """A tiny-size pass of each workload emits every named metric."""

    def check(self, workload, trace):
        spec = load_spec()
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in wanted))
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(sorted(got), ["unit", "value"])
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            # Every value is measured; a constant 0 would read the same on
            # every run.
            self.assertNotEqual(got["value"], 0, m["name"])

    def test_imaging(self):
        self.check("imaging", 0)
        self.check("imaging", 1)

    def test_serve(self):
        self.check("serve", 0)
        self.check("serve", 1)

    def test_train(self):
        self.check("train", 0)
        self.check("train", 1)

    def test_opc(self):
        self.check("opc", 0)
        self.check("opc", 1)


class RefusalTest(unittest.TestCase):
    def test_fails_without_library_sources(self):
        # Only BENCHMARK.json and the benchmark's own directories.
        lone = os.path.join(ROOT, ".bench_build", "lone")
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
            for path in load_spec()["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(lone, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("imaging", 0, cwd=lone)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
