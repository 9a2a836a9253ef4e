"""Self-tests of the benchmark: the BENCHMARK.json schema, metric names
and counts, the workload file's cross-references, and a short smoke run
of every workload (and one traced run) with every output check on.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import fnmatch
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
METRIC = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load(name):
    with open(os.path.join(HERE, name) if name != "BENCHMARK.json" else os.path.join(ROOT, name)) as f:
        return json.load(f)


def run(workload, trace, seconds=1):
    """One run through run.py; returns the parsed result line."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(load("workloads.json")["default_seed"]),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


class Schema(unittest.TestCase):
    def setUp(self):
        self.bench = load("BENCHMARK.json")

    def test_top_level(self):
        b = self.bench
        self.assertEqual(
            set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)
        self.assertTrue(1 <= len(b["command"]) <= 32)
        for arg in b["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"), arg)
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, PATH)
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)), p)
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)

    def test_workloads(self):
        ws = self.bench["workloads"]
        self.assertTrue(2 <= len(ws) <= 8)
        for w in ws:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"], w["name"])

    def test_metrics(self):
        e2e, layers = self.bench["end_to_end"], self.bench["per_layer"]
        self.assertTrue(1 <= len(e2e) <= 16)
        self.assertTrue(1 <= len(layers) <= 128)
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in layers:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in e2e + layers:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["name"], METRIC)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], {"lower", "higher"})
        names = [m["name"] for m in e2e + layers]
        self.assertEqual(len(names), len(set(names)), "metric names are used once")
        setup = [m for m in e2e if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in e2e))

    def test_workload_file_cross_references(self):
        spec = load("workloads.json")
        self.assertEqual(list(spec["workloads"]), [w["name"] for w in self.bench["workloads"]])
        self.assertNotEqual(spec["default_seed"], spec["held_out_seed"])
        for name, w in spec["workloads"].items():
            self.assertEqual(w["fingerprint"]["seed"], spec["default_seed"], name)
            for field in ("op", "why", "loads", "checks"):
                self.assertTrue(w[field], f"{name}.{field}")
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        self.assertEqual(set(spec["end_to_end_notes"]), e2e)
        layers = [m["name"] for m in self.bench["per_layer"]]
        workloads = set(spec["workloads"]) | {"*"}
        covered = set()
        for entry in spec["interaction_map"]:
            for pattern in entry["per_layer"]:
                hits = fnmatch.filter(layers, pattern)
                self.assertTrue(hits, f"{pattern} names no per-layer metric")
                covered.update(hits)
            for metric, workload in entry["moves"] + entry["holds"]:
                self.assertIn(metric, e2e | {"*"})
                self.assertIn(workload, workloads)
        self.assertEqual(covered, set(layers), "every per-layer metric is in the map")


class Smoke(unittest.TestCase):
    """Tiny runs with every output check, fingerprints included."""

    def test_every_workload_untraced(self):
        bench = load("BENCHMARK.json")
        want = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        for w in bench["workloads"]:
            with self.subTest(workload=w["name"]):
                r = run(w["name"], 0)
                self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in r["metrics"].items()}, want)
                self.assertTrue(all(v["value"] > 0 for v in r["metrics"].values()))

    def test_traced_run(self):
        bench = load("BENCHMARK.json")
        want = {m["name"]: m["unit"] for m in bench["per_layer"]}
        r = run("failover_auto6", 1)
        self.assertTrue(r["correct"])
        self.assertEqual({k: v["unit"] for k, v in r["metrics"].items()}, want)
        seed = load("workloads.json")["default_seed"]
        for suffix in ("layers.json", "host.trace.json", "modelled.trace.json"):
            path = os.path.join(ROOT, ".bench_out", f"failover_auto6-seed{seed}.{suffix}")
            self.assertTrue(os.path.getsize(path) > 0, path)


if __name__ == "__main__":
    unittest.main()
