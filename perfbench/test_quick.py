#!/usr/bin/env python3
"""Quick-mode test of the benchmark itself (tiny sizes, about a minute).

    python3 perfbench/test_quick.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that a mutated record trips the reference-record check, that the seed
argument changes the generated configs, and that the benchmark fails
without printing a result when the simulator sources are missing.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed=1, trace=0, *extra):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--quick", *extra],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n"
                             + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


class QuickBenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build(run.build_dir())

    def configs(self, workload, seed):
        out = subprocess.run(
            [str(self.exe), "configs", "--workload", workload, "--seed",
             str(seed), "--quick"],
            capture_output=True, text=True, check=True)
        return json.loads(out.stdout)

    def check_metrics(self, result, specs):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {s["name"] for s in specs})
        for s in specs:
            m = result["metrics"][s["name"]]
            self.assertEqual(m["unit"], s["unit"], s["name"])
            self.assertTrue(math.isfinite(m["value"]), s["name"])

    def test_every_metric_emitted_with_unit(self):
        for w in WORKLOADS:
            for trace, specs in ((0, SPEC["end_to_end"]),
                                 (1, SPEC["per_layer"])):
                with self.subTest(workload=w, trace=trace):
                    r = bench(w, trace=trace)
                    self.check_metrics(r, specs)
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)

    def test_mutated_record_trips_reference_check(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = bench(w, 1, 0, "--perturb")
                self.assertFalse(r["correct"])
                self.assertGreater(r["failed"], 0)
                self.assertLess(r["metrics"]["passed_frac"]["value"], 1.0)

    def test_seed_changes_generated_configs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = self.configs(w, 1), self.configs(w, 2)
                self.assertEqual(a["points"], b["points"])
                self.assertNotEqual(a["configs_digest"], b["configs_digest"])
                self.assertEqual(a["configs_digest"],
                                 self.configs(w, 1)["configs_digest"])

    def test_fails_without_sources(self):
        bare = run.build_dir() / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                capture_output=True, text=True, timeout=180, cwd=bare,
                env={"PATH": "/usr/bin:/bin"})
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
