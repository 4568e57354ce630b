"""End-to-end tests of perfbench/run.py and BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests -v

Run from the checkout root. The first test to run builds the
benchmark (about a minute); the metric tests run timing-small, the
shortest workload, for one second.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


class BenchmarkJsonTest(unittest.TestCase):
    def test_has_exactly_the_required_keys(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])
        for path in SPEC["paths"]:
            self.assertRegex(path, PATH)
            self.assertTrue((ROOT / path).is_dir())
        self.assertIn(SPEC["run_seconds"], range(1, 61))
        self.assertLessEqual(len((ROOT / "BENCHMARK.json").read_bytes()),
                             64 * 1024)

    def test_workloads_and_metrics_are_well_formed(self):
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        for workload in SPEC["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertRegex(workload["name"], NAME)
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for metric in SPEC["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25)
        for metric in SPEC["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class RunTest(unittest.TestCase):
    def assert_rejected(self, *args):
        proc = run(*args)
        self.assertNotEqual(proc.returncode, 0, proc.stdout)
        self.assertIsNone(result_line(proc))

    def test_rejects_unknown_flags_workloads_and_numbers(self):
        self.assert_rejected("--workload", "timing-small", "--datsets", "CR")
        self.assert_rejected("--workload", "timing-smal")
        self.assert_rejected("--workload", "timing-small", "--seed", "1x")
        self.assert_rejected("--workload", "timing-small", "--seconds", "0")
        self.assert_rejected("--workload", "timing-small", "--trace", "2")

    def test_every_metric_prints_with_its_unit(self):
        for trace, declared in (("0", SPEC["end_to_end"]),
                                ("1", SPEC["per_layer"])):
            proc = run("--workload", "timing-small", "--seed", "heldout",
                       "--seconds", "1", "--trace", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = result_line(proc)
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(
                {k: v["unit"] for k, v in result["metrics"].items()},
                {m["name"]: m["unit"] for m in declared})
            table = "\n".join(proc.stdout.splitlines()[:-1])
            for metric in declared:
                self.assertRegex(table, re.compile(
                    rf"^\s+{re.escape(metric['name'])}\s+\S+\s+"
                    rf"{re.escape(metric['unit'])}\s+{metric['better']} "
                    "is better$", re.M))

    def test_fails_without_the_simulator_sources(self):
        bare = ROOT / ".bench_build" / "bare-tree"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run("--workload", "timing-small", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result_line(proc))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
