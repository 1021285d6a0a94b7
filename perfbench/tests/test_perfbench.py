#!/usr/bin/env python3
"""Tests of the perfbench benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Builds the perfbench program if needed (through run.py), then checks the
output contract, flag handling, seed purity and the digest gate. Takes a
minute or two: every workload runs briefly, traced and untraced.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (perfbench/run.py)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("grid", "fleet", "crowd")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def perfbench(*args, check=True):
    """Runs the built program; returns (returncode, stdout lines)."""
    proc = subprocess.run([run.BINARY, "--work-dir",
                           os.path.join(run.BUILD_DIR, "test-work"), *args],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=run.RUN_TIMEOUT_S)
    if check and proc.returncode != 0:
        raise AssertionError(f"perfbench {args} exited {proc.returncode}")
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(*args):
    _, lines = perfbench(*args)
    return json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.ensure_built()

    def test_metrics_named_and_united_for_every_workload(self):
        expected = {
            0: [(m["name"], m["unit"]) for m in SPEC["end_to_end"]],
            1: [(m["name"], m["unit"]) for m in SPEC["per_layer"]],
        }
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    r = result_of("--workload", workload, "--seed", "3",
                                  "--seconds", "1", "--trace", str(trace))
                    self.assertEqual(set(r), run.RESULT_KEYS)
                    self.assertTrue(r["correct"])
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(r["failed"], 0)
                    got = [(k, v["unit"]) for k, v in r["metrics"].items()]
                    self.assertEqual(got, expected[trace])
                    for name, unit in got:
                        self.assertRegex(name, NAME_RE)
                        self.assertRegex(unit, UNIT_RE)
                    for v in r["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))

    def test_end_to_end_metrics_are_never_zero(self):
        r = result_of("--workload", "crowd", "--seed", "4", "--seconds", "1",
                      "--trace", "0")
        for name, v in r["metrics"].items():
            self.assertGreater(v["value"], 0.0, name)

    def test_unknown_flags_are_rejected(self):
        script = os.path.join(PERFBENCH, "run.py")
        good = ["--workload", "grid", "--seed", "1", "--seconds", "1",
                "--trace", "0"]
        for extra in (["--bogus"], ["--trace", "2"], ["--workload", "nope"],
                      ["--seconds", "0"], ["--seed", "-1"], ["--sec", "1"]):
            with self.subTest(extra=extra):
                proc = subprocess.run([sys.executable, script, *good, *extra],
                                      capture_output=True, text=True,
                                      timeout=60)
                self.assertEqual(proc.returncode, 2)
                self.assertEqual(proc.stdout, "")
                code, lines = perfbench(*good, *extra, check=False)
                self.assertEqual(code, 2)
                self.assertEqual(lines, [])

    def test_same_seed_gives_identical_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                digest = lambda seed: result_of(  # noqa: E731
                    "--workload", workload, "--seed", str(seed),
                    "--inputs-digest")["inputs_digest"]
                self.assertEqual(digest(7), digest(7))
                self.assertNotEqual(digest(7), digest(8))

    def test_digest_gate_trips_on_a_perturbed_result(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                r = result_of("--workload", workload, "--seed", "5",
                              "--seconds", "1", "--trace", "0", "--perturb")
                self.assertFalse(r["correct"])
                self.assertGreater(r["failed"], 0)
                self.assertLess(r["failed"], r["attempted"])

    def test_golden_mismatch_fails_every_task(self):
        r = result_of("--workload", "crowd", "--seed", "1", "--seconds", "1",
                      "--trace", "0", "--expect-digest", "0" * 16)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], r["attempted"])

    def test_golden_seed_passes(self):
        with open(run.GOLDEN) as f:
            golden = json.load(f)
        r = result_of("--workload", "crowd", "--seed", str(golden["seed"]),
                      "--seconds", "1", "--trace", "0", "--expect-digest",
                      golden["digests"]["crowd"])
        self.assertTrue(r["correct"])

    def test_fails_without_the_simulator_sources(self):
        bare = os.path.join(run.BUILD_DIR, "test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(PERFBENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "grid",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
