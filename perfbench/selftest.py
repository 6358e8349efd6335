"""Smoke self-test of the benchmark itself, on tiny worlds.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks that one ``run.py`` command prints every metric ``BENCHMARK.json``
names, with its unit, for every workload (traced and untraced); that a
perturbed golden turns into failed (tenant-)days and a non-zero exit,
so the correctness gate is not vacuous; and that without the program
under test the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCRATCH = ROOT / ".perfbench" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls) -> None:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def _check_metrics(self, trace: int, kind: str) -> None:
        wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
        for workload in SPEC["workloads"]:
            name = workload["name"]
            with self.subTest(workload=name, trace=trace):
                proc = _bench("--workload", name, "--seed", "3",
                              "--seconds", "1", "--trace", str(trace),
                              "--size", "tiny")
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                result = _result(proc)
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"}
                )
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), set(wanted))
                for metric, unit in wanted.items():
                    self.assertEqual(result["metrics"][metric]["unit"], unit)
                    self.assertRegex(
                        proc.stdout,
                        rf"(?m)^{re.escape(name)} {re.escape(metric)} = "
                        rf"\S+ {re.escape(unit)} \(samples=\d+\)$",
                    )
                self.assertRegex(
                    proc.stdout, rf"(?m)^{re.escape(name)} failed_frac = 0 "
                )

    def test_end_to_end_metrics_for_every_workload(self) -> None:
        self._check_metrics(0, "end_to_end")

    def test_per_layer_metrics_for_every_workload(self) -> None:
        self._check_metrics(1, "per_layer")

    def test_perturbed_golden_fails_the_run(self) -> None:
        goldens = SCRATCH / "goldens"
        recorded = subprocess.run(
            [sys.executable, str(BENCH_DIR / "record_goldens.py"),
             "--workload", "dns-batch", "--seeds", "5", "--size", "tiny",
             "--out", str(goldens)],
            capture_output=True, text=True, timeout=300,
        )
        self.assertEqual(recorded.returncode, 0, recorded.stderr)
        args = ("--workload", "dns-batch", "--seed", "5", "--seconds", "1",
                "--size", "tiny", "--goldens", str(goldens))
        proc = _bench(*args)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("golden=True", proc.stdout)
        self.assertEqual(_result(proc)["failed"], 0)

        path = goldens / "dns-batch.json"
        document = json.loads(path.read_text())
        days = document["seeds"]["5"]
        first = sorted(days)[0]
        days[first] = days[first] + ["perturbed.example"]
        path.write_text(json.dumps(document))
        proc = _bench(*args)
        self.assertNotEqual(proc.returncode, 0)
        result = _result(proc)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_exits_nonzero_without_the_program(self) -> None:
        bare = SCRATCH / "bare"
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _bench("--workload", "dns-batch", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
