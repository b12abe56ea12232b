#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload, a couple of operations.

    python3 perfbench/smoke_test.py

For each workload it checks that the untimed and traced runs print every
metric of BENCHMARK.json with its unit and pass their output checks, and
that checking against a deliberately wrong reference makes operations fail
(a non-zero fail ratio). It builds like run.py does, so the first run takes
as long as a build.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, *extra):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), "--max-ops", "2", *extra],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def check_metrics(self, result, listed):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
        for m in listed:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload(self):
        for w in SPEC["workloads"]:
            name = w["name"]
            with self.subTest(workload=name):
                timed = bench(name, 0)
                self.check_metrics(timed, SPEC["end_to_end"])
                self.assertTrue(timed["correct"])
                self.assertEqual(timed["failed"], 0)
                self.assertGreaterEqual(timed["attempted"], 1)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(timed["metrics"][m["name"]]["value"], 0, m["name"])

                traced = bench(name, 1)
                self.check_metrics(traced, SPEC["per_layer"])
                self.assertTrue(traced["correct"])

                wrong = bench(name, 0, "--corrupt-reference")
                self.assertFalse(wrong["correct"])
                self.assertGreater(wrong["failed"] / wrong["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
