#!/usr/bin/env python3
"""Self-test of the benchmark.

Runs every workload, those of BENCHMARK.json and those run only by name, at
tiny size, untraced and traced, and checks that each result line is well
formed, correct, and carries every metric BENCHMARK.json names with its
unit. Also checks that the benchmark
fails, without a result, when the program's sources are absent.

    python3 perfbench/test/selftest.py      # from the repository root
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# Workloads that run by name but are not in BENCHMARK.json (see README.md).
EXTRA_WORKLOADS = ["vote-wc-bg"]


def run(args, cwd=ROOT, timeout=300):
    return subprocess.run(BENCH["command"] + args, cwd=cwd, capture_output=True, text=True, timeout=timeout)


class SelfTest(unittest.TestCase):

    def check_result(self, workload, trace):
        r = run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"])
        self.assertEqual(r.returncode, 0, r.stderr[-3000:])
        result = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], r.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        if not trace:
            for m in wanted:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_workloads(self):
        for w in [w["name"] for w in BENCH["workloads"]] + EXTRA_WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    self.check_result(w, trace)

    def test_fails_without_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "perfbench", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
        w = BENCH["workloads"][0]["name"]
        r = run(["--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare, timeout=180)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"metrics"', r.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0], "-v"])
