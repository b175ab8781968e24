#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the benchmark through perfbench/run.py (as the benchmark's users
do) and run every workload at --scale tiny, which takes a few seconds each.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
WORKLOADS = ("sim-m2000", "sim-m500-mp", "serve-open")
# Counts that depend on timing (how many requests a phase got through, how
# often the host preempted us) rather than on the seed alone.
TIMED_COUNTS = {"env.nivcsw", "scheduler.tasks_stolen", "serve.accepted", "serve.served",
                "serve.backpressure_pauses"}


def run(*args):
    return subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True, text=True, timeout=900)


def tiny(workload, trace, seed="1", *extra):
    return run("--workload", workload, "--seed", seed, "--seconds", "2", "--trace", str(trace),
               "--scale", "tiny", *extra)


def result_of(process):
    lines = process.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            cls.spec = json.load(handle)

    def check_result(self, process, metric_list):
        self.assertEqual(process.returncode, 0, process.stderr[-2000:])
        header, result = result_of(process)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in self.spec[metric_list]}
        got = {name: entry["unit"] for name, entry in result["metrics"].items()}
        self.assertEqual(got, expected)
        for entry in result["metrics"].values():
            self.assertIsInstance(entry["value"], (int, float))
        for key in ("commit", "compiler", "build_type", "nproc", "kernel", "seed", "workload"):
            self.assertIn(key, header["provenance"])
        self.assertIn("env.steal_frac", header["params"])
        return header, result

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, result = self.check_result(tiny(workload, 0), "end_to_end")
                for name, entry in result["metrics"].items():
                    self.assertGreater(entry["value"], 0, name)
                self.check_result(tiny(workload, 1), "per_layer")

    def test_exact_counts_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.check_result(tiny(workload, 1), "per_layer")[1]["metrics"]
                second = self.check_result(tiny(workload, 1), "per_layer")[1]["metrics"]
                for name, entry in first.items():
                    if entry["unit"] in ("count", "bytes") and name not in TIMED_COUNTS:
                        if workload == "serve-open" and not name.startswith("trace."):
                            continue
                        self.assertEqual(entry["value"], second[name]["value"], name)

    def test_gate_trips_on_a_perturbed_pinned_digest(self):
        for workload in ("sim-m2000", "sim-m500-mp"):
            with self.subTest(workload=workload):
                process = tiny(workload, 0, "1", "--perturb-pin")
                self.assertNotEqual(process.returncode, 0)
                self.assertNotIn('"metrics"', process.stdout)
                self.assertIn("pinned", process.stderr)
                # Another seed has no pin to perturb; the identities still gate it.
                self.assertEqual(tiny(workload, 0, "7", "--perturb-pin").returncode, 0)

    def test_span_file_parses_and_self_times_are_non_negative(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                header, _ = self.check_result(tiny(workload, 1), "per_layer")
                path = header["params"]["span_file"]
                with open(path) as handle:
                    spans = json.load(handle)
                names = spans["names"]
                rows = spans["spans"]
                self.assertGreater(len(rows), 0)
                children = [0] * len(rows)
                for trace_id, name, parent, start, end in rows:
                    self.assertLess(name, len(names))
                    self.assertLessEqual(start, end)
                    if parent >= 0:
                        children[parent] += end - start
                for index, (_, _, _, start, end) in enumerate(rows):
                    self.assertGreaterEqual(end - start - children[index], 0)

    def test_bad_command_lines_are_rejected(self):
        good = ["--workload", "sim-m2000", "--seed", "1", "--seconds", "2", "--trace", "0"]
        cases = [
            ["--workload", "nope", "--seed", "1", "--seconds", "2", "--trace", "0"],
            good + ["--bogus", "1"],
            ["--workload", "sim-m2000", "--seed", "-3", "--seconds", "2", "--trace", "0"],
            ["--workload", "sim-m2000", "--seed", "1", "--seconds", "2.5", "--trace", "0"],
            ["--workload", "sim-m2000", "--seed", "1", "--seconds", "0", "--trace", "0"],
            ["--workload", "sim-m2000", "--seed", "1", "--seconds", "2", "--trace", "2"],
            ["--workload", "sim-m2000", "--seed", "1", "--seconds", "2"],
            good + ["--seed", "2"],
        ]
        for argv in cases:
            with self.subTest(argv=argv):
                process = run(*argv)
                self.assertNotEqual(process.returncode, 0)
                self.assertEqual(process.stdout.strip(), "")
                self.assertEqual(len(process.stderr.strip().splitlines()), 1, process.stderr)


if __name__ == "__main__":
    unittest.main()
