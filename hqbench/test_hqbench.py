#!/usr/bin/env python3
"""Tests of the HerQules benchmark itself.

Runs every workload at tiny size through run.py and checks that:
  - the correctness gate passes (verified == sent, no false violation,
    the planted violation is denied, program outputs match);
  - every metric BENCHMARK.json names is printed with its unit, for
    --trace 0 (end to end) and --trace 1 (per layer);
  - a fixed-work run repeated with the same seed reproduces the exact
    counts (messages, syscalls, policy table entries, messages per
    kilo-instruction);
  - stream's pointer-integrity message mix follows the mix of the
    instrumented programs that the program workload captures;
  - without the repository's sources the command fails without a result.

Usage: python3 hqbench/test_hqbench.py   (about a minute)
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["stream", "gate", "program"]
PI_MIX = ["POINTER-DEFINE", "POINTER-CHECK-INVALIDATE", "POINTER-CHECK",
          "POINTER-BLOCK-INVALIDATE"]
EXACT_COUNTS = ["messages_sent", "syscalls", "policy.table_entries",
                "runtime.msgs_per_kinstr"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, seed=7, trace=0, cwd=ROOT, script=None, tiny=True):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "2",
           "--trace", str(trace), "--rounds", "2"] + (["--tiny"] * tiny)
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(next(l for l in lines if l.startswith("detail: "))
                        [len("detail: "):])
    return lines, result, detail


class BenchmarkTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run(workload, trace=trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines, result, detail = parse(proc)
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], detail["failures"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(m["name"] for m in declared),
                         sorted(result["metrics"]))
        table = "\n".join(lines[:-1])
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertIn(m["name"], table)
        if not trace:
            for m in SPEC["end_to_end"]:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                   m["name"])
        self.assertEqual(detail["host"]["nproc"], os.cpu_count())
        return detail

    def test_end_to_end_metrics_and_gate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, trace=0)

    def test_per_layer_metrics_and_trace_dump(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                detail = self.check_run(workload, trace=1)
                self.assertTrue(detail["layers"])
                with open(detail["trace_file"]) as f:
                    trace = json.load(f)
                self.assertTrue(trace["traceEvents"])
                self.assertIn("selfTime", trace)

    def test_same_seed_same_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = parse(run(workload, seed=11))[2]["counts"]
                second = parse(run(workload, seed=11))[2]["counts"]
                self.assertTrue(first)
                for name in EXACT_COUNTS:
                    if name in first or name in second:
                        self.assertEqual(first[name], second[name], name)

    def test_stream_mix_follows_captured_programs(self):
        # The programs at full size, as the stream mix was taken from.
        program = parse(run("program", trace=1, tiny=False))[2]["counts"]
        stream = parse(run("stream"))[2]["counts"]

        def shares(counts):
            ppm = {op: counts.get("mix_per_million." + op, 0)
                   for op in PI_MIX}
            total = sum(ppm.values())
            return {op: n / total for op, n in ppm.items()}

        want, got = shares(program), shares(stream)
        for op in PI_MIX:
            self.assertAlmostEqual(got[op], want[op],
                                   delta=0.1 * want[op], msg=op)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "hqbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run("gate", cwd=bare,
                       script=os.path.join(bare, "hqbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
