#!/usr/bin/env python3
"""Tests of the benchmark itself, at toy size.

    python3 perfbench/test_perfbench.py

Every workload runs untraced and traced on a 2000-node stand-in; each run
must print every metric BENCHMARK.json names for its mode, with that unit.
A deliberately wrong reference must fail every operation, a reference file
without the run's seed must make run.py fail without a result, the layer
coverage check must fail on an operation the layers do not cover, and a
directory without the socmix sources must make run.py fail without a
result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
NODES = "2000"

sys.path.insert(0, HERE)
import run as perfbench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def scratch_dir():
    base = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(dir=base)


def run(workload, trace, *extra, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--nodes", NODES, *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    context = json.loads(lines[-2])["context"]
    return json.loads(lines[-1]), context


class MetricsPrinted(unittest.TestCase):
    def check_metrics(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_prints_its_metrics(self):
        for w in SPEC["workloads"]:
            for trace, expected in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    result, context = result_of(run(w["name"], trace))
                    self.check_metrics(result, expected)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(context["failed_frac"], 0.0)
                    self.assertEqual(context["build_type"], "Release")
                    self.assertGreaterEqual(context["threads"], 1)
                    if trace == 0:
                        for name in ("op_wall_s", "op_cpu_s", "setup_s"):
                            self.assertGreater(result["metrics"][name]["value"], 0.0, name)


class WrongReference(unittest.TestCase):
    def wrong(self, workload, corrupt):
        work = scratch_dir()
        try:
            path = os.path.join(work, "reference.json")
            result, _ = result_of(run(workload, 0, "--write-reference", path))
            self.assertTrue(result["correct"])
            with open(path) as f:
                ref = json.load(f)
            corrupt(ref["seeds"]["7"])
            with open(path, "w") as f:
                json.dump(ref, f)
            result, context = result_of(run(workload, 0, "--reference", path))
            self.assertFalse(result["correct"])
            self.assertEqual(result["failed"], result["attempted"])
            self.assertEqual(context["failed_frac"], 1.0)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def test_wrong_slem_fails(self):
        def corrupt(ref):
            ref["spectrum"]["slem"] += 1e-6
        self.wrong("measure-lj100k", corrupt)

    def test_wrong_tvd_fails(self):
        def corrupt(ref):
            ref["sampled"]["tvd_end"][3] += 1e-10
        self.wrong("sampled-fba100k", corrupt)

    def test_wrong_mixing_time_fails(self):
        def corrupt(ref):
            t = ref["sampled"]["mixing_times"]
            t[0] = 5 if t[0] != 5 else 6
        self.wrong("sampled-fba100k", corrupt)

    def test_wrong_fraction_fails(self):
        def corrupt(ref):
            f = ref["fractions"][2]
            ref["fractions"][2] = f + 0.5 if f < 0.5 else f - 0.5
        self.wrong("sybil-fba100k", corrupt)

    def test_reference_without_the_seed_fails_without_a_result(self):
        work = scratch_dir()
        try:
            path = os.path.join(work, "reference.json")
            with open(path, "w") as f:
                json.dump({"nodes": int(NODES), "seeds": {"8": {"fractions": [0.5]}}}, f)
            proc = run("sybil-fba100k", 0, "--reference", path)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(work, ignore_errors=True)


class LayerCoverage(unittest.TestCase):
    @staticmethod
    def spans(glue_s):
        """An operation of a 0.5 s linalg call and a 0.4 s markov call with
        `glue_s` of the benchmark's own time between them."""
        def span(id_, parent, name, start, end):
            return {"id": id_, "parent": parent, "operation": 1, "name": name,
                    "start": start, "end": end, "counts": {}}
        return perfbench.Spans([
            span(1, 0, "operation", 0.0, 0.9 + glue_s),
            span(2, 1, "linalg.slem_spectrum", 0.0, 0.5),
            span(3, 2, "linalg.spmv", 0.1, 0.2),
            span(4, 1, "markov.measure_sampled_mixing", 0.5 + glue_s, 0.9 + glue_s),
        ])

    def test_covered_operation_passes(self):
        check = perfbench.layer_coverage_check(self.spans(0.001))
        self.assertTrue(check["ok"])
        self.assertAlmostEqual(check["value"], 0.9 / 0.901)

    def test_uncovered_operation_fails(self):
        check = perfbench.layer_coverage_check(self.spans(0.1))
        self.assertFalse(check["ok"])
        self.assertAlmostEqual(check["value"], 0.9)


class WithoutSources(unittest.TestCase):
    def test_fails_without_a_result(self):
        work = scratch_dir()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), work)
            shutil.copytree(HERE, os.path.join(work, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("sybil-fba100k", 0, cwd=work,
                       script=os.path.join(work, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
