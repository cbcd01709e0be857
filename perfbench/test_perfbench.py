#!/usr/bin/env python3
"""Tests of the benchmark itself: every workload does what its name claims,
every printed metric matches BENCHMARK.json by name and unit, the
correctness gate counts digest mismatches, and comparisons refuse to mix
core counts.

    python3 perfbench/test_perfbench.py          # ~2 minutes; builds on first use
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SEED = 2004
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CONSTRUCTION_LAYERS = ("net.deploy_s", "net.build_s", "core.interest_build_s",
                       "routing.build_s", "core.protocol_build_s")


def metrics(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


class WorkloadTest(unittest.TestCase):
    """One short untraced and one traced run of every workload at seed 2004."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.plain, cls.traced = {}, {}
        for name in WORKLOADS:
            cls.plain[name] = run.run_workload(name, SEED, 1, False, SPEC)
            cls.traced[name] = run.run_workload(name, SEED, 1, True, SPEC)

    def test_runs_pass_every_check_and_match_recorded_digests(self):
        recorded = run.recorded_digests()
        for name in WORKLOADS:
            for meta, result in (self.plain[name], self.traced[name]):
                with self.subTest(workload=name, trace=meta["trace"]):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertIn(str(SEED), recorded[name])
                    for seed, digest in meta["digests"].items():
                        self.assertEqual(digest, recorded[name][seed])

    def test_names_and_units_match_benchmark_json(self):
        for section, runs in (("end_to_end", self.plain), ("per_layer", self.traced)):
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            for name in WORKLOADS:
                printed = {k: v["unit"] for k, v in runs[name][1]["metrics"].items()}
                self.assertEqual(printed, expected, f"{section} {name}")

    def test_metadata_on_every_output(self):
        for runs in (self.plain, self.traced):
            for name in WORKLOADS:
                meta = runs[name][0]
                for key in ("cores", "cpu_model", "build_type", "compiler", "git_sha", "seed"):
                    self.assertIn(key, meta)
                self.assertEqual(meta["build_type"], "Release")

    def test_workloads_do_what_their_names_claim(self):
        self.assertGreaterEqual(metrics(self.plain["a2a-fail-169"][1])["delivery_ratio"], 0.99)
        self.assertGreaterEqual(metrics(self.plain["cluster-20k"][1])["delivery_ratio"], 0.99)
        self.assertGreater(metrics(self.traced["a2a-fail-169"][1])["faults.node_downs"], 0)
        # 100 ms horizon / 2 ms epochs: one full DBF rebuild per epoch, plus
        # the traced run's probe rebuild after the loop.
        self.assertEqual(metrics(self.traced["reconverge-169"][1])["routing.rebuilds"], 50 + 1)
        # A sink-reach stress: 12 of 99,999 items reach the sink at this seed.
        sink = self.traced["sink-100k"][1]
        self.assertEqual(metrics(sink)["stats.delay_samples"], 12)

    def test_layer_shares_confirm_the_workload_choice(self):
        layer = {name: metrics(self.traced[name][1]) for name in WORKLOADS}
        rebuild = {n: m["routing.rebuild_s"] / m["exp.loop_s"] for n, m in layer.items()}
        self.assertGreaterEqual(rebuild["reconverge-169"], 0.40)
        self.assertLess(rebuild["a2a-fail-169"], 0.05)
        count = {n: m["core.expected_count_s"] / m["exp.loop_s"] for n, m in layer.items()}
        self.assertGreaterEqual(count["cluster-20k"], 0.30)
        for name in ("a2a-fail-169", "reconverge-169", "sink-100k"):
            self.assertLess(count[name], 0.01, name)
        sink = layer["sink-100k"]
        self.assertGreaterEqual(sink["routing.build_s"] / sink["exp.setup_s"], 0.50)

    def test_construction_replay_matches_the_scenario_constructor(self):
        # The replay mirrors exp::Scenario's constructor by hand; if the two
        # drift apart, the split stops describing what setup_s measures.
        for name in ("cluster-20k", "sink-100k"):
            m = metrics(self.traced[name][1])
            replayed = sum(m[k] for k in CONSTRUCTION_LAYERS)
            ratio = replayed / m["exp.setup_s"]
            self.assertTrue(1 / 1.5 <= ratio <= 1.5, f"{name}: replay/setup = {ratio:.3f}")


class GateTest(unittest.TestCase):
    def test_digest_mismatch_counts_as_failed_run(self):
        checker = run.Checker({"7": "e1-d1-expected"})
        checker.run("rep 0", 7, "", "e1-d1-expected")
        checker.run("rep 1", 7, "", "e2-d1-other")
        checker.run("rep 2", 8, "", "e3-d1-unrecorded")
        checker.run("rep 3", 8, "", "e3-d1-unrecorded")
        checker.run("rep 4", 8, "delivery below the workload floor", "e3-d1-unrecorded")
        self.assertEqual((checker.attempted, checker.failed), (5, 2))

    def test_record_replaces_a_stale_digest(self):
        run.build()
        recorded = run.recorded_digests()
        stale = json.loads(json.dumps(recorded))
        stale["cluster-20k"][str(SEED)] = "e0-d0-stale"
        original = run.DIGESTS
        with tempfile.TemporaryDirectory() as tmp:
            run.DIGESTS = Path(tmp) / "digests.json"
            try:
                run.DIGESTS.write_text(json.dumps(stale))
                _, result = run.run_workload("cluster-20k", SEED, 1, False, SPEC, record=True)
                rewritten = run.recorded_digests()
            finally:
                run.DIGESTS = original
        self.assertTrue(result["correct"])
        self.assertEqual(rewritten, recorded)

    def test_compare_refuses_mixed_core_counts(self):
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        with tempfile.TemporaryDirectory() as tmp:
            files = []
            for cores in (1, 4):
                path = Path(tmp) / f"runs{cores}.jsonl"
                meta = {"cores": cores, "workload": "sink-100k", "trace": 0}
                path.write_text(json.dumps({"meta": meta}) + "\n" + json.dumps(result) + "\n")
                files.append(str(path))
            proc = subprocess.run([sys.executable, str(run.HERE / "compare.py"),
                                   "--base", files[0], "--head", files[1]],
                                  capture_output=True, text=True)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("core counts", proc.stderr)

    def test_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
