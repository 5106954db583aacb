"""Self-test of the benchmark harness on tiny instances.

Run from the repository root with ``python3 -m unittest bench/test_bench.py``
(or ``python3 -m pytest bench``). It is not part of the library's test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def smoke(workload: str, trace: int) -> dict:
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--smoke",
                 "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = smoke(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if section == "end_to_end":
                        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))
                    if workload == "family-mix" and trace:
                        for branch in ("frechet", "not_attaining", "non_unique_on_n",
                                       "uncovered"):
                            metric = result["metrics"][f"differentiability.branch.{branch}"]
                            self.assertGreaterEqual(metric["value"], 1)
                    if workload == "orient-l1" and trace:
                        k = run.SMOKE_SIZES["orient-l1"]["k"]
                        tried = result["metrics"]["differentiability.l1.orientations_tried"]
                        # isometric, first failure at 2^(k-2), first failure at 2^(k-3)
                        want = 2 ** (k - 1) + (2 ** (k - 2) + 1) + (2 ** (k - 3) + 1)
                        self.assertEqual(tried["value"], want)

    def test_refuses_to_run_without_sources(self):
        bare = run.OUT / f"bare-{os.getpid()}"
        try:
            shutil.copytree(HERE, bare / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            done = bench("--workload", "norm-dense", "--seconds", "1", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


class Scaling(unittest.TestCase):
    def test_wall_time_is_divided_by_the_bracketing_slowdown(self):
        runner = run.Runner(ROOT)
        times = iter([1.5 * run.REFERENCES["kernel"], 0.5 * run.REFERENCES["kernel"],
                      3.0 * run.REFERENCES["kernel"]])
        runner.kernel = lambda: next(times)
        scaled, wall, code, _, _ = runner.timed(["--help"])
        self.assertEqual(code, 0)
        self.assertAlmostEqual(scaled, wall / 1.0)  # mean of 1.5 and 0.5
        scaled, wall, _, _, _ = runner.timed(["--help"])
        self.assertAlmostEqual(scaled, wall / 1.75)  # the last time opens the next bracket
        self.assertEqual(runner.slowdowns["kernel"], [1.0, 1.75])

    def test_reference_work_is_fixed(self):
        self.assertEqual(run.reference_work(), run.reference_work())
        self.assertGreater(run.Runner(ROOT).process(), 0)


class CorruptedReports(unittest.TestCase):
    """A report altered after the fact must fail its check, not pass."""

    @classmethod
    def setUpClass(cls):
        cls.workdir = run.OUT / f"test-{os.getpid()}"
        cls.runner = run.Runner(ROOT)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def report(self, workload: str, key_suffix: str):
        with contextlib.redirect_stdout(io.StringIO()):  # the instance log lines
            rnd = run.Round(workload, 5, 0, self.workdir, smoke=True)
        inv = next(i for i in rnd.invs if i.key.endswith(key_suffix))
        _, code, out, err = self.runner.spawn(inv.argv(rnd.path_of))
        report = json.loads(out)
        checks.check(inv, code, report)  # the genuine report passes
        return inv, code, report

    def test_norm_value_off_by_one(self):
        inv, code, report = self.report("norm-dense", "s0/norm")
        report["value"] = instances.render(checks.rat(report["value"]) + 1)
        with self.assertRaises(checks.CheckFailed):
            checks.check(inv, code, report)

    def test_witness_with_an_index_dropped(self):
        for cmd in ("potentials", "attains", "decide"):
            with self.subTest(cmd=cmd):
                inv, code, report = self.report("family-mix", f"random/{cmd}")
                witness = report["failure"]["witness"] if cmd == "decide" else report["witness"]
                witness["cycle"] = witness["cycle"][:-1]
                with self.assertRaises(checks.CheckFailed):
                    checks.check(inv, code, report)

    def test_short_star_reported_isometric(self):
        for name in ("short12", "short13"):
            with self.subTest(star=name):
                inv, _, _ = self.report("orient-l1", f"{name}/anchored/l1-check")
                with self.assertRaises(checks.CheckFailed):
                    checks.check(inv, 0, {"isometric_l1": True})

    def test_wrong_exit_code(self):
        inv, code, report = self.report("family-mix", "anchored/decide")
        with self.assertRaises(checks.CheckFailed):
            checks.check(inv, 1 - code, report)

    def test_verifier_counts_a_corrupted_report_as_failed(self):
        inv, code, report = self.report("norm-dense", "s1/norm")
        report["plan"] = report["plan"][1:]
        verify = run.Verifier(None)
        self.assertFalse(verify(inv, code, json.dumps(report), ""))
        self.assertEqual(len(verify.errors), 1)

    def test_verdict_differing_from_the_expected_one_fails(self):
        inv, code, report = self.report("family-mix", "anchored/decide")
        verify = run.Verifier({inv.key: {"kind": "uncovered"}})
        self.assertFalse(verify(inv, code, json.dumps(report), ""))


if __name__ == "__main__":
    unittest.main()
