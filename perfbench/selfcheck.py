"""Quick self-check of the benchmark harness (about ten seconds).

    python3 perfbench/selfcheck.py

Checks span self-time arithmetic, the comparison with pinned outcomes and
rusage parsing on synthetic data, then traces a tiny qglue configuration
(``--suite su2,hopf --d 16``) in a fresh process.
"""

from __future__ import annotations

import json
import resource
import unittest

import run
from tracer import self_times, summarize

TINY = ["verify", "--suite", "su2,hopf", "--d", "16", "--format", "csv", "--seed", "1"]

CSV = (
    "suite,check,status,value,expected,residual,anchor\n"
    "chi,pairing N=+2 [pr],pass,2.0000000000000004,2,4.4e-16,x\n"
    "disc,relation [q],pass,,,2.2e-16,y\n"
)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            ["root", -1, 0.0, 10.0],
            ["a", 0, 1.0, 4.0],
            ["b", 0, 5.0, 6.0],
            ["c", 1, 2.0, 3.0],
        ]
        self.assertEqual(self_times(spans), [6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_count_once(self):
        spans = [["root", -1, 0.0, 10.0], ["a", 0, 1.0, 5.0], ["b", 0, 3.0, 12.0]]
        self.assertEqual(self_times(spans)[0], 1.0)

    def test_summary_adds_calls(self):
        spans = [["root", -1, 0.0, 4.0], ["a", 0, 0.0, 1.0], ["a", 0, 2.0, 3.0]]
        summary = summarize(spans)
        self.assertEqual(summary["a"], {"calls": 2, "wall_s": 2.0, "self_s": 2.0})
        self.assertEqual(summary["root"]["self_s"], 2.0)


class ReferenceComparison(unittest.TestCase):
    def setUp(self):
        records = run.outcomes(CSV)
        self.reference = {"counts": run.counts(records), "records": records}

    def test_pairing_is_rounded(self):
        self.assertEqual(self.reference["records"][0], ["chi", "pairing N=+2 [pr]", "pass", 2])
        self.assertIsNone(self.reference["records"][1][3])

    def test_float_drift_is_not_a_failure(self):
        drifted = CSV.replace("2.0000000000000004", "1.9999999999999998").replace("2.2e-16", "3e-16")
        self.assertEqual(run.compare(drifted, self.reference), (3, 0))

    def test_status_and_pairing_changes_fail(self):
        self.assertEqual(run.compare(CSV.replace(",pass,,", ",fail,,"), self.reference), (3, 2))
        self.assertEqual(run.compare(CSV.replace("2.0000000000000004", "3.0"), self.reference), (3, 1))

    def test_missing_and_extra_records_fail(self):
        self.assertEqual(run.compare(None, self.reference), (3, 3))
        truncated = "\n".join(CSV.splitlines()[:2]) + "\n"
        self.assertEqual(run.compare(truncated, self.reference), (3, 2))
        extra = CSV + "hopf,antipode,pass,,,0.0,z\n"
        self.assertEqual(run.compare(extra, self.reference), (4, 2))


class Rusage(unittest.TestCase):
    def test_usage_figures(self):
        usage = resource.struct_rusage((1.5, 0.25) + (2048,) + (0,) * 13)
        self.assertEqual(run.usage_figures(usage), (2.0, 1.75))


class TinyRun(unittest.TestCase):
    def test_traced_tiny_run_matches_untraced(self):
        work = run.WORK / "selfcheck"
        work.mkdir(parents=True, exist_ok=True)
        deadline = run.Deadline(120)
        plain_out = work / "plain.csv"
        plain = run.launch(run.qglue_cmd([*TINY, "--out", str(plain_out)]), work / "log", deadline)
        self.assertEqual(plain["code"], 0)
        self.assertGreater(plain["peak_rss_mb"], 10)
        self.assertGreater(plain["cpu_s"], 0)
        self.assertLessEqual(plain["cpu_s"], plain["wall_s"] * run.blas_threads() + 0.1)
        records = run.outcomes(run.read_report(plain_out))
        reference = {"counts": run.counts(records), "records": records}

        out, result_path = work / "traced.csv", work / "trace.json"
        traced = run.launch(
            run.child_cmd("trace", result_path, out, "--", *TINY), work / "log", deadline
        )
        self.assertEqual(traced["code"], 0)
        checks = run.Checks(reference)
        checks.report(traced["code"], out)
        self.assertEqual((checks.attempted, checks.failed), (len(records) + 1, 0))

        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        spans = result["trace"]["spans"]
        names = {span[0] for span in spans}
        self.assertTrue({"cli.run", "suites.su2", "suites.hopf", "report.serialize"} <= names)
        own = self_times(spans)
        self.assertTrue(all(value >= 0 for value in own))
        root = next(span for span in spans if span[1] == -1)
        self.assertAlmostEqual(sum(own), root[3] - root[2], places=9)
        metrics = run.layer_metrics(result["trace"], 1, result["nf_cache_entries"])
        self.assertGreater(metrics["presentations.normal_form.calls"][0], 0)
        self.assertGreater(metrics["coefficients.CoefPoly.mul.calls"][0], 0)


if __name__ == "__main__":
    unittest.main()
