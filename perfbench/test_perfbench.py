"""Tests of the benchmark's own logic.

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import unittest
from collections import Counter
from pathlib import Path

import layers
import run

ROOT = Path(__file__).resolve().parent.parent


def span(name, start, end, parent=None, **counts):
    s = {"name": name, "start": start, "end": end, "parent": parent, "job": "j"}
    if counts:
        s["counts"] = counts
    return s


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, parent=0),
            span("b", 3.0, 6.0, parent=0),  # overlaps a: union 1..6
            span("a.child", 2.0, 3.0, parent=1),
        ]
        self.assertEqual(layers.self_times(spans), [5.0, 2.0, 3.0, 1.0])

    def test_child_outside_parent_is_clipped(self):
        spans = [span("root", 0.0, 4.0), span("late", 3.0, 9.0, parent=0)]
        self.assertEqual(layers.self_times(spans), [3.0, 6.0])

    def test_covered_length_merges_and_ignores_empty(self):
        self.assertEqual(layers.covered_length([(5, 7), (0, 2), (1, 3), (4, 4)]), 5)
        self.assertEqual(layers.covered_length([]), 0.0)

    def test_layer_metrics_sums_self_time_calls_and_counts(self):
        job = [
            span("cli.main", 0.0, 10.0),
            span("assembly.b_coefficients", 1.0, 4.0, parent=0, K=3),
            span("assembly.t_over_tanh_series", 1.5, 3.5, parent=1),
            span("series.series_div", 2.0, 3.0, parent=2),
            span("assembly.b_coefficients", 5.0, 6.0, parent=0, K=3),
            span("linalg.exact_rank", 6.0, 7.0, parent=0, entries=12),
        ]
        m = layers.layer_metrics([(job, 100, 0.5)])
        self.assertEqual(m["assembly.b_coefficients.calls"], 2)
        self.assertEqual(m["assembly.b_coefficients.distinct_ratio"], 0.5)
        self.assertEqual(m["series.series_div.calls"], 1)
        self.assertEqual(m["series.series_div.self_s"], 0.5)
        self.assertEqual(m["assembly.t_over_tanh.self_s"], 0.5)
        # b_coefficients self 1 + 1, t_over_tanh self 1, all scaled by 0.5
        self.assertEqual(m["assembly.self_s"], 1.5)
        self.assertEqual(m["linalg.matrix_entries"], 12)
        self.assertEqual(m["cli.bytes_out"], 100)
        self.assertEqual(set(m), {x.name for x in layers.PER_LAYER})


class GoldenCheckTest(unittest.TestCase):
    ring = run.Job(("ring", "--k", "1"), "text")
    verify = run.Job(("verify", "--genus", "2"), "json")

    def golden(self, stdout: bytes) -> dict:
        return {
            self.ring.key: {"check": "digest", "sha256": hashlib.sha256(stdout).hexdigest()},
            self.verify.key: {"check": "status"},
        }

    def test_matching_digest_passes(self):
        self.assertIsNone(run.check_job(self.ring, 0, b"ok\n", b"", self.golden(b"ok\n")))

    def test_wrong_digest_is_flagged(self):
        failure = run.check_job(self.ring, 0, b"changed\n", b"", self.golden(b"ok\n"))
        self.assertIn("differs from golden", failure)

    def test_nonzero_exit_is_flagged(self):
        failure = run.check_job(self.ring, 1, b"ok\n", b"", self.golden(b"ok\n"))
        self.assertEqual(failure, "exit status 1, expected 0")

    def test_crash_is_told_apart_from_exit_status(self):
        tb = b"Traceback (most recent call last):\n  ...\nZeroDivisionError\n"
        self.assertIn("crashed: uncaught exception", run.check_job(self.ring, 1, b"", tb, {}))
        self.assertIn("killed by signal 9", run.check_job(self.ring, -9, b"", b"", {}))

    def test_job_without_golden_entry_is_flagged(self):
        self.assertEqual(run.check_job(self.ring, 0, b"", b"", {}), "no golden entry for this job")

    def test_verify_overall_in_every_format(self):
        doc = {"data": {"overall": "fail"}}
        stdout = json.dumps(doc).encode()
        failure = run.check_job(self.verify, 0, stdout, b"", self.golden(b""))
        self.assertIn("expected 'pass'", failure)
        self.assertEqual(run.verify_overall("text", b"report\n[   pass] x: y\noverall: PASS\n"), "pass")
        latex = (
            b"\\begin{tabular}{llp{8cm}}\ncheck & status & details \\\\\n\\hline\n"
            b"a & pass & fine \\\\\nb & fail & broken \\\\\n\\end{tabular}\n"
        )
        self.assertEqual(run.verify_overall("latex", latex), "fail")
        self.assertEqual(run.verify_overall("latex", latex.replace(b"fail", b"skipped")), "pass")


class PlanTest(unittest.TestCase):
    def test_seed_keeps_multiset_and_even_format_split(self):
        for workload in run.WORKLOADS.values():
            for seed in range(12):
                jobs = run.plan(workload, seed)
                self.assertEqual(Counter(j.args for j in jobs), Counter(workload.base))
                counts = Counter(j.fmt for j in jobs)
                self.assertEqual(set(counts), set(run.FORMATS))
                self.assertLessEqual(max(counts.values()) - min(counts.values()), 1)

    def test_pairing_runs_every_genus_in_every_format(self):
        jobs = run.plan(run.WORKLOADS["pairing"], 7)
        self.assertEqual(len({j.key for j in jobs}), len(jobs))
        for genus in {j.args for j in jobs}:
            self.assertEqual({j.fmt for j in jobs if j.args == genus}, set(run.FORMATS))

    def test_same_seed_same_plan_other_seed_other_order(self):
        w = run.WORKLOADS["verify-warm"]
        self.assertEqual(run.plan(w, 3), run.plan(w, 3))
        self.assertNotEqual(run.plan(w, 3), run.plan(w, 4))

    def test_golden_covers_every_job_any_seed_can_plan(self):
        golden = run.load_golden()
        for workload in run.WORKLOADS.values():
            for args in workload.base:
                for fmt in run.FORMATS:
                    key = run.Job(args, fmt).key
                    expected = "status" if args[0] == "verify" else "digest"
                    self.assertEqual(golden[key]["check"], expected, key)


class BenchmarkFileTest(unittest.TestCase):
    def test_names_match_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], [n for n, _ in run.END_TO_END])
        self.assertEqual([m["name"] for m in spec["per_layer"]], [m.name for m in layers.PER_LAYER])
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        units = dict(run.END_TO_END)
        for m in spec["end_to_end"]:
            self.assertEqual(m["unit"], units[m["name"]])
        for m, code in zip(spec["per_layer"], layers.PER_LAYER):
            self.assertEqual((m["unit"], m["better"]), (code.unit, code.better))


class TracedStdoutTest(unittest.TestCase):
    def test_tracing_leaves_stdout_and_status_alone(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop(layers.CACHE_ENV_VAR, None)
        args = ["pairing", "--genus", "4", "--format", "latex"]
        plain = subprocess.run(
            [sys.executable, "-m", "su2rep", *args], cwd=ROOT, env=env, capture_output=True
        )
        spans_path = ROOT / run.WORK_DIR_NAME / "test-spans.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
        traced = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "traced_main.py"),
             str(spans_path), "job-0", "--", *args],
            cwd=ROOT, env=env, capture_output=True,
        )
        self.assertEqual(traced.returncode, plain.returncode)
        self.assertEqual(traced.stdout, plain.stdout)
        spans = layers.read_spans(spans_path)
        spans_path.unlink()
        names = Counter(s["name"] for s in spans)
        self.assertEqual(names["cli.import"], 1)
        self.assertEqual(names["cli.main"], 1)
        self.assertEqual(names["assembly.pairing_matrix"], 1)
        self.assertEqual(names["cli.render.latex"], 1)
        # pairing_value is not wrapped; its b_coefficients calls still are
        self.assertGreater(names["assembly.b_coefficients"], 0)
        self.assertEqual(names["assembly.b_coefficients"], names["series.series_div"])


if __name__ == "__main__":
    unittest.main()
