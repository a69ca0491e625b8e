"""Self-tests of the benchmark runner (`run.py`).

    python3 -m unittest discover -s perfbench/tests

They need no build: the pass-process test runs small Python children.
"""

import json
import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class MetricSpec(unittest.TestCase):
    def test_names_are_valid_and_unique(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        metric_names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(metric_names), len(set(metric_names)))

    def test_metric_counts_are_within_limits(self):
        self.assertLessEqual(len(SPEC["end_to_end"]), 16)
        self.assertLessEqual(len(SPEC["per_layer"]), 128)
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(run.WORKLOADS))

    def test_end_to_end_metrics_are_the_ones_run_py_computes(self):
        passes = [{"traced": False, "total_s": 2.0, "setup_s": 1.0, "cpu_s": 3.0,
                   "peak_rss_mb": 40.0}]
        metrics = run.end_to_end(passes, SPEC["end_to_end"])
        self.assertEqual(set(metrics), {m["name"] for m in SPEC["end_to_end"]})
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertIn("setup_s", metrics)


class Correctness(unittest.TestCase):
    def setUp(self):
        self.dir = run.ROOT / ".bench_work" / f"selftest-{self.id()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        for name in ("a.csv", "b.csv"):
            (self.dir / name).write_text(f"header\n{name}\n")
        self.ops = [
            {"name": "a", "attempted": 1, "failed": 0, "files": ["a.csv"], "detail": ""},
            {"name": "b", "attempted": 1, "failed": 0, "files": ["b.csv"], "detail": ""},
        ]
        self.reference = {n: run.file_digest(self.dir / n) for n in ("a.csv", "b.csv")}

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def test_unaltered_outputs_pass(self):
        self.assertEqual(run.check_ops(self.ops, self.dir, self.reference, {})[:2], (2, 0))

    def test_altered_output_is_a_failed_operation(self):
        (self.dir / "b.csv").write_text("header\ntampered\n")
        attempted, failed, problems = run.check_ops(self.ops, self.dir, self.reference, {})
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("b:", problems[0])

    def test_output_that_changes_between_passes_fails_without_a_reference(self):
        seen = {}
        self.assertEqual(run.check_ops(self.ops, self.dir, None, seen)[1], 0)
        (self.dir / "a.csv").write_text("header\nother\n")
        self.assertEqual(run.check_ops(self.ops, self.dir, None, seen)[1], 1)

    def test_missing_output_fails_every_unit_of_its_operation(self):
        ops = [{"name": "sweep", "attempted": 8, "failed": 0, "files": ["gone.json"],
                "detail": ""}]
        self.assertEqual(run.check_ops(ops, self.dir, None, {})[:2], (8, 8))

    def test_failed_ratio(self):
        self.assertEqual(run.failed_ratio(28, 0), 0.0)
        self.assertEqual(run.failed_ratio(28, 7), 0.25)
        self.assertEqual(run.failed_ratio(0, 0), 0.0)
        attempted, failed, _ = run.check_ops(
            [dict(self.ops[0], failed=1, detail="boom"), self.ops[1]], self.dir, None, {})
        self.assertEqual(run.failed_ratio(attempted, failed), 0.5)


class PassProcess(unittest.TestCase):
    def test_each_pass_is_a_process_with_its_own_usage(self):
        burn = ("import time; b = bytearray(96 << 20); t = time.process_time()\n"
                "while time.process_time() - t < 0.3: pass\nprint('{}')")
        idle = "print('{}')"
        heavy = run.run_pass([sys.executable, "-c", burn], run.ROOT)
        light = run.run_pass([sys.executable, "-c", idle], run.ROOT)
        self.assertNotEqual(heavy["pid"], light["pid"])
        self.assertEqual((heavy["returncode"], light["returncode"]), (0, 0))
        self.assertGreaterEqual(heavy["cpu_s"], 0.3)
        self.assertLess(light["cpu_s"], heavy["cpu_s"] - 0.2)
        self.assertGreater(heavy["peak_rss_mb"], light["peak_rss_mb"] + 64)

    def test_a_failing_pass_reports_its_exit_code(self):
        done = run.run_pass([sys.executable, "-c", "raise SystemExit(3)"], run.ROOT)
        self.assertEqual(done["returncode"], 3)


if __name__ == "__main__":
    unittest.main()
