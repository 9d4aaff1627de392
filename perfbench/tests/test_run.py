"""Tests of the benchmark's own helpers in perfbench/run.py.

    python3 -m unittest discover -s perfbench/tests
"""

import copy
import json
import sys
import tempfile
import unittest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402


def spec():
    return json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())


class PercentileTest(unittest.TestCase):

    def test_nearest_rank(self):
        values = list(range(1, 11))
        self.assertEqual(run.percentile(values, 0.5), 5)
        self.assertEqual(run.percentile(values, 0.9), 9)
        self.assertEqual(run.percentile(values, 0.91), 10)
        self.assertEqual(run.percentile(values, 1.0), 10)
        self.assertEqual(run.percentile(values, 0.01), 1)

    def test_returns_a_sample_and_ignores_order(self):
        values = [7.5, 0.25, 3.0, 9.0, 1.0]
        self.assertEqual(run.percentile(values, 0.5), 3.0)
        self.assertIn(run.percentile(values, 0.99), values)
        self.assertEqual(values, [7.5, 0.25, 3.0, 9.0, 1.0])

    def test_single_sample(self):
        self.assertEqual(run.percentile([4.2], 0.5), 4.2)
        self.assertEqual(run.percentile([4.2], 0.9), 4.2)

    def test_rank_is_exact_at_boundaries(self):
        # 0.9 * 100 is 90.00000000000001 in binary; rank stays 90.
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 0.9), 90)
        self.assertEqual(run.percentile(values, 0.99), 99)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            run.percentile([], 0.5)
        with self.assertRaises(ValueError):
            run.percentile([1.0], 0)
        with self.assertRaises(ValueError):
            run.percentile([1.0], 1.5)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertTrue(run.tail_supported(1, 0.5))
        self.assertFalse(run.tail_supported(0, 0.5))
        self.assertTrue(run.tail_supported(100, 0.9))
        self.assertFalse(run.tail_supported(99, 0.9))
        self.assertTrue(run.tail_supported(1000, 0.99))
        self.assertFalse(run.tail_supported(999, 0.99))


class SpecTest(unittest.TestCase):

    def test_checked_in_spec_is_valid(self):
        self.assertEqual(run.validate_spec(spec()), [])

    def assert_problem(self, mutate, fragment):
        s = spec()
        mutate(s)
        problems = run.validate_spec(s)
        self.assertTrue(any(fragment in p for p in problems), problems)

    def test_bad_names(self):
        for bad in ("_lead", "has space", "x" * 65, "", "a/b", "é"):
            self.assert_problem(
                lambda s, bad=bad: s["per_layer"][0].update(name=bad),
                "bad name")

    def test_duplicate_name_across_sections(self):
        self.assert_problem(
            lambda s: s["per_layer"][0].update(name="latency_p50_us"),
            "used twice")

    def test_bad_units(self):
        for bad in ("", "micro seconds", "u" * 17, "µs"):
            self.assert_problem(
                lambda s, bad=bad: s["end_to_end"][1].update(unit=bad),
                "bad unit")
        s = spec()
        s["end_to_end"][1]["unit"] = "1/s"
        self.assertEqual(run.validate_spec(s), [])

    def test_bounds_and_directions(self):
        self.assert_problem(
            lambda s: s["end_to_end"][1].update(bound=0.3), "bad bound")
        self.assert_problem(
            lambda s: s["end_to_end"][1].update(bound=0), "bad bound")
        self.assert_problem(
            lambda s: s["per_layer"][0].update(better="faster"), "bad better")
        self.assert_problem(
            lambda s: s["per_layer"][0].update(bound=0.1), "keys of")

    def test_setup_s_required(self):
        self.assert_problem(
            lambda s: s["end_to_end"].pop(0), "setup_s")
        self.assert_problem(
            lambda s: s["end_to_end"][0].update(unit="ms"), "setup_s")

    def test_workload_count_and_why(self):
        self.assert_problem(
            lambda s: s.update(workloads=s["workloads"][:1]), "2 to 8")
        self.assert_problem(
            lambda s: s["workloads"][0].update(why="two\nlines"), "bad why")


class MetricSelectionTest(unittest.TestCase):

    def resolved(self):
        return {m["name"]: (1.5, m["unit"], 10, "value")
                for m in spec()["end_to_end"]}

    def test_selects_exactly_the_listed_metrics(self):
        resolved = self.resolved()
        resolved["extra.metric"] = (2.0, "us", 5, "value")
        out = run.select_metrics(spec()["end_to_end"], resolved)
        self.assertEqual(set(out), {m["name"] for m in spec()["end_to_end"]})
        self.assertEqual(out["setup_s"], {"value": 1.5, "unit": "s"})

    def test_missing_metric_is_an_error(self):
        resolved = self.resolved()
        del resolved["pc"]
        with self.assertRaises(run.BenchError):
            run.select_metrics(spec()["end_to_end"], resolved)

    def test_unit_mismatch_is_an_error(self):
        resolved = self.resolved()
        resolved["setup_s"] = (1.5, "ms", 3, "median")
        with self.assertRaises(run.BenchError):
            run.select_metrics(spec()["end_to_end"], resolved)

    def test_unsupported_tail_is_an_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            samples = run.array.array("d", [float(i) for i in range(50)])
            (Path(tmp) / "lat.f64").write_bytes(samples.tobytes())
            report = {"metrics": {
                "p50": {"unit": "us", "samples": "lat", "q": 0.5},
                "p90": {"unit": "us", "samples": "lat", "q": 0.9}}}
            with self.assertRaises(run.BenchError):
                run.resolve_metrics(report, Path(tmp))
            del report["metrics"]["p90"]
            resolved = run.resolve_metrics(report, Path(tmp))
            self.assertEqual(resolved["p50"], (24.0, "us", 50, "median"))


class CountLedgerTest(unittest.TestCase):

    def test_counts_must_repeat(self):
        with tempfile.TemporaryDirectory() as tmp:
            ledger = Path(tmp) / "counts.json"
            counts = {"link.comparisons": 10, "link.pairs": 3}
            self.assertEqual(run.check_counts(ledger, "k", counts), [])
            self.assertEqual(
                run.check_counts(ledger, "k", copy.deepcopy(counts)), [])
            self.assertEqual(
                run.check_counts(ledger, "k", dict(counts, **{
                    "link.pairs": 4})), ["link.pairs"])
            # Another key (other seed or binary) starts its own entry.
            self.assertEqual(
                run.check_counts(ledger, "k2", {"link.pairs": 4}), [])


class SetupBurstTest(unittest.TestCase):
    """setup_s comes from bursts of separate set-up processes."""

    def setUp(self):
        self.saved = run.run_program

    def tearDown(self):
        run.run_program = self.saved

    def fake_processes(self, values):
        calls = []

        def fake(program, args, run_dir, setup, deadline):
            self.assertTrue(setup)
            value = values[len(calls) % len(values)]
            calls.append(value)
            return 0, {}, {"setup_s": (value, "s", 1, "value"),
                           "setup_wall_s": (2 * value, "s", 1, "value")}

        run.run_program = fake
        return calls

    def test_one_value_per_process_within_limits(self):
        calls = self.fake_processes([3.0, 1.0, 2.0, 9.0, 2.5])
        values = run.setup_burst(None, None, None, float("inf"))
        self.assertEqual(values, [{"setup_s": v, "setup_wall_s": 2 * v}
                                  for v in calls])
        self.assertGreaterEqual(len(calls), run.SETUP_MIN_PROCESSES)
        self.assertLessEqual(len(calls), run.SETUP_MAX_PROCESSES)

    def test_missing_figure_is_an_error(self):
        def fake(program, args, run_dir, setup, deadline):
            return 0, {}, {"setup_s": (1.0, "s", 1, "value")}

        run.run_program = fake
        with self.assertRaises(run.BenchError):
            run.setup_burst(None, None, None, float("inf"))

    def test_failed_process_is_an_error(self):
        def fake(program, args, run_dir, setup, deadline):
            return 1, {}, {}

        run.run_program = fake
        with self.assertRaises(run.BenchError):
            run.setup_burst(None, None, None, float("inf"))


if __name__ == "__main__":
    unittest.main()
