#!/usr/bin/env python3
"""Verdicts of tools/perf_ab.py on injected runs (no benchmark is built).

    python3 tests/test_perf_ab.py
"""

import contextlib
import io
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import perf_ab  # noqa: E402

HEAD = perf_ab.HEAD


def result(speed, correct=True, failed=0):
    return {"correct": correct, "attempted": 1, "failed": failed,
            "metrics": {"cycles_per_s": {"value": speed, "unit": "cycles/s"}}}


class FakeRuns:
    """A run function: each checkout reads the next of its speeds."""

    def __init__(self, speeds, overrides=None):
        self.speeds = {k: list(v) for k, v in speeds.items()}
        self.overrides = overrides or {}  # checkout -> result of every run
        self.calls = []

    def __call__(self, checkout, workload):
        self.calls.append((checkout, workload))
        if checkout in self.overrides:
            return self.overrides[checkout]
        seq = self.speeds[checkout]
        return result(seq.pop(0) if len(seq) > 1 else seq[0])


def quiet(fn, *args, **kwargs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        value = fn(*args, **kwargs)
    return value, out.getvalue()


class PerfAbTest(unittest.TestCase):
    def compare(self, runs, workload):
        verdict, _ = quiet(perf_ab.compare, runs, "base", workload,
                           perf_ab.BASE_FLOORS[workload])
        return verdict

    def test_consistent_slowdown_fails_figure_sweep(self):
        runs = FakeRuns({HEAD: [900.0], "base": [1000.0]})
        self.assertEqual(self.compare(runs, "figure_sweep"), "FAIL")
        self.assertEqual(len(runs.calls), 2 * perf_ab.PAIRS)

    def test_same_slowdown_passes_uniform_sat(self):
        runs = FakeRuns({HEAD: [900.0], "base": [1000.0]})
        self.assertEqual(self.compare(runs, "uniform_sat"), "PASS")

    def test_mixed_pairs_below_floor_run_more_and_are_unresolved(self):
        # Pairs alternate 0.5 and 1.1: a median under 0.85 with HEAD slower
        # in only about half of them.
        head = [500.0, 1100.0] * perf_ab.PAIRS
        runs = FakeRuns({HEAD: head, "base": [1000.0]})
        self.assertEqual(self.compare(runs, "uniform_sat"), "unresolved")
        self.assertEqual(len(runs.calls), 4 * perf_ab.PAIRS)

    def test_unresolved_passes_the_gate(self):
        head = [500.0, 1100.0] * 40
        runs = FakeRuns({HEAD: head, "b": [1000.0], "a": [1000.0]})
        code, out = quiet(perf_ab.main, ["--base", "b", "--anchor", "a"],
                          run=runs)
        self.assertEqual(code, 0, out)
        self.assertIn("unresolved", out)
        self.assertIn("perf_ab: PASS", out)

    def test_incorrect_or_failed_runs_fail(self):
        for bad in (result(1000.0, correct=False), result(1000.0, failed=1),
                    None):
            for side in (HEAD, "base"):
                with self.subTest(bad=bad, side=side):
                    runs = FakeRuns({HEAD: [1000.0], "base": [1000.0]},
                                    {side: bad})
                    self.assertEqual(self.compare(runs, "uniform_sat"), "FAIL")

    def test_pair_order_alternates(self):
        runs = FakeRuns({HEAD: [1000.0], "base": [1000.0]})
        self.assertEqual(self.compare(runs, "figure_sweep"), "PASS")
        order = [checkout for checkout, _ in runs.calls]
        want = []
        for i in range(perf_ab.PAIRS):
            want += [HEAD, "base"] if i % 2 == 0 else ["base", HEAD]
        self.assertEqual(order, want)

    def test_anchor_floor_is_applied(self):
        floor = perf_ab.ANCHOR_FLOORS["uniform_sat"]
        self.assertAlmostEqual(
            floor, 1.5 / perf_ab.ANCHOR_SPEEDUP["uniform_sat"])
        self.assertEqual(set(perf_ab.ANCHOR_FLOORS),
                         {"uniform_sat", "adversarial_sat_sharded"})
        # As fast as the base, but under 1.5x the pre-flat-state kernel.
        slow = 1000.0 * floor * 0.9
        runs = FakeRuns({HEAD: [slow], "b": [slow], "a": [1000.0]})
        code, out = quiet(perf_ab.main, ["--base", "b", "--anchor", "a"],
                          run=runs)
        self.assertEqual(code, 1, out)
        self.assertIn("uniform_sat vs anchor: FAIL", out)
        self.assertIn("uniform_sat vs base: PASS", out)
        self.assertIn("perf_ab: FAIL", out)
        # Just above the anchor floor passes.
        fast = 1000.0 * floor * 1.02
        runs = FakeRuns({HEAD: [fast], "b": [fast], "a": [1000.0]})
        code, out = quiet(perf_ab.main, ["--base", "b", "--anchor", "a"],
                          run=runs)
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
