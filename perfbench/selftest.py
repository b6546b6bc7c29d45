"""Self-test of the benchmark's output checks, config generation and
statistics.

    python3 perfbench/selftest.py

Needs only the standard library: it exercises the checkers on synthetic
outputs, not on the program.
"""

from __future__ import annotations

import json
import os
import tempfile
import unittest

import compare
import stats
import workloads

HEADER = "iter,f_alpha,H_T,I_TX,I_TY,step_divergence,gamma_ratio,fixed_point_residual"


def _csv(rows: list[tuple[float, float]]) -> str:
    """A run-qib CSV with the given (f_alpha, gamma_ratio) rows."""
    lines = [HEADER]
    for i, (f, ratio) in enumerate(rows, 1):
        lines.append(f"{i},{f!r},0,0,0,0,{ratio!r},0")
    lines.append("# status=max_iters")
    return "\n".join(lines) + "\n"


class TraceChecks(unittest.TestCase):
    def check(self, rows, alpha=1.0, gamma=None, reference=None):
        config = {"alpha": alpha} if gamma is None else {"alpha": alpha, "gamma": gamma}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_csv(rows))
            problems, misses = workloads.check_run_qib(path, config, reference)
        self.assertEqual(misses, [])
        return problems

    def test_accepts_a_descending_run(self):
        self.assertEqual(self.check([(0.0, 0.5), (-1.0, 0.4), (-1.5, float("nan"))]), [])

    def test_rejects_ratio_above_alpha(self):
        problems = self.check([(0.0, 1.0 + 1e-6), (-1.0, 0.4)])
        self.assertTrue(any("exceeds alpha" in p for p in problems), problems)

    def test_rejects_rise_at_gamma_equal_alpha(self):
        problems = self.check([(0.0, 0.5), (1e-6, 0.5)])
        self.assertTrue(any("rose" in p for p in problems), problems)

    def test_rise_allowed_when_ratio_exceeds_gamma(self):
        self.assertEqual(self.check([(0.0, 0.9), (1.0, 0.5)], gamma=0.4), [])
        self.assertTrue(self.check([(0.0, 0.3), (1.0, 0.5)], gamma=0.4))

    def test_reference_mismatch(self):
        self.assertEqual(self.check([(0.0, 0.5), (-1.0, 0.5)], reference=-1.0 + 1e-9), [])
        self.assertTrue(self.check([(0.0, 0.5), (-1.0, 0.5)], reference=-1.0 + 1e-7))


class SuffstatsChecks(unittest.TestCase):
    METRICS = {"f_dib_final": -5.7, "f_dib_baseline": -5.6,
               "i_ty_final": 0.37, "i_x1y_baseline": 0.36}

    def test_accepts_a_solution_below_the_baseline(self):
        self.assertEqual(workloads.check_suffstats_metrics(self.METRICS), [])

    def test_rejects_final_objective_above_baseline(self):
        misses = workloads.check_suffstats_metrics({**self.METRICS, "f_dib_final": -5.5})
        self.assertTrue(any("above baseline" in m for m in misses), misses)

    def test_rejects_lost_information(self):
        misses = workloads.check_suffstats_metrics({**self.METRICS, "i_ty_final": 0.3})
        self.assertTrue(any("i_ty_final" in m for m in misses), misses)


class Configs(unittest.TestCase):
    def test_one_seed_gives_byte_identical_configs(self):
        for workload in workloads.WORKLOADS.values():
            first, second = workload.configs(7), workload.configs(7)
            self.assertEqual("".join(first).encode(), "".join(second).encode())
            self.assertNotEqual(first, workload.configs(8))
            self.assertEqual(len(set(first)), len(first))

    def test_configs_are_json_objects_with_a_seed(self):
        for workload in workloads.WORKLOADS.values():
            self.assertIn("seed", json.loads(workload.configs(1)[0]))


class Statistics(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        xs = [float(i) for i in range(100)]
        value, pct = stats.tail(xs)
        self.assertEqual(sum(1 for x in xs if x > value), 10)
        self.assertEqual(pct, 90.0)

    def test_tail_falls_back_to_median(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (2.0, 50.0))

    def test_compare_verdicts(self):
        base = {s: 1.0 + 0.001 * s for s in range(10)}
        faster = {s: 0.5 + 0.001 * s for s in range(10)}
        slower = {s: 1.5 + 0.001 * s for s in range(10)}
        self.assertEqual(compare.verdict(base, faster, "lower", 0.1)[0], "improved")
        self.assertEqual(compare.verdict(base, slower, "lower", 0.1)[0], "worse")
        self.assertEqual(compare.verdict(base, base, "lower", 0.1)[0], "no worse within bound")
        noisy = {s: 1.0 + (s % 2) for s in range(10)}
        self.assertEqual(compare.verdict(noisy, noisy, "lower", 0.1)[0], "unresolved")


if __name__ == "__main__":
    unittest.main()
