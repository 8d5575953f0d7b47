"""Self-test of the benchmark's output check and its BENCHMARK.json.

Run from the repository root:  python3 benchmarks/selftest.py

The check must accept a well-formed experiment CSV and reject two damaged
copies: one with a single mean_f_min row raised, and one whose final
mean_f_avg is moved off f_ref.  BENCHMARK.json must list exactly the
metrics and workloads that run.py reports.
"""

from __future__ import annotations

import json
import unittest
from pathlib import Path

import check
import run

F_REF = -0.05
K = 10


def _rows() -> list[list[float]]:
    """A CSV that passes: mean_f_min and bound decrease, final f near f_ref."""
    rows = []
    for k in range(K + 1):
        f = F_REF + 0.01 / (k + 1) ** 2
        rows.append([k, f, 0.001, f + 0.001, f, 2.0 / (k + 1)])
    return rows


def _text(rows) -> str:
    lines = [check.CSV_HEADER]
    lines += [",".join([str(int(r[0]))] + [repr(float(v)) for v in r[1:]]) for r in rows]
    return "\n".join(lines) + "\n"


def _problems(rows) -> list[str]:
    return check.check_experiment_csv(_text(rows), K, f_ref=F_REF, rel_tol=0.02)


class CheckTest(unittest.TestCase):
    def test_accepts_good_csv(self):
        self.assertEqual(_problems(_rows()), [])

    def test_rejects_raised_mean_f_min_row(self):
        rows = _rows()
        rows[5][4] = rows[4][4] + 1e-9
        problems = _problems(rows)
        self.assertEqual(len(problems), 1)
        self.assertIn("mean_f_min increases at k = 5", problems[0])

    def test_rejects_final_value_off_f_ref(self):
        rows = _rows()
        rows[-1][1] = F_REF * 1.03
        problems = _problems(rows)
        self.assertEqual(len(problems), 1)
        self.assertIn("off f_ref", problems[0])

    def test_rejects_malformed_csv(self):
        rows = _rows()
        self.assertTrue(_problems(rows[:-1]))
        rows[3][2] = float("nan")
        self.assertTrue(_problems(rows))
        rows = _rows()
        rows[2][5] = rows[1][5] * 2
        self.assertTrue(_problems(rows))

    def test_sampled_tolerance(self):
        text = _text(_rows())
        cols, _ = check.parse_csv(text, K)
        moved = {name: list(v) for name, v in cols.items()}
        moved["mean_f_avg"][1] += 0.01
        tols = [0.004] * (K + 1)
        gaps = []
        self.assertEqual(check.check_experiment_csv(text, K, analytic=cols,
                                                    tolerances=tols, gaps=gaps), [])
        self.assertEqual(gaps, [0.0] * (K + 1))
        problems = check.check_sampled(moved, cols, tols, gaps)
        self.assertEqual(len(problems), 1)
        self.assertIn("k = 1", problems[0])
        self.assertAlmostEqual(gaps[1], 0.01)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_run(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]},
                         run.PER_LAYER)
        design = json.loads((Path(__file__).parent / "design.json").read_text(
            encoding="utf-8"))
        self.assertEqual(sorted(design["workloads"]), sorted(run.WORKLOADS))
        for claim in design["checks"]:
            self.assertIn(claim["metric"], run.PER_LAYER)
        for name, (_, rel_tol) in run.WORKLOADS.items():
            self.assertEqual("f_ref" in design["workloads"][name], rel_tol is not None)


if __name__ == "__main__":
    unittest.main()
