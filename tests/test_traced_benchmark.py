"""Smoke test of the benchmark's traced run (benchmarks/traced.py).

traced.py replaces library functions by name (harness.run_compact,
utility.f_value, cli.instance_constants, ...), so renaming one of them breaks
the benchmark; this test makes such a rename fail in the suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("config, span", [
    ("regime = compact\ninstance = test1\na = 1, 10\niterations = 3\nruns = 1\n"
     "analytic_f = false\neval_samples = 20\n", "utility.f_sampler"),
    ("regime = strongly_convex\ninstance = test1\nlambda = 100\niterations = 3\n"
     "runs = 2\n", "utility.f_value"),
], ids=["compact-sampled", "strongly-convex"])
def test_traced_experiment_exits_0(tmp_path, config, span):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config)
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "traced.py"), str(spans), "--",
         "experiment", "--config", str(cfg), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    called = {doc["names"][s[0]] for s in doc["spans"]}
    # the engine's steps are the one-point functions traced.py patches
    assert {"cli.main", "solver.run", "harness.instance_constants",
            "utility.oracle", "mirror.prox_step", "averaging.absorb", span} <= called
