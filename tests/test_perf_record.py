"""Smoke test of the performance recorder (perf/record.py)."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from test_cli import PINNED

from ssmd.cli import main

ROOT = Path(__file__).resolve().parent.parent
TINY = ("regime = compact\ninstance = inline\nn = 4\ncap = 1.0\nbudget = 1.5\n"
        "a = 0.5, 1.0\niterations = 10\nruns = 3\nseed = 11\n")


def test_record_writes_the_cli_digests_without_numpy(tmp_path):
    cfg, out = tmp_path / "tiny.cfg", tmp_path / "bench.json"
    cfg.write_text(TINY)
    # the launcher itself must not import numpy, or a child's peak RSS is not its own
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import record; "
            "status = record.main(sys.argv[2:]); "
            "assert 'numpy' not in sys.modules; sys.exit(status)")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "perf"), "--out", str(out),
                           "--skip-tier1", str(cfg)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    record = json.loads(out.read_text())
    assert set(record) == {"provenance", "repeats", "configs", "tier1"}
    assert record["tier1"] is None and record["repeats"] == 5
    assert {"python", "numpy", "nproc", "git_sha", "pythondontwritebytecode"} \
        <= set(record["provenance"])
    entry = record["configs"]["tiny"]
    assert set(entry) == {"config", "config_hash", "wall_s", "bounds_wall_s", "peak_rss_mb",
                          "sha256"}
    for wall in (entry["wall_s"], entry["bounds_wall_s"]):
        assert len(wall["samples"]) == 5 and wall["q1"] <= wall["median"] <= wall["q3"]
    assert entry["peak_rss_mb"] > 0.0

    ours = tmp_path / "ours"
    assert main(["experiment", "--config", str(cfg), "--out", str(ours)]) == 0
    want = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in ours.iterdir()}
    assert entry["sha256"] == want and len(want) == 4
    assert f"config_hash = {entry['config_hash']}\n" in (ours / "experiment_a0.csv.meta").read_text()


def test_committed_benchmark_configs_are_the_pinned_ones():
    # the four benchmark workloads, as benchmarks/run.py writes them at seed 41
    texts = {p.stem: p.read_text() for p in (ROOT / "perf" / "configs").glob("*.cfg")}
    bench = {name: texts[name] for name in ("sc_test1", "compact_test1_sweep",
                                            "compact_bind_n1000", "sampled_test1")}
    assert all(text in PINNED for text in bench.values())
    assert set(texts) - set(bench) == {"compact_test1_mc", "compact_bind_mc", "sc_test1_mc"}
