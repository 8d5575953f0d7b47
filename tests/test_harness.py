import re
from pathlib import Path

import numpy as np
import pytest

from ssmd import harness
from ssmd.gaussian import rng_from_seed
from ssmd.harness import (
    CSV_HEADER,
    ConfigError,
    config_hash,
    config_text,
    emit_csv,
    format_csv,
    parse_config,
    sweep_a,
)
from ssmd.solver import run_compact
from ssmd.stepsizes import verify_suite
from ssmd.utility import make_problem, reference_solution
from ssmd.harness import _mc_run as mc_run, build_instance

SMALL = """
regime = compact
instance = inline
n = 4
cap = 1.0
budget = 1.5
a = 0.5
iterations = 25
runs = 4
seed = 11
"""


def test_parse_defaults_strongly_convex():
    cfg = parse_config("regime = strongly_convex\ninstance = test1\nlambda = 100\nseed = 42")
    assert cfg.iterations == 100
    assert cfg.runs == 100
    assert cfg.reg_weight == 100.0
    assert cfg.base_seed == 42


def test_parse_defaults_compact():
    cfg = parse_config("regime = compact\ninstance = test2\na = 10\nseed = 7")
    assert cfg.iterations == 1000
    assert cfg.a_values == (10.0,)
    assert cfg.reg_weight == 0.0


def test_parse_a_sweep_and_comments():
    cfg = parse_config("# comment\nregime = compact\na = 1, 2.5, 10  # sweep\n")
    assert cfg.a_values == (1.0, 2.5, 10.0)


def test_parse_rejects_bad_runs():
    with pytest.raises(ConfigError, match="runs must be >= 1"):
        parse_config("regime = compact\nruns = 0")


def test_parse_rejects_unknown_key_with_line():
    with pytest.raises(ConfigError, match="line 2: unknown key 'bogus'"):
        parse_config("regime = compact\nbogus = 3")


def test_parse_rejects_duplicate_and_unparsable():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("regime = compact\nruns = 2\nruns = 3")
    with pytest.raises(ConfigError, match="cannot parse value"):
        parse_config("regime = compact\nruns = soon")


def test_parse_lists_all_violations():
    with pytest.raises(ConfigError) as err:
        parse_config("regime = strongly_convex\nlambda = 0\nruns = 0\niterations = 0")
    msg = str(err.value)
    assert "runs must be >= 1" in msg
    assert "iterations must be >= 1" in msg
    assert "lambda > 0" in msg


def test_parse_requires_inline_parameters():
    with pytest.raises(ConfigError, match="inline instance requires"):
        parse_config("regime = compact\ninstance = inline")


def test_config_text_roundtrip():
    cfg = parse_config(SMALL)
    assert parse_config(config_text(cfg)) == cfg
    assert config_hash(cfg) == config_hash(parse_config(config_text(cfg)))
    other = parse_config(SMALL.replace("seed = 11", "seed = 12"))
    assert config_hash(other) != config_hash(cfg)


# every key, in non-canonical spellings and out of order
ALL_KEYS = """
reference_tol = 1E-3
compute_reference = YES
workers = 2
analytic_f = no
eval_samples = 500
seed = 0012
runs = 3
iterations = 50
a = 0.5,1e-3
schedule = step-2
lambda = 2
budget = 1.50
cap = 1
n = 4
instance = INLINE
regime = compact
"""

ALL_KEYS_CANONICAL = """regime = compact
instance = inline
n = 4
cap = 1.0
budget = 1.5
lambda = 2.0
schedule = step-2
a = 0.5,0.001
iterations = 50
runs = 3
seed = 12
eval_samples = 500
analytic_f = false
workers = 2
compute_reference = true
reference_tol = 0.001
"""

REGIME_ONLY_CANONICAL = """regime = strongly_convex
instance = test1
lambda = 100.0
schedule = step-1
a = 1.0
iterations = 100
runs = 100
seed = 0
eval_samples = 10000
analytic_f = true
workers = 1
compute_reference = false
reference_tol = 1e-06
"""


@pytest.mark.parametrize("text, want", [
    pytest.param(ALL_KEYS, ALL_KEYS_CANONICAL, id="inline-all-keys"),
    pytest.param("regime = strongly_convex", REGIME_ONLY_CANONICAL, id="regime-only"),
])
def test_config_text_is_canonical(text, want):
    cfg = parse_config(text)
    assert config_text(cfg) == want
    assert parse_config(want) == cfg


@pytest.mark.parametrize("key", [
    "n", "cap", "budget", "lambda", "a", "iterations", "runs", "seed",
    "eval_samples", "analytic_f", "workers", "compute_reference", "reference_tol",
])
def test_unparsable_value_names_the_key(key):
    with pytest.raises(ConfigError, match=f"^line 2: cannot parse value for '{key}'"):
        parse_config(f"regime = compact\n{key} = 1.5x\n")


def test_strongly_convex_sweep_has_one_summary():
    cfg = parse_config("regime = strongly_convex\na = 1, 2, 3\niterations = 2\nruns = 2\n")
    (a, summary), = sweep_a(cfg)
    assert a == 1.0 and summary.metadata["a_used"] == "1.0"


def test_stderr_is_finite_where_f_is_huge_but_finite():
    # cap, budget and a at the top of the accepted range, 2^60: f(x_hat) near
    # 1e16, and the stderr of two runs is |f_1 - f_2| / 2, with no warning
    top = repr(2.0 ** 60)
    cfg = parse_config(f"regime = compact\ninstance = inline\nn = 50\ncap = {top}\n"
                       f"budget = {top}\na = {top}, 1\niterations = 3\nruns = 2\n")
    summary = sweep_a(cfg)[0][1]
    f1, f2 = mc_run((cfg, build_instance(cfg), [(2.0 ** 60, cfg.base_seed),
                                                (2.0 ** 60, cfg.base_seed + 1)]))[0]
    assert np.max(np.abs(f1)) > 1e15 and np.isfinite(summary.stderr_f_avg).all()
    assert summary.stderr_f_avg == pytest.approx(np.abs(f1 - f2) / 2.0, rel=1e-14)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_block_parses_and_names_every_key():
    section = README.read_text(encoding="utf-8").split("### Config format", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    parse_config(block)
    for key in harness._KEYS:
        assert re.search(rf"^(# )?{key} = ", block, re.MULTILINE), key


def test_single_run_summary_equals_trace():
    cfg = parse_config(SMALL.replace("runs = 4", "runs = 1"))
    summary = sweep_a(cfg)[0][1]
    problem = make_problem(build_instance(cfg))
    trace = run_compact(problem, 0.5, cfg.iterations, rng_from_seed(cfg.base_seed))
    assert np.array_equal(summary.mean_f_avg, trace.f_avg)
    assert np.array_equal(summary.mean_f_min, trace.f_min)
    assert np.all(summary.stderr_f_avg == 0.0)


def test_experiment_deterministic():
    cfg = parse_config(SMALL)
    t1 = format_csv(sweep_a(cfg)[0][1])
    t2 = format_csv(sweep_a(cfg)[0][1])
    assert t1 == t2


def test_experiment_worker_invariance():
    cfg = parse_config(SMALL)
    assert format_csv(sweep_a(cfg, workers=1)[0][1]) == \
        format_csv(sweep_a(cfg, workers=2)[0][1])


def test_seed_streams_independent_of_order():
    cfg = parse_config(SMALL)
    order = [3, 0, 2, 1]  # deliberately out of order
    trace = run_compact(make_problem(build_instance(cfg)), 0.5, cfg.iterations,
                        [rng_from_seed(cfg.base_seed + r) for r in order])
    summary = sweep_a(cfg)[0][1]
    stacked = trace.f_avg[np.argsort(order)]  # rows back in seed order
    assert np.array_equal(summary.mean_f_avg, stacked.mean(axis=0))


def test_csv_shape_and_header(tmp_path):
    cfg = parse_config(SMALL.replace("iterations = 25", "iterations = 1"))
    summary = sweep_a(cfg)[0][1]
    text = format_csv(summary)
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3  # header + 2 data rows for K = 1
    assert all(len(line.split(",")) == 6 for line in lines[1:])


def assert_fields_round_trip(text):
    # k is an integer; every other field is the repr of the float it parses to
    for i, line in enumerate(text.splitlines()[1:]):
        k, *reals = line.split(",")
        assert k == str(i)
        assert all(repr(float(v)) == v for v in reals)


def test_csv_roundtrip_bytes(tmp_path):
    cfg = parse_config(SMALL)
    summary = sweep_a(cfg)[0][1]
    assert_fields_round_trip(format_csv(summary))


def test_csv_roundtrip_with_nan_rows():
    # a nan in any column (say, from a diverged run) survives the round trip
    from ssmd.harness import McSummary

    summary = McSummary(
        mean_f_avg=np.array([1.5, np.nan, 0.25]),
        stderr_f_avg=np.array([0.0, np.nan, 0.01]),
        mean_f_iter=np.array([2.0, np.nan, 0.5]),
        mean_f_min=np.array([2.0, 2.0, 0.5]),
        bound=np.array([9.0, 4.5, 3.0]),
    )
    text = format_csv(summary)
    assert "nan" in text
    assert_fields_round_trip(text)


def test_emit_csv_and_sidecar(tmp_path):
    cfg = parse_config(SMALL)
    summary = sweep_a(cfg)[0][1]
    path = tmp_path / "out.csv"
    emit_csv(summary, path)
    assert path.read_text() == format_csv(summary)
    meta = (tmp_path / "out.csv.meta").read_text()
    for key in ("config_hash", "c_est", "nu_est", "diameter_sq", "piece_slopes"):
        assert f"{key} = " in meta
    assert "regime = compact" in meta


def test_bound_column_formula():
    # strongly convex bound column: 2*Ct^2/((k+1) mu_f)
    cfg = parse_config("regime = strongly_convex\ninstance = test1\n"
                       "lambda = 100\nruns = 1\niterations = 3\nseed = 1")
    summary = sweep_a(cfg)[0][1]
    ct2 = float(summary.metadata["c_tilde_sq"])
    want = 2.0 * ct2 / ((np.arange(4) + 1.0) * 100.0)
    assert np.allclose(summary.bound, want, rtol=0, atol=1e-12)


def test_verify_suite_passes():
    results = verify_suite(100_000)
    assert all(k is None for _, k in results)
    names = [name for name, _ in results]
    assert "step_condition[tseng]" in names
    assert "sqrt_sum_growth[a=0.1]" in names


def test_verify_suite_boundary():
    assert all(k is None for _, k in verify_suite(1))


DETERMINISM_CONFIGS = [
    pytest.param("regime = strongly_convex\ninstance = test1\nlambda = 100\n"
                 "iterations = 12\nruns = 20\nseed = 5\n", id="strongly-convex-20-runs"),
    pytest.param("regime = compact\ninstance = test1\na = 1, 10, 30\n"
                 "iterations = 12\nruns = 5\nseed = 5\n", id="compact-3-a"),
    pytest.param("regime = compact\ninstance = test1\na = 1, 10\nanalytic_f = false\n"
                 "eval_samples = 500\niterations = 12\nruns = 5\nseed = 5\n",
                 id="compact-sampled"),
    # nearly every iterate binds: batches of 1 search each binding row in its
    # full sort, and batches of 7 (then 1) and 8 in its window of the top 65
    # values first, falling back to the full sort where the window is too short
    pytest.param("regime = compact\ninstance = inline\nn = 1000\ncap = 1\nbudget = 1\n"
                 "a = 1\niterations = 12\nruns = 8\nseed = 5\n", id="compact-binding-n1000"),
]


def experiment_bytes(cfg, tmp_path, workers, tag):
    out = []
    for i, (_, summary) in enumerate(sweep_a(cfg, workers=workers)):
        path = tmp_path / f"{tag}_{i}.csv"
        emit_csv(summary, path)
        out.append((path.read_bytes(), (tmp_path / f"{tag}_{i}.csv.meta").read_bytes()))
    return out


@pytest.mark.parametrize("text", DETERMINISM_CONFIGS)
def test_output_independent_of_workers_and_batch(text, tmp_path, monkeypatch):
    # the CSV and .meta bytes do not depend on how the (a, seed) tasks are
    # split into batches or spread over worker processes
    cfg = parse_config(text)
    runs = []

    def counting(args):
        runs.append(len(args[2]))
        return mc_run(args)

    monkeypatch.setattr(harness, "_mc_run", counting)
    want = experiment_bytes(cfg, tmp_path, 1, "serial")
    for batch in (1, 7, len(cfg.a_values) * cfg.runs):
        monkeypatch.setattr(harness, "BATCH_RUNS", batch)
        runs.clear()
        assert experiment_bytes(cfg, tmp_path, 1, f"b{batch}") == want
        assert max(runs) == batch and sum(runs) == len(cfg.a_values) * cfg.runs
    monkeypatch.undo()
    for workers in (2, 3):
        assert experiment_bytes(cfg, tmp_path, workers, f"w{workers}") == want



def test_workers_capped_at_the_chunk_count(tmp_path, monkeypatch):
    # two runs make two chunks, so workers = 8 opens a pool of at most 2
    # processes; a serial stand-in for the pool records it and starts none
    import concurrent.futures

    opened = []

    class SerialPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = parse_config(SMALL.replace("runs = 4", "runs = 2"))
    want = experiment_bytes(cfg, tmp_path, 1, "serial")
    assert experiment_bytes(cfg, tmp_path, 8, "w8") == want
    assert len(opened) == 1 and opened[0] <= 2

def test_reference_solved_once_per_config(monkeypatch):
    cfg = parse_config("regime = compact\ninstance = test1\nlambda = 100\na = 1, 10, 30\n"
                       "iterations = 3\nruns = 2\ncompute_reference = true\n")
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return reference_solution(*args, **kwargs)

    monkeypatch.setattr(harness, "reference_solution", counting)
    summaries = sweep_a(cfg)
    assert len(calls) == 1
    want = repr(reference_solution(build_instance(cfg), cfg.reference_tol)[1])
    assert [s.metadata["f_ref"] for _, s in summaries] == [want] * 3
