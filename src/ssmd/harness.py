"""Experiment configuration, Monte-Carlo orchestration, and CSV output.

Config files are UTF-8 ``key = value`` lines with ``#`` comments; unknown
keys are rejected.  Run r of an experiment uses the 64-bit seed
``base_seed + r`` (wrapping), so the result is a deterministic function of
the config alone: re-running a config reproduces the CSV byte for byte,
and the worker count and the batch size only change how runs are scheduled,
not the fold order of the reduction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gaussian import rng_from_seed
from .sets import CappedBox, bregman_diameter_sq, range_errors
from .solver import (
    compact_rate_bound,
    run_compact,
    run_strongly_convex,
    strongly_convex_rate_bounds,
)
from .stepsizes import NesterovStepsize, TsengStepsize
from .utility import (
    INSTANCE_LABELS,
    default_instance,
    estimate_constants,
    instance_metadata,
    make_instance,
    make_problem,
    reference_gap,
    reference_solution,
)

STRONGLY_CONVEX = "strongly_convex"
COMPACT = "compact"

_SCHEDULES = {"step-1": TsengStepsize, "step-2": NesterovStepsize}

# Samples used for the empirical constants behind the bound column; the
# estimation stream is derived from base_seed so the bound is reproducible.
CONSTANT_SAMPLES = 2000
_CONSTANTS_SEED_XOR = 0xA5A5A5A5A5A5A5A5

# the row index k, then McSummary fields, in CSV column order
CSV_COLUMNS = ("k", "mean_f_avg", "stderr_f_avg", "mean_f_iter", "mean_f_min", "bound")
CSV_HEADER = ",".join(CSV_COLUMNS)

# Runs advanced together by one engine call; caps each batch's (R, n) state
# and its per-block stacks.  Output does not depend on it.
BATCH_RUNS = 32


class ConfigError(ValueError):
    """Invalid experiment configuration; message lists every violation."""


@dataclass(frozen=True)
class ExperimentConfig:
    regime: str
    instance: str = "test1"
    n: Optional[int] = None
    cap: Optional[float] = None
    budget: Optional[float] = None
    reg_weight: float = 0.0
    schedule: str = "step-1"
    a_values: tuple = (1.0,)
    iterations: int = 0
    runs: int = 100
    base_seed: int = 0
    eval_samples: int = 10_000
    analytic_f: bool = True
    workers: int = 1
    compute_reference: bool = False
    reference_tol: float = 1e-6


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_reals(raw: str) -> tuple:
    return tuple(float(s) for s in raw.split(","))


# key -> (ExperimentConfig field, parser), in the order config_text writes them
_KEYS = {
    "regime": ("regime", str),
    "instance": ("instance", str.lower),
    "n": ("n", int),
    "cap": ("cap", float),
    "budget": ("budget", float),
    "lambda": ("reg_weight", float),
    "schedule": ("schedule", str),
    "a": ("a_values", _parse_reals),
    "iterations": ("iterations", int),
    "runs": ("runs", int),
    "seed": ("base_seed", int),
    "eval_samples": ("eval_samples", int),
    "analytic_f": ("analytic_f", _parse_bool),
    "workers": ("workers", int),
    "compute_reference": ("compute_reference", _parse_bool),
    "reference_tol": ("reference_tol", float),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config; raises ConfigError with every problem found."""
    values: dict = {}
    errors: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEYS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        name, parse = _KEYS[key]
        if name in values:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        try:
            values[name] = parse(val)
        except ValueError:
            errors.append(f"line {lineno}: cannot parse value for {key!r}: {val!r}")
    if errors:
        raise ConfigError("; ".join(errors))

    if values.get("regime") not in (STRONGLY_CONVEX, COMPACT):
        errors.append("regime must be 'strongly_convex' or 'compact'")
        values["regime"] = COMPACT
    strongly_convex = values["regime"] == STRONGLY_CONVEX
    values.setdefault("reg_weight", 100.0 if strongly_convex else 0.0)
    values.setdefault("iterations", 100 if strongly_convex else 1000)
    cfg = ExperimentConfig(**values)

    if cfg.runs < 1:
        errors.append("runs must be >= 1")
    if cfg.iterations < 1:
        errors.append("iterations must be >= 1")
    if cfg.regime == STRONGLY_CONVEX and cfg.reg_weight <= 0.0:
        errors.append("strongly_convex requires lambda > 0")
    if cfg.reg_weight != 0.0:  # 0 is legal, nan is not
        errors += range_errors("lambda", cfg.reg_weight)
    if cfg.schedule not in _SCHEDULES:
        errors.append(f"schedule must be one of {sorted(_SCHEDULES)}")
    errors += range_errors("a", *cfg.a_values)
    if cfg.instance == "inline":
        if cfg.n is None or cfg.cap is None or cfg.budget is None:
            errors.append("inline instance requires n, cap and budget")
        else:
            try:
                CappedBox(cfg.n, cfg.cap, cfg.budget)
            except ValueError as exc:  # n, or the range of cap and budget
                errors.append(str(exc))
    elif cfg.instance not in INSTANCE_LABELS:
        errors.append(f"instance must be one of {list(INSTANCE_LABELS)} or 'inline'")
    else:
        errors += [f"{key} applies only to instance = inline"
                   for key in ("n", "cap", "budget") if key in values]
    if cfg.eval_samples < 1:
        errors.append("eval_samples must be >= 1")
    if cfg.workers < 1:
        errors.append("workers must be >= 1")
    if not 0.0 < cfg.reference_tol < np.inf:
        errors.append("reference_tol must be positive and finite")
    if errors:
        raise ConfigError("; ".join(errors))
    return cfg


def config_text(cfg: ExperimentConfig) -> str:
    """Canonical serialization; parsing it back yields an equal config."""
    lines = []
    for key, (name, _) in _KEYS.items():
        value = getattr(cfg, name)
        if value is None:
            continue
        if isinstance(value, bool):
            value = str(value).lower()
        elif isinstance(value, tuple):
            value = ",".join(repr(v) for v in value)
        elif not isinstance(value, str):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Content hash of the canonical serialization (git blob convention)."""
    body = config_text(cfg).encode("utf-8")
    return hashlib.sha1(b"blob %d\0" % len(body) + body).hexdigest()


@dataclass
class McSummary:
    """Mean/stderr aggregates over Monte-Carlo runs plus the bound curve, at
    k = 0..K."""

    mean_f_avg: np.ndarray
    stderr_f_avg: np.ndarray
    mean_f_iter: np.ndarray
    mean_f_min: np.ndarray
    bound: np.ndarray
    metadata: dict


def build_instance(cfg: ExperimentConfig):
    if cfg.instance == "inline":
        return make_instance("inline", n=cfg.n, cap=cfg.cap, budget=cfg.budget,
                             reg_weight=cfg.reg_weight)
    return default_instance(cfg.instance, reg_weight=cfg.reg_weight)


def _mc_run(args: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f_avg, f_iter, f_min) of a chunk's (a, seed) tasks, one row each in order,
    from one batch of runs on one instance; top level so process pools can dispatch it."""
    cfg, instance, tasks = args
    problem = make_problem(instance, f_eval_samples=cfg.eval_samples,
                           analytic_f=cfg.analytic_f)
    a_list, seeds = zip(*tasks)
    rngs = [rng_from_seed(seed) for seed in seeds]
    if cfg.regime == STRONGLY_CONVEX:
        trace = run_strongly_convex(problem, _SCHEDULES[cfg.schedule](),
                                    cfg.iterations, rngs)
    else:
        trace = run_compact(problem, a_list, cfg.iterations, rngs)
    return trace.f_avg, trace.f_iter, trace.f_min


def instance_constants(cfg: ExperimentConfig, instance) -> dict:
    """Empirical constants of cfg's instance behind the bound column, derived
    from base_seed: C and nu are maxima over sampled points of the grad_f norm
    and of the closed-form root noise second moment (see estimate_constants)."""
    const_rng = rng_from_seed(cfg.base_seed ^ _CONSTANTS_SEED_XOR)
    c_est, nu_est = estimate_constants(instance, CONSTANT_SAMPLES, const_rng)
    return {
        "c_est": c_est,
        "nu_est": nu_est,
        "c_tilde_sq": c_est**2 + nu_est**2,
        "diameter_sq": bregman_diameter_sq(instance.feasible_set),
    }


def bound_curve(cfg: ExperimentConfig, a: float, constants: dict) -> np.ndarray:
    """Theoretical gap-bound values at k = 0..iterations for this config."""
    ks = np.arange(cfg.iterations + 1)
    if cfg.regime == STRONGLY_CONVEX:
        return strongly_convex_rate_bounds(ks, constants["c_tilde_sq"], cfg.reg_weight)[0]
    return compact_rate_bound(ks, a, constants["diameter_sq"], constants["c_tilde_sq"])


def a_values(cfg: ExperimentConfig) -> tuple:
    """The a of each summary: every configured a in the compact regime, only the
    first in the strongly convex one, where a plays no part."""
    return cfg.a_values if cfg.regime == COMPACT else cfg.a_values[:1]


def sweep_a(cfg: ExperimentConfig, workers: Optional[int] = None) -> list[tuple]:
    """(a, summary) for every a of a_values(cfg), in order; one instance gives
    the constants, the reference solution and every run, and the (a, seed) tasks
    of every a run in chunks of at most BATCH_RUNS, coming back in task order."""
    a_list = a_values(cfg)
    workers = cfg.workers if workers is None else int(workers)
    instance = build_instance(cfg)
    constants = instance_constants(cfg, instance)
    x_ref, f_ref = reference_solution(instance, cfg.reference_tol) \
        if cfg.compute_reference else (None, None)

    seeds = [cfg.base_seed + r for r in range(cfg.runs)]
    tasks = [(a, s) for a in a_list for s in seeds]
    size = min(BATCH_RUNS, -(-len(tasks) // workers))
    chunks = [(cfg, instance, tasks[i:i + size]) for i in range(0, len(tasks), size)]
    if workers > 1:
        # imported here, so a serial run and every other CLI command skip multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            done = list(pool.map(_mc_run, chunks))
    else:
        done = [_mc_run(chunk) for chunk in chunks]
    # (f_avg, f_iter, f_min), each with every task's row in task order
    curves = np.concatenate(done, axis=1)
    shared = {
        **{key: repr(value) for key, value in constants.items()},
        "mu_f": repr(cfg.reg_weight),
        "mu_w": repr(1.0),
        **instance_metadata(instance),
        **({} if f_ref is None else {"f_ref": repr(f_ref),
                                     "f_lower": repr(f_ref - reference_gap(instance, x_ref))}),
        "config": config_text(cfg),
    }
    summaries = []
    for i, a in enumerate(a_list):
        # a's runs as C-ordered rows in seed order, so the means fold in run order
        f_avg, f_iter, f_min = curves[:, i * cfg.runs:(i + 1) * cfg.runs]
        stderr = f_avg.std(axis=0, ddof=1) / np.sqrt(cfg.runs) if cfg.runs > 1 \
            else np.zeros(cfg.iterations + 1)
        summaries.append((a, McSummary(
            mean_f_avg=f_avg.mean(axis=0), stderr_f_avg=stderr,
            mean_f_iter=f_iter.mean(axis=0), mean_f_min=f_min.mean(axis=0),
            bound=bound_curve(cfg, a, constants),
            metadata={"config_hash": config_hash(cfg), "a_used": repr(a), **shared})))
    return summaries


def format_csv(summary: McSummary) -> str:
    # repr of a Python float is the shortest decimal string that round-trips
    columns = (getattr(summary, name) for name in CSV_COLUMNS[1:])
    rows = (",".join([str(k), *(repr(float(v)) for v in row)])
            for k, row in enumerate(zip(*columns)))
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def emit_csv(summary: McSummary, path) -> None:
    """Write the summary CSV and a sibling <path>.meta with config/constants."""
    path = str(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_csv(summary))
    meta_lines = []
    for key, val in summary.metadata.items():
        if key == "config":
            continue
        meta_lines.append(f"{key} = {val}")
    config_echo = summary.metadata.get("config", "")
    body = "\n".join(meta_lines) + "\n# config\n" + config_echo
    with open(path + ".meta", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(body)
