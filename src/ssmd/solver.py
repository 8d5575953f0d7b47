"""Iteration engines for stochastic subgradient mirror descent.

Two regimes are provided: the strongly convex engine, which scales the
schedule by 1/mu_f and requires a mirror map with the quadratic upper
bound, and the compact-set engine with the a/sqrt(k+1) schedule.  Both
maintain the 1/alpha-weighted running average and record a per-iteration
trace.  A uniform-averaging baseline shares the compact engine's iterates.

The rate-bound calculators evaluate the guarantees the engines are tested
against:

* strongly convex, weighted average:   gap <= 2*Ct^2 / ((k+1) mu_f mu_w)
                                        ||xhat - x*||^2 <= 4*Ct^2 / ((k+1) mu_f^2 mu_w)
                                        ||x_k - x*||^2  <= 4*Ct^2 / ((k+1) mu_f^2 mu_w^2)
* compact set:   gap <= 3/(2 sqrt(k+1)) * (d^2/a + a (C^2 + nu^2)/mu_w)
  (noiseless variant uses a C^2/(2 mu_w) second term)

where Ct^2 bounds the second moment of the stochastic subgradient, C the
deterministic subgradient norm, nu^2 the noise variance, and d^2 the
Bregman diameter of the set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .averaging import AverageState
from .gaussian import rng_from_seed
from .mirror import FEAS_TOL, MirrorMap, prox_step
from .stepsizes import InverseSqrtStepsize


def block_rows(n: int) -> int:
    """Rows per block of n-vectors: at most 4096 floats, or one row."""
    return max(1, 4096 // n)


def no_noise(rng: np.random.Generator, rows: int) -> np.ndarray:
    """Noise of an oracle that draws nothing: one empty row per iteration."""
    return np.empty((rows, 0))


@dataclass
class ProblemHandle:
    """Everything an engine needs to run on one problem instance.

    noise(rng, rows) draws the oracle noise of `rows` iterations, one row per
    iteration, and oracle(x, xi) returns the stochastic subgradient at x for
    one such row.  f_exact maps a stack of points (..., n) to one value per
    point (...).  f_sampler(x, rng, draws=None) returns one sample of f per
    point (...) from one draw shared by every point, or with draws = d the
    samples of d successive such draws (d, ...), equal to d calls bit for bit."""

    oracle: Callable[[np.ndarray, np.ndarray], np.ndarray]
    feasible_set: object
    mirror_map: MirrorMap
    x0: np.ndarray
    noise: Callable[[np.random.Generator, int], np.ndarray] = no_noise
    mu_f: float = 0.0
    f_exact: Optional[Callable[[np.ndarray], np.ndarray]] = None
    f_sampler: Optional[Callable[..., np.ndarray]] = None
    x_star: Optional[np.ndarray] = None
    f_eval_samples: int = 10_000
    f_eval_seed: int = 0


@dataclass
class RunTrace:
    """Per-iteration metrics of one run; arrays all have length K+1."""

    k: np.ndarray
    f_iter: np.ndarray
    f_avg: np.ndarray
    f_min: np.ndarray
    dist_iter_sq: Optional[np.ndarray]
    dist_avg_sq: Optional[np.ndarray]
    x_hat_final: np.ndarray
    seed: Optional[int]
    meta: dict = field(default_factory=dict)


def _f_evaluator(problem: ProblemHandle):
    """f on a stack of points (m, n) -> (m,), and the run's f metadata."""
    if problem.f_exact is not None:
        return problem.f_exact, {"f_mode": "exact"}
    if problem.f_sampler is None:
        return None, {"f_mode": "none"}

    def estimate(points):
        # every point sees the same f_eval_samples draws from f_eval_seed, d per
        # call; added in draw order, each sum is the one-draw loop's bit for bit
        rng = rng_from_seed(problem.f_eval_seed)
        m, samples = points.shape[0], problem.f_eval_samples
        total = np.zeros(m)
        for start in range(0, samples, block_rows(m)):
            d = min(block_rows(m), samples - start)
            for row in _checked(problem.f_sampler(points, rng, d), (d, m)):
                total += row
        return total / samples

    return estimate, {"f_mode": "sample_average", "f_eval_samples": problem.f_eval_samples,
                      "f_eval_seed": problem.f_eval_seed}


def _checked(values, shape: tuple):
    if np.shape(values) != shape:
        raise ValueError(f"f must map a stack of {shape[-1]} points to values of "
                         f"shape {shape}, got shape {np.shape(values)}")
    return values


def _run(problem: ProblemHandle, alpha_fn, step_scale: float, num_iterations: int,
         rng: np.random.Generator, seed: Optional[int], uniform_average: bool) -> RunTrace:
    set_ = problem.feasible_set
    mmap = problem.mirror_map
    x = np.asarray(problem.x0, dtype=float)
    if not set_.contains(x, FEAS_TOL):
        raise ValueError("initial point is infeasible")

    f, meta = _f_evaluator(problem)
    m = num_iterations + 1
    n = x.shape[0]
    # x_k and x_hat_k are copied into a block of B iterations, and f and the
    # distances are evaluated once per block on its (2B, n) stack; the oracle
    # noise of the block's iterations is drawn in one call at its start
    rows = block_rows(n)
    block = np.empty((rows, 2, n))
    f_vals = np.full((m, 2), np.nan)
    x_star = None if problem.x_star is None else np.asarray(problem.x_star, dtype=float)
    dist = None if x_star is None else np.empty((m, 2))

    state = AverageState.empty()
    run_sum = np.zeros_like(x)
    x_hat = x
    for k in range(m):
        a_k = float(alpha_fn(k))
        if uniform_average:
            run_sum = run_sum + x
            x_hat = run_sum / (k + 1)
        else:
            state = state.absorb(x, a_k)
            x_hat = state.x_hat
        j = k % rows
        block[j, 0] = x
        block[j, 1] = x_hat
        if j == rows - 1 or k == num_iterations:
            done = block[:j + 1]
            if f is not None:
                points = done.reshape(-1, n)
                f_vals[k - j:k + 1] = _checked(f(points), points.shape[:1]).reshape(-1, 2)
            if dist is not None:
                dist[k - j:k + 1] = np.sum((done - x_star) ** 2, axis=-1)
        if k < num_iterations:
            if j == 0:
                xi = problem.noise(rng, min(rows, num_iterations - k))
            x = prox_step(mmap, set_, x, problem.oracle(x, xi[j]), a_k * step_scale)

    f_iter, f_avg = f_vals.T.copy()
    dist_iter, dist_avg = (None, None) if dist is None else dist.T.copy()
    return RunTrace(
        k=np.arange(m),
        f_iter=f_iter,
        f_avg=f_avg,
        f_min=np.minimum.accumulate(f_iter),
        dist_iter_sq=dist_iter,
        dist_avg_sq=dist_avg,
        x_hat_final=x_hat.copy(),
        seed=seed,
        meta=meta,
    )


def run_strongly_convex(problem: ProblemHandle, schedule, num_iterations: int,
                        rng: np.random.Generator, seed: Optional[int] = None) -> RunTrace:
    """Run the strongly convex engine: prox steps of size alpha_k / mu_f."""
    if problem.mu_f <= 0.0:
        raise ValueError("the strongly convex engine requires mu_f > 0")
    if not problem.mirror_map.satisfies_quadratic_upper_bound:
        raise ValueError("the strongly convex engine requires the quadratic upper bound")
    if isinstance(schedule, InverseSqrtStepsize):
        raise ValueError("a/sqrt(k+1) is not certified for the strongly convex engine")
    if num_iterations < 1:
        raise ValueError("num_iterations must be positive")
    return _run(problem, schedule.alpha, 1.0 / problem.mu_f, num_iterations, rng, seed,
                uniform_average=False)


def run_compact(problem: ProblemHandle, a: float, num_iterations: int,
                rng: np.random.Generator, seed: Optional[int] = None) -> RunTrace:
    """Run the compact-set engine with alpha_k = a/sqrt(k+1)."""
    if not getattr(problem.feasible_set, "is_bounded", False):
        raise ValueError("the compact engine requires a bounded feasible set")
    if num_iterations < 1:
        raise ValueError("num_iterations must be positive")
    sched = InverseSqrtStepsize(a)
    return _run(problem, sched.alpha, 1.0, num_iterations, rng, seed,
                uniform_average=False)


def run_baseline_uniform(problem: ProblemHandle, a: float, num_iterations: int,
                         rng: np.random.Generator, seed: Optional[int] = None) -> RunTrace:
    """Compact-engine iterates with a plain arithmetic-mean average."""
    if not getattr(problem.feasible_set, "is_bounded", False):
        raise ValueError("the compact engine requires a bounded feasible set")
    if num_iterations < 1:
        raise ValueError("num_iterations must be positive")
    sched = InverseSqrtStepsize(a)
    return _run(problem, sched.alpha, 1.0, num_iterations, rng, seed,
                uniform_average=True)


def combined_second_moment(grad_bound_sq: float, noise_var: float,
                           euclidean_norm: bool = True) -> float:
    """Second-moment bound Ct^2 for a noisy subgradient with ||g|| <= C and
    noise variance <= nu^2: C^2 + nu^2 under the Euclidean norm, doubled for
    a general norm."""
    s = grad_bound_sq + noise_var
    return s if euclidean_norm else 2.0 * s


def strongly_convex_rate_bounds(k, c_tilde_sq: float, mu_f: float, mu_w: float):
    """(gap bound, avg distance bound, iterate distance bound) at iteration k."""
    if c_tilde_sq <= 0.0 or mu_f <= 0.0 or mu_w <= 0.0:
        raise ValueError("parameters must be positive")
    k = np.asarray(k, dtype=float)
    gap = 2.0 / (k + 1.0) * c_tilde_sq / (mu_f * mu_w)
    avg_dist = 4.0 / (k + 1.0) * c_tilde_sq / (mu_f**2 * mu_w)
    iter_dist = 4.0 / (k + 1.0) * c_tilde_sq / (mu_f**2 * mu_w**2)
    return gap, avg_dist, iter_dist


def compact_rate_bound(k, a: float, diameter_sq: float, grad_bound_sq: float,
                       noise_var: float, mu_w: float):
    """Gap bound for the compact engine at iteration k."""
    if a <= 0.0 or mu_w <= 0.0:
        raise ValueError("parameters must be positive")
    k = np.asarray(k, dtype=float)
    return 1.5 / np.sqrt(k + 1.0) * (
        diameter_sq / a + a * (grad_bound_sq + noise_var) / mu_w
    )


def noiseless_compact_rate_bound(k, a: float, diameter_sq: float,
                                 grad_bound_sq: float, mu_w: float):
    """Gap bound for the compact engine with error-free subgradients."""
    if a <= 0.0 or mu_w <= 0.0:
        raise ValueError("parameters must be positive")
    k = np.asarray(k, dtype=float)
    return 1.5 / np.sqrt(k + 1.0) * (
        diameter_sq / a + a * grad_bound_sq / (2.0 * mu_w)
    )


def optimal_stepsize_scale(diameter: float, grad_bound_sq: float, noise_var: float,
                           mu_w: float, noiseless: bool = False) -> float:
    """The scale a minimizing the compact-engine gap bound.

    With ``noiseless=True`` the minimized expression is the error-free bound
    (second term C^2/(2 mu_w)), which requires noise_var = 0 and gives
    a* = d*sqrt(2*mu_w)/C; otherwise a* = d / sqrt((C^2 + nu^2)/mu_w).
    """
    if diameter <= 0.0 or mu_w <= 0.0:
        raise ValueError("parameters must be positive")
    if noiseless:
        if noise_var != 0.0:
            raise ValueError("the noiseless optimum requires noise_var = 0")
        return diameter * np.sqrt(2.0 * mu_w) / np.sqrt(grad_bound_sq)
    return diameter / np.sqrt((grad_bound_sq + noise_var) / mu_w)
