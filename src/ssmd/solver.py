"""Iteration engines for stochastic subgradient mirror descent.

Two regimes are provided: the strongly convex engine, which scales the
schedule by 1/mu_f and requires a mirror map with the quadratic upper
bound, and the compact-set engine with the a/sqrt(k+1) schedule.  Both
maintain the 1/alpha-weighted running average and record a per-iteration
trace.  A uniform-averaging baseline shares the compact engine's iterates.
One engine serves all three: it advances a stack of runs, one row per run,
and a single run is a batch of one.

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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .gaussian import rng_from_seed
from .mirror import FEAS_TOL, MirrorMap, prox, prox_step  # noqa: F401 (re-exported)
from .stepsizes import InverseSqrtStepsize, kahan_cumsum, schedule_alphas


# Floats in the engine's per-block stack of iterates x_k of all R runs: 4096
# per run of a full harness batch (BATCH_RUNS = 32).  A block is
# max(1, BLOCK_FLOATS // (R n)) iterations, so a smaller batch gets longer blocks
# and pays the per-block noise draw, f call and feasibility check fewer times.
BLOCK_FLOATS = 32 * 4096


def no_noise(rng: np.random.Generator, rows: int) -> np.ndarray:
    """Noise of an oracle that draws nothing: one empty row per iteration."""
    return np.empty((rows, 0))


@dataclass
class ProblemHandle:
    """Everything an engine needs to run on one problem instance.

    noise(rng, rows) draws one run's oracle noise of `rows` iterations, one
    row per iteration; oracle(x, xi) returns the stochastic subgradients at a
    stack of points x (R, n), one per run, given each run's noise row xi (R, d),
    or one (n,) for every point.  f_exact maps a stack of points (..., n) to
    one value per point (...).  f_sampler(x, rng, samples=None) returns one
    sample of f per point (...) from one draw shared by every point, or with
    samples = N each point's mean over the N draws that N such calls make;
    a point's value does not depend on the points stacked with it.  The
    engine takes f_exact if set, and otherwise the mean of f_eval_samples
    draws from f_eval_seed, with one f_sampler call per block."""

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


def _f_evaluator(problem: ProblemHandle):
    """f on a stack of points (m, n) -> (m,), or None."""
    if problem.f_exact is not None or problem.f_sampler is None:
        return problem.f_exact
    return lambda points: problem.f_sampler(points, rng_from_seed(problem.f_eval_seed),
                                            problem.f_eval_samples)


def _checked(values, shape: tuple):
    if np.shape(values) != shape:
        raise ValueError(f"f must map a stack of {shape[-1]} points to values of "
                         f"shape {shape}, got shape {np.shape(values)}")
    return values


def _run(problem: ProblemHandle, alphas: np.ndarray, step_scale: float,
         num_iterations: int, rng, uniform_average: bool):
    """The runs of a batch, advanced together: row i of the (R, n) state is run
    i, with its own generator and its own column of alphas (K+1, R).  Returns
    one RunTrace, or a list of R of them when rng is a list."""
    if num_iterations < 1:
        raise ValueError("num_iterations must be positive")
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    set_ = problem.feasible_set
    x0 = np.asarray(problem.x0, dtype=float)
    if x0.ndim != 1 or not set_.contains(x0, FEAS_TOL):
        raise ValueError("the initial point must be one feasible point (n,)")
    alphas = np.broadcast_to(alphas, (num_iterations + 1, len(rngs)))
    if not np.all((alphas > 0.0) & (alphas < np.inf)):
        raise ValueError("stepsizes must be positive and finite")
    steps = alphas[..., None] * step_scale

    f = _f_evaluator(problem)
    m = num_iterations + 1
    x = np.tile(x0, (len(rngs), 1))
    runs, n = x.shape
    # x_k and x_hat_k of every run are copied into a block of B iterations,
    # where f, the distances and feasibility are checked once on the block's
    # (B, 2, R) stack of points; each run's oracle noise of the block's
    # iterations is drawn from its stream in one call at the block's start.
    # f and the distances are per point and one draw of B n normals equals B
    # draws of n, so no output depends on B
    rows = max(1, BLOCK_FLOATS // (runs * n))
    block = np.empty((rows, 2, runs, n))
    f_vals = np.full((m, 2, runs), np.nan)
    x_star = None if problem.x_star is None else np.asarray(problem.x_star, dtype=float)
    dist = None if x_star is None else np.empty((m, 2, runs))

    # x_hat_k by AverageState's recursion, on each run's Kahan sums S_k of 1/alpha_t
    sums = kahan_cumsum(1.0 / alphas)
    ratios = (sums[:-1] / sums[1:])[..., None]
    run_sum = np.zeros_like(x)
    for k in range(m):
        if uniform_average:
            run_sum = run_sum + x
            x_hat = run_sum / (k + 1)
        elif k == 0:
            x_hat = x.copy()
        else:
            x_hat = ratios[k - 1] * x_hat + (1.0 - ratios[k - 1]) * x
        j = k % rows
        block[j, 0] = x
        block[j, 1] = x_hat
        if j == rows - 1 or k == num_iterations:
            done = block[:j + 1]
            if not set_.contains(done[:, 0].reshape(-1, n), FEAS_TOL):
                raise ArithmeticError("an iterate left the feasible set")
            if f is not None:
                points = done.reshape(-1, n)
                f_vals[k - j:k + 1] = _checked(f(points), points.shape[:1]).reshape(-1, 2, runs)
            if dist is not None:
                dist[k - j:k + 1] = np.sum((done - x_star) ** 2, axis=-1)
        if k < num_iterations:
            if j == 0:
                count = min(rows, num_iterations - k)
                xi = np.stack([problem.noise(r, count) for r in rngs], axis=1)
            g = problem.oracle(x, xi[j])
            if k == 0 and np.shape(g) not in (x.shape, x.shape[1:]):
                raise ValueError(f"the oracle must return one subgradient per point, or "
                                 f"one for all, got shape {np.shape(g)} for points {x.shape}")
            x = prox(problem.mirror_map, set_, x, g, steps[k])

    traces = [RunTrace(
        k=np.arange(m),
        f_iter=f_vals[:, 0, i].copy(),
        f_avg=f_vals[:, 1, i].copy(),
        f_min=np.minimum.accumulate(f_vals[:, 0, i]),
        dist_iter_sq=None if dist is None else dist[:, 0, i].copy(),
        dist_avg_sq=None if dist is None else dist[:, 1, i].copy(),
        x_hat_final=x_hat[i].copy(),
    ) for i in range(runs)]
    return traces[0] if single else traces


def run_strongly_convex(problem: ProblemHandle, schedule, num_iterations: int, rng):
    """Run the strongly convex engine: prox steps of size alpha_k / mu_f.

    rng is one generator, or a list of them for a batch of runs sharing the
    schedule."""
    if not 0.0 < problem.mu_f < np.inf:
        raise ValueError("the strongly convex engine requires a positive, finite mu_f")
    if not problem.mirror_map.satisfies_quadratic_upper_bound:
        raise ValueError("the strongly convex engine requires the quadratic upper bound")
    if isinstance(schedule, InverseSqrtStepsize):
        raise ValueError("a/sqrt(k+1) is not certified for the strongly convex engine")
    alphas = schedule_alphas(schedule, max(num_iterations, 0))[:, None]
    return _run(problem, alphas, 1.0 / problem.mu_f, num_iterations, rng,
                uniform_average=False)


def run_compact(problem: ProblemHandle, a, num_iterations: int, rng,
                uniform_average: bool = False):
    """Run the compact-set engine, run i with the stepsizes of
    InverseSqrtStepsize(a_i): alpha_k = a_i/sqrt(k+1).

    rng is one generator, or a list of them for a batch of runs, with one a
    for all of them or one per generator."""
    if not getattr(problem.feasible_set, "is_bounded", False):
        raise ValueError("the compact engine requires a bounded feasible set")
    alphas = np.column_stack([InverseSqrtStepsize(v).alphas(num_iterations)
                              for v in np.ravel(a)])
    return _run(problem, alphas, 1.0, num_iterations, rng, uniform_average)


def run_baseline_uniform(problem: ProblemHandle, a, num_iterations: int, rng):
    """Compact-engine iterates with a plain arithmetic-mean average; rng and a
    as in :func:`run_compact`."""
    return run_compact(problem, a, num_iterations, rng, uniform_average=True)


def combined_second_moment(grad_bound_sq: float, noise_var: float) -> float:
    """Second-moment bound Ct^2 = C^2 + nu^2 for a noisy subgradient with
    ||g|| <= C and noise variance <= nu^2, under the Euclidean norm that both
    mirror maps use."""
    return grad_bound_sq + noise_var


def strongly_convex_rate_bounds(k, c_tilde_sq: float, mu_f: float, mu_w: float):
    """(gap bound, avg distance bound, iterate distance bound) at iteration k."""
    if not (0.0 < c_tilde_sq < np.inf and 0.0 < mu_f < np.inf and 0.0 < mu_w < np.inf):
        raise ValueError("parameters must be positive and finite")
    k = np.asarray(k, dtype=float)
    gap = 2.0 / (k + 1.0) * c_tilde_sq / (mu_f * mu_w)
    avg_dist = 4.0 / (k + 1.0) * c_tilde_sq / (mu_f**2 * mu_w)
    iter_dist = 4.0 / (k + 1.0) * c_tilde_sq / (mu_f**2 * mu_w**2)
    return gap, avg_dist, iter_dist


def compact_rate_bound(k, a: float, diameter_sq: float, grad_bound_sq: float,
                       noise_var: float, mu_w: float):
    """Gap bound for the compact engine at iteration k."""
    if not (0.0 < a < np.inf and 0.0 < mu_w < np.inf):
        raise ValueError("parameters must be positive and finite")
    k = np.asarray(k, dtype=float)
    return 1.5 / np.sqrt(k + 1.0) * (
        diameter_sq / a + a * (grad_bound_sq + noise_var) / mu_w
    )


def noiseless_compact_rate_bound(k, a: float, diameter_sq: float,
                                 grad_bound_sq: float, mu_w: float):
    """Gap bound for the compact engine with error-free subgradients."""
    if not (0.0 < a < np.inf and 0.0 < mu_w < np.inf):
        raise ValueError("parameters must be positive and finite")
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
    if not (0.0 < diameter < np.inf and 0.0 < mu_w < np.inf):
        raise ValueError("parameters must be positive and finite")
    if noiseless:
        if noise_var != 0.0:
            raise ValueError("the noiseless optimum requires noise_var = 0")
        return diameter * np.sqrt(2.0 * mu_w) / np.sqrt(grad_bound_sq)
    return diameter / np.sqrt((grad_bound_sq + noise_var) / mu_w)
