"""Iteration engines for stochastic subgradient mirror descent.

The distance generator is the Euclidean w(x) = ||x||^2/2, so the prox step is
the exact projection of x - alpha*g onto the feasible set.  Two regimes are
provided: the strongly convex engine, which scales the schedule by 1/mu_f, and
the compact-set engine with the a/sqrt(k+1) schedule.  Both maintain the
1/alpha-weighted running average and record a per-iteration trace.  One engine
serves both: it advances a stack of runs and traces them, one row per run,
and a single run is a batch of one.

The rate-bound calculators evaluate the guarantees the engines are tested
against.  The paper states them for a mu_w-strongly convex w; ||x||^2/2 has
mu_w = 1, which drops out (the .meta sidecar still records mu_w = 1.0):

* strongly convex, weighted average:   gap <= 2*Ct^2 / ((k+1) mu_f)
  ||xhat - x*||^2 and ||x_k - x*||^2   <= 4*Ct^2 / ((k+1) mu_f^2)
* compact set:   gap <= 3/(2 sqrt(k+1)) * (d^2/a + a Ct^2)

where Ct^2 = C^2 + nu^2 bounds the second moment of the stochastic
subgradient, C the deterministic subgradient norm, nu^2 the noise variance,
and d^2 the Bregman diameter of the set.  With error-free subgradients the
compact bound is the same formula at Ct^2 = C^2/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .averaging import AverageState
from .gaussian import rng_from_seed
from .stepsizes import InverseSqrtStepsize

# Floats in the engine's per-block stack of iterates x_k of all R runs: 4096
# per run of a full harness batch (BATCH_RUNS = 32).  A block is
# max(1, BLOCK_FLOATS // (R n)) iterations, so a smaller batch gets longer blocks
# and pays the per-block noise draw, f call and feasibility check fewer times.
BLOCK_FLOATS = 32 * 4096


def prox_step(feasible_set, x, g, alpha) -> np.ndarray:
    """The mirror-descent step, argmin_{z in X} alpha*<g, z - x> + ||z - x||^2/2:
    the projection of x - alpha*g onto X, per row of a stack of points x (R, n)
    with each row's alpha (R, 1), or for one point (n,) and one alpha."""
    return feasible_set.project(x - alpha * g)


@dataclass
class ProblemHandle:
    """Everything an engine needs to run on one problem instance.

    The engine assumes what its callers build: a feasible x0 (n,), a noise,
    one of f_exact and f_sampler, one f value per point, and one subgradient
    per point or one for all.  Every iterate, x0 first, is checked feasible
    exactly, at tolerance 0, once per block: the projection returns points
    inside the set in its own arithmetic, so any point outside is a fault.

    noise(rng, rows) draws one run's oracle noise of `rows` iterations, one
    row per iteration; oracle(x, xi) returns the stochastic subgradients at a
    stack of points x (R, n), one per run, given each run's noise row xi (R, d),
    or one (n,) for every point.  f_exact maps a stack of points (..., n) to
    one value per point (...).  f_sampler(x, rng, samples=None) returns one
    sample of f per point (...) from one draw shared by every point, or with
    samples = N each point's mean over the N draws that N such calls make;
    a point's value does not depend on the points stacked with it.  The
    engine takes f_exact if set, and otherwise the mean of f_eval_samples
    draws from f_eval_seed, with one f_sampler call per block, on the block's
    (B, 2, R) stack of x_k and x_hat_k as one (-1, n) array."""

    oracle: Callable[[np.ndarray, np.ndarray], np.ndarray]
    feasible_set: object
    x0: np.ndarray
    noise: Callable[[np.random.Generator, int], np.ndarray]
    mu_f: float = 0.0
    f_exact: Optional[Callable[[np.ndarray], np.ndarray]] = None
    f_sampler: Optional[Callable[..., np.ndarray]] = None
    f_eval_samples: int = 10_000
    f_eval_seed: int = 0


@dataclass
class RunTrace:
    """Per-iteration metrics at k = 0..K of R runs, row i for run i: f_iter,
    f_avg and f_min are (R, K+1) and x_hat_final (R, n), or (K+1,) and (n,)."""

    f_iter: np.ndarray
    f_avg: np.ndarray
    f_min: np.ndarray
    x_hat_final: np.ndarray


def _f_evaluator(problem: ProblemHandle):
    """f on a stack of points (m, n) -> (m,)."""
    if problem.f_exact is not None:
        return problem.f_exact
    return lambda points: problem.f_sampler(points, rng_from_seed(problem.f_eval_seed),
                                            problem.f_eval_samples)


def _run(problem: ProblemHandle, alphas: np.ndarray, step_scale: float,
         num_iterations: int, rng):
    """The runs of a batch, advanced together: row i of the (R, n) state is run
    i, with its own generator and its own column of alphas (K+1, R).  Returns
    one RunTrace with row i for run i, or with that run's rows alone when rng
    is a single generator."""
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    set_ = problem.feasible_set
    alphas = np.broadcast_to(alphas, (num_iterations + 1, len(rngs)))
    steps = alphas[..., None] * step_scale

    f = _f_evaluator(problem)
    m = num_iterations + 1
    x = np.tile(np.asarray(problem.x0, dtype=float), (len(rngs), 1))
    runs, n = x.shape
    # x_k and x_hat_k of every run are copied into a block of B iterations,
    # where f and feasibility are checked once on the block's (B, 2, R) stack
    # of points; each run's oracle noise of the block's iterations is drawn
    # from its stream in one call at the block's start.  f is per point and
    # one draw of B n normals equals B draws of n, so no output depends on B.
    # f_vals keeps each run's f(x_k) and f(x_hat_k) as C-ordered rows (R, K+1)
    rows = max(1, BLOCK_FLOATS // (runs * n))
    block = np.empty((rows, 2, runs, n))
    f_vals = np.empty((2, runs, m))

    average = AverageState.empty()
    for k in range(m):
        average = average.absorb(x, alphas[k, :, None])
        j = k % rows
        block[j, 0] = x
        block[j, 1] = average.x_hat
        if j == rows - 1 or k == num_iterations:
            done = block[:j + 1]
            if not set_.contains(done[:, 0].reshape(-1, n)):
                raise ArithmeticError("an iterate left the feasible set")
            f_vals[..., k - j:k + 1] = np.reshape(f(done.reshape(-1, n)),
                                                  (-1, 2, runs)).transpose(1, 2, 0)
        if k < num_iterations:
            if j == 0:
                count = min(rows, num_iterations - k)
                xi = np.stack([problem.noise(r, count) for r in rngs], axis=1)
            x = prox_step(set_, x, problem.oracle(x, xi[j]), steps[k])

    run = 0 if single else slice(None)
    return RunTrace(f_iter=f_vals[0, run], f_avg=f_vals[1, run],
                    f_min=np.minimum.accumulate(f_vals[0, run], axis=-1),
                    x_hat_final=average.x_hat[run])


def run_strongly_convex(problem: ProblemHandle, schedule, num_iterations: int, rng):
    """Run the strongly convex engine: prox steps of size alpha_k / mu_f.

    rng is one generator, or a list of them for a batch of runs sharing the
    schedule, one trace row each."""
    alphas = schedule.alphas(num_iterations)[:, None]
    return _run(problem, alphas, 1.0 / problem.mu_f, num_iterations, rng)


def run_compact(problem: ProblemHandle, a, num_iterations: int, rng):
    """Run the compact-set engine, run i with the stepsizes of
    InverseSqrtStepsize(a_i): alpha_k = a_i/sqrt(k+1).

    rng is one generator, or a list of them for a batch of runs, one trace
    row each, with one a for all of them or one per generator."""
    alphas = np.column_stack([InverseSqrtStepsize(v).alphas(num_iterations)
                              for v in np.ravel(a)])
    return _run(problem, alphas, 1.0, num_iterations, rng)


def strongly_convex_rate_bounds(k, c_tilde_sq: float, mu_f: float):
    """(gap bound, distance bound) at iteration k; the distance bound holds for
    the weighted average and for the iterate alike."""
    k = np.asarray(k, dtype=float)
    return 2.0 / (k + 1.0) * c_tilde_sq / mu_f, 4.0 / (k + 1.0) * c_tilde_sq / mu_f / mu_f


def compact_rate_bound(k, a: float, diameter_sq: float, c_tilde_sq: float):
    """Gap bound for the compact engine at iteration k."""
    k = np.asarray(k, dtype=float)
    return 1.5 / np.sqrt(k + 1.0) * (diameter_sq / a + a * c_tilde_sq)
