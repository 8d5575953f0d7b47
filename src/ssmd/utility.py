"""Stochastic piecewise-linear utility benchmark.

The objective is

    f(x) = E[ phi( sum_i (a_i + xi_i) x_i ) ] + (reg_weight/2) ||x - anchor||^2,

with xi_i i.i.d. standard normal and phi a convex piecewise-linear envelope
(pointwise max of affine pieces).  Because sum_i (a_i + xi_i) x_i is exactly
N(a'x, ||x||^2), the expectation reduces to a one-dimensional Gaussian
integral of a piecewise-affine function, which has a closed form per piece:

    int_[l,r] (c + d t) dN(mu, s^2)
        = (c + d mu) (Phi(beta) - Phi(alpha)) + d s (pdf(alpha) - pdf(beta)),

with alpha = (l - mu)/s, beta = (r - mu)/s.  The stochastic oracle takes one
xi vector per iteration and returns phi'(t) (a + xi) + reg_weight (x - anchor).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import frexp
from typing import Optional, Sequence

import numpy as np

from .gaussian import norm_cells, norm_pdf, rng_from_seed, standard_normals
from .sets import CappedBox
from .mirror import MirrorMap
from .solver import ProblemHandle

# Seed for the one-time draw of the linear coefficients a (kept in the
# instance and its serialized metadata so runs are reproducible).
DEFAULT_COEFF_SEED = 54321

F_FEAS_TOL = 1e-8


class ConvergenceError(RuntimeError):
    """Raised when the reference solver hits its iteration cap."""


@dataclass(frozen=True)
class AffinePiece:
    intercept: float
    slope: float


@dataclass(frozen=True, eq=False)
class Envelope:
    """Upper envelope of affine pieces, slope-sorted with dominated pieces removed."""

    intercepts: np.ndarray
    slopes: np.ndarray
    breakpoints: np.ndarray

    def __post_init__(self):
        if self.intercepts.shape != self.slopes.shape or self.intercepts.ndim != 1:
            raise ValueError("inconsistent piece arrays")
        if self.breakpoints.shape != (self.slopes.shape[0] - 1,):
            raise ValueError("need exactly one breakpoint between consecutive pieces")
        if np.any(np.diff(self.slopes) <= 0.0):
            raise ValueError("slopes must be strictly increasing")
        if np.any(np.diff(self.breakpoints) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def num_pieces(self) -> int:
        return self.intercepts.shape[0]


def build_envelope(pieces: Sequence[AffinePiece]) -> Envelope:
    """Reduce raw pieces to the envelope: max over pieces at every t."""
    if len(pieces) == 0:
        raise ValueError("need at least one piece")
    by_slope: dict[float, float] = {}
    for p in pieces:
        c, d = float(p.intercept), float(p.slope)
        if not (np.isfinite(c) and np.isfinite(d)):
            raise ValueError("pieces must be finite")
        if d not in by_slope or c > by_slope[d]:
            by_slope[d] = c
    lines = sorted((d, c) for d, c in by_slope.items())

    hull: list[tuple[float, float]] = []  # (slope, intercept)
    for d, c in lines:
        while len(hull) >= 2:
            d2, c2 = hull[-1]
            d1, c1 = hull[-2]
            # hull[-1] survives only if it beats its neighbors somewhere
            if (c2 - c) / (d - d2) > (c1 - c2) / (d2 - d1):
                break
            hull.pop()
        hull.append((d, c))

    slopes = np.array([d for d, _ in hull])
    intercepts = np.array([c for _, c in hull])
    if len(hull) > 1:
        breakpoints = (intercepts[:-1] - intercepts[1:]) / (slopes[1:] - slopes[:-1])
    else:
        breakpoints = np.empty(0)
    return Envelope(intercepts=intercepts, slopes=slopes, breakpoints=breakpoints)


def _active_piece(envelope: Envelope, t):
    # Ties at a breakpoint resolve to the larger slope.
    return np.searchsorted(envelope.breakpoints, t, side="right")


def phi(envelope: Envelope, t):
    """Envelope value max_j (c_j + d_j t); vectorized over t."""
    t = np.asarray(t, dtype=float)
    j = _active_piece(envelope, t)
    out = envelope.intercepts[j] + envelope.slopes[j] * t
    return float(out) if out.ndim == 0 else out


def phi_slope(envelope: Envelope, t):
    """Slope of a maximizing piece (a valid subgradient of phi)."""
    t = np.asarray(t, dtype=float)
    out = envelope.slopes[_active_piece(envelope, t)]
    return float(out) if out.ndim == 0 else out


def expected_phi_gaussian(envelope: Envelope, mu, sigma):
    """E[phi(S)] for S ~ N(mu, sigma^2), exact up to CDF accuracy.

    mu and sigma broadcast; sigma must be >= 0, and sigma = 0 entries take
    the plain envelope value phi(mu).
    """
    mu, sigma = np.broadcast_arrays(np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float))
    if np.any(sigma < 0.0):
        raise ValueError("sigma must be nonnegative")
    zero = sigma == 0.0
    m, s = mu[..., None], np.where(zero, 1.0, sigma)[..., None]
    out = np.asarray(_piece_sum(envelope, m, s, *norm_cells((envelope.breakpoints - m) / s)))
    if np.any(zero):
        out[zero] = phi(envelope, mu[zero])
    return float(out) if out.ndim == 0 else out


def _piece_sum(envelope: Envelope, mu, sigma, mass, first):
    """sum_j (c_j + d_j mu) mass_j + d_j sigma first_j over the pieces (last
    axis), where piece j is active for Z in cell j of t = mu + sigma Z: with
    the cells' probabilities and E[Z; cell] it is E[phi(t)], and with the
    counts and sums of a sample of Z it is the sample's sum of phi(t)."""
    c, d = envelope.intercepts, envelope.slopes
    return np.sum((c + d * mu) * mass + d * sigma * first, axis=-1)


@dataclass(frozen=True, eq=False)
class UtilityInstance:
    """One benchmark instance: coefficients, envelope, regularizer, constraint set."""

    label: str
    coeffs: np.ndarray
    envelope: Envelope
    reg_weight: float
    anchor: np.ndarray
    feasible_set: CappedBox
    x0: np.ndarray
    coeff_seed: int

    def __post_init__(self):
        n = self.feasible_set.n
        if self.coeffs.shape != (n,) or self.anchor.shape != (n,) or self.x0.shape != (n,):
            raise ValueError("inconsistent dimensions")
        if self.reg_weight < 0.0:
            raise ValueError("reg_weight must be nonnegative")

    @property
    def n(self) -> int:
        return self.feasible_set.n


def default_pieces(m: int = 10) -> list[AffinePiece]:
    """The documented deterministic envelope: a risk-averse piecewise-linear
    disutility with m pieces, slopes (j - m)/(2.5 m) rising from -0.36 to a
    flat tail at 0, and m-1 breakpoints at j/m in (0, 1).

    Intercepts follow from anchoring phi(0) = 0 and placing the j-th
    breakpoint at j/m: c_{j+1} = c_j - (j/m) * (d_{j+1} - d_j).
    """
    slopes = [(j - m) / (2.5 * m) for j in range(1, m + 1)]
    pieces = [AffinePiece(intercept=0.0, slope=slopes[0])]
    c = 0.0
    for j in range(1, m):
        c -= (j / m) * (slopes[j] - slopes[j - 1])
        pieces.append(AffinePiece(intercept=c, slope=slopes[j]))
    return pieces


def make_instance(label: str, n: int, cap: float, budget: float, reg_weight: float,
                  x0: Optional[np.ndarray] = None,
                  pieces: Optional[Sequence[AffinePiece]] = None,
                  coeff_seed: int = DEFAULT_COEFF_SEED) -> UtilityInstance:
    feasible_set = CappedBox(n=n, cap=cap, budget=budget)
    coeffs = rng_from_seed(coeff_seed).random(n)
    anchor = np.zeros(n)
    anchor[0] = 0.5
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    env = build_envelope(default_pieces() if pieces is None else pieces)
    return UtilityInstance(label=label, coeffs=coeffs, envelope=env,
                           reg_weight=float(reg_weight), anchor=anchor,
                           feasible_set=feasible_set, x0=x0, coeff_seed=coeff_seed)


_TEST_BUDGETS = {"test1": 10.0, "test2": 100.0, "test3": 10.0, "test4": 100.0}


def default_instance(label: str, reg_weight: float) -> UtilityInstance:
    """The four documented benchmark instances (n = 100, cap = 10)."""
    key = label.lower()
    if key not in _TEST_BUDGETS:
        raise ValueError(f"unknown instance label: {label!r}")
    x0 = np.zeros(100)
    if key == "test3":
        x0[:10] = 1.0
    elif key == "test4":
        x0[:10] = 10.0
    return make_instance(key, n=100, cap=10.0, budget=_TEST_BUDGETS[key],
                         reg_weight=reg_weight, x0=x0)


def _moments(instance: UtilityInstance, x: np.ndarray):
    """Per row: mean a'x and std ||x|| of (a + xi)'x.  Row sums, not BLAS
    products, so no row depends on the rows stacked with it.  Where x x may
    over- or underflow, ||x|| is formed on x scaled by the cap's power of two."""
    mean, cap = np.sum(instance.coeffs * x, axis=-1), instance.feasible_set.cap
    if 1e-150 < cap < 1e150:
        return mean, np.sqrt(np.sum(x * x, axis=-1))
    x = np.ldexp(x, -frexp(cap)[1])
    return mean, np.ldexp(np.sqrt(np.sum(x * x, axis=-1)), frexp(cap)[1])


def _regulariser(instance: UtilityInstance, x: np.ndarray):
    """(reg_weight/2) ||x - anchor||^2 per row: +0.0 when reg_weight = 0, as
    the product would give, without the sum."""
    if not instance.reg_weight:
        return np.zeros(x.shape[:-1])
    return 0.5 * instance.reg_weight * np.sum((x - instance.anchor) ** 2, axis=-1)


def f_value(instance: UtilityInstance, x, check_feasible: bool = True):
    """Exact objective value via the closed-form Gaussian integral, for one
    point (n,) or per row of a stack (..., n), each row as if alone."""
    x = np.asarray(x, dtype=float)
    if check_feasible and not instance.feasible_set.contains(x.reshape(-1, instance.n),
                                                             F_FEAS_TOL):
        raise ValueError("x is infeasible")
    mu, sigma = _moments(instance, x)
    out = expected_phi_gaussian(instance.envelope, mu, sigma) + _regulariser(instance, x)
    return float(out) if out.ndim == 0 else out


def _oracle_mean(instance: UtilityInstance, x: np.ndarray):
    """m(x) = E[phi'(t) (a + xi)] = a E[phi'(t)] + (x/sigma) E[phi'(t) Z] per
    row of x, with t ~ N(mu, sigma^2) and Z = (t - mu)/sigma (x = 0 rows take
    phi'(0) a), and the cells: mu, sigma (1 on x = 0 rows, flagged by zero),
    the breakpoints in standard units z and norm_cells(z), each (..., 1) or
    (..., cells)."""
    env = instance.envelope
    mu, sigma = _moments(instance, x[..., None, :])
    zero = sigma == 0.0
    sigma = np.where(zero, 1.0, sigma)
    z = (env.breakpoints - mu) / sigma
    prob, pdf_diff = norm_cells(z)
    e_slope = np.where(zero, env.slopes[_active_piece(env, mu)],
                       np.sum(env.slopes * prob, axis=-1, keepdims=True))
    e_slope_z = np.where(zero, 0.0, np.sum(env.slopes * pdf_diff, axis=-1, keepdims=True))
    return e_slope * instance.coeffs + e_slope_z * (x / sigma), \
        (mu, sigma, zero, z, prob, pdf_diff)


def _noise_sq(instance: UtilityInstance, mean_sq: np.ndarray, cells) -> np.ndarray:
    """E||eps(x)||^2 per row, from ||m(x)||^2 and the cells of _oracle_mean of
    the same rows.

    Given Z, xi is Z u plus a normal part orthogonal to u = x/sigma, so
    E[||a + xi||^2 | Z] = ||a||^2 + n - 1 + 2 (a'u) Z + Z^2, and per cell j of
    slope d_j, with M1_j = E[Z; j] and M2_j = E[Z^2; j],
    E||phi'(t)(a + xi)||^2 = sum_j d_j^2 [(||a||^2 + n - 1) P_j + 2 (a'u) M1_j + M2_j].
    The oracle's variance is that minus ||m(x)||^2; x = 0 rows take phi'(0)^2 n.
    """
    mu, sigma, zero, z, prob, m1 = cells
    n, a = instance.n, instance.coeffs
    zp = np.zeros(prob.shape[:-1] + (prob.shape[-1] + 1,))
    zp[..., 1:-1] = z * norm_pdf(z)
    m2 = prob + zp[..., :-1] - zp[..., 1:]
    d_sq = instance.envelope.slopes ** 2
    second = np.sum(d_sq * ((float(a @ a) + n - 1) * prob + 2.0 * (mu / sigma) * m1 + m2),
                    axis=-1)
    slope_0 = instance.envelope.slopes[_active_piece(instance.envelope, mu[..., 0])]
    return np.where(zero[..., 0], slope_0 * slope_0 * n, second - mean_sq)


def grad_f(instance: UtilityInstance, x) -> np.ndarray:
    """Gradient of the smoothed objective (subgradient selection at x = 0),
    per row of x.

    For sigma = ||x|| > 0 the Gaussian smoothing makes the utility term
    differentiable: d/dmu E[phi] = E[phi'] and d/dsigma E[phi] = E[phi' Z],
    both closed-form sums over the envelope pieces.
    """
    x = np.asarray(x, dtype=float)
    return _oracle_mean(instance, x)[0] + instance.reg_weight * (x - instance.anchor)


def _subgradient(instance: UtilityInstance, x: np.ndarray, noisy: np.ndarray) -> np.ndarray:
    """phi'((a+xi)'x) (a+xi) + reg term per row, given noisy = a + xi."""
    t = np.sum(noisy * x, axis=-1)
    g = instance.envelope.slopes[_active_piece(instance.envelope, t)][..., None] * noisy
    # reg_weight = 0 adds +-0.0, which changes only the sign of a zero g_i
    return g + instance.reg_weight * (x - instance.anchor) if instance.reg_weight else g


def stochastic_subgradient(instance: UtilityInstance, x,
                           rng: np.random.Generator) -> np.ndarray:
    """One-sample stochastic subgradient: phi'((a+xi)'x) (a+xi) + reg term."""
    x = np.asarray(x, dtype=float)
    if not instance.feasible_set.contains(x, F_FEAS_TOL):
        raise ValueError("x is infeasible")
    return _subgradient(instance, x, instance.coeffs + standard_normals(rng, instance.n))


def reference_solution(instance: UtilityInstance, tol: float,
                       x_init: Optional[np.ndarray] = None,
                       max_iter: int = 20_000) -> tuple[np.ndarray, float]:
    """High-accuracy minimizer via deterministic projected descent.

    Gradients are the closed-form :func:`grad_f` of the exact objective;
    backtracking keeps the procedure deterministic while the accepted steps
    shrink near the solution.  Convergence requires both the last move per
    unit step, over max(1, step) (on flat optima the step reaches its 1e6 cap),
    and the unit-step projected-gradient residual to drop below tol; hitting
    the iteration cap raises :class:`ConvergenceError`.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    proj = instance.feasible_set.project

    def f(v):
        return f_value(instance, v, check_feasible=False)

    x = proj(np.asarray(instance.x0 if x_init is None else x_init, dtype=float))
    fx = f(x)
    step = 1.0
    last_move = np.inf
    for _ in range(max_iter):
        g = grad_f(instance, x)
        residual = float(np.sqrt(np.sum((x - proj(x - g)) ** 2)))
        if residual <= tol and last_move <= tol * max(1.0, step):
            return x, fx
        step = min(step * 2.0, 1e6)
        # roundoff allowance proportional to the objective's own scale; an
        # additive constant here would swamp problems whose optimum is ~0
        slack = 1e-14 * abs(fx)
        # c1 = 1/4 keeps the accepted step below 1.5/L on quadratics, so the
        # iteration contracts instead of ping-ponging across the minimizer
        while True:
            x_new = proj(x - step * g)
            f_new = f(x_new)
            if f_new <= fx + 0.25 * float(g @ (x_new - x)) + slack:
                break
            step *= 0.5
            if step < 1e-20:
                x_new, f_new = x, fx
                break
        last_move = float(np.sqrt(np.sum((x_new - x) ** 2)))
        x, fx = x_new, f_new
    raise ConvergenceError(f"no convergence to tol={tol} within {max_iter} iterations")


def estimate_constants(instance: UtilityInstance, sample_count: int,
                       rng: np.random.Generator) -> tuple[float, float]:
    """Empirical (C, nu) over uniformly sampled feasible points: the max norm
    of grad_f, and nu^2 as the max of the oracle's closed-form noise second
    moment E||eps(x)||^2 (the paper's bound holds at every x).  Each sample's
    point is rng.random(n), projected after scaling by cap.  Points go in
    chunks of at most 32,768 floats, and no value depends on the chunk size."""
    if sample_count < 1000:
        raise ValueError("sample_count must be at least 1000")
    set_, n = instance.feasible_set, instance.n
    chunk = max(1, 32_768 // n)
    c_sq = noise_sq = 0.0
    for start in range(0, sample_count, chunk):
        x = set_.project(set_.cap * rng.random((min(chunk, sample_count - start), n)))
        mean, cells = _oracle_mean(instance, x)
        # with reg_weight = 0, g = m + 0 (x - anchor) has the squares of m
        g_sq = mean_sq = np.sum(mean * mean, axis=-1)
        if instance.reg_weight:
            g = mean + instance.reg_weight * (x - instance.anchor)
            g_sq = np.sum(g * g, axis=-1)
        c_sq = max(c_sq, float(np.max(g_sq)))
        noise_sq = max(noise_sq, float(np.max(_noise_sq(instance, mean_sq, cells))))
    return float(np.sqrt(c_sq)), float(np.sqrt(noise_sq))


def make_problem(instance: UtilityInstance, f_eval_samples: int = 10_000,
                 analytic_f: bool = True) -> ProblemHandle:
    """Bridge an instance to the solver engines.  The oracle noise of a block
    of iterations is one standard_normals draw, which equals the per-iteration
    draws of the same stream bit for bit.  f_sampler(x, rng, N) is exact over
    its N draws: it is within about 1e-15 of the mean |value| of the exactly
    rounded mean of N one-draw calls."""

    def noise(rng, rows):
        return standard_normals(rng, (rows, instance.n))

    def oracle(x, xi):
        return _subgradient(instance, x, instance.coeffs + xi)

    def f_exact(x):
        return f_value(instance, x, check_feasible=False)

    env = instance.envelope
    edges = np.concatenate([[-np.inf], env.breakpoints, [np.inf]])

    def f_sampler(x, rng, samples=None):
        # each draw of xi is shared by every row of x.  The mean over N draws
        # is the piece sum over the sorted draws z: piece j of row (mu, sigma)
        # takes z in [(b_{j-1} - mu)/sigma, (b_j - mu)/sigma), outer ends -inf
        # and inf, whose count and sum are differences of the cell ends'
        # positions in z and of z's prefix sums there
        mu, sigma = _moments(instance, x)
        reg = _regulariser(instance, x)
        if samples is None:
            return phi(env, mu + sigma * standard_normals(rng, 1)[0]) + reg
        z = np.sort(standard_normals(rng, samples))
        prefix = np.concatenate([[0.0], np.cumsum(z)])
        m, s = np.expand_dims(mu, -1), np.expand_dims(sigma, -1)
        ends = np.searchsorted(z, (edges - m) / np.where(s > 0.0, s, 1.0))
        mean = _piece_sum(env, m, s, np.diff(ends), np.diff(prefix[ends])) / samples
        return np.where(sigma > 0.0, mean, phi(env, mu)) + reg

    return ProblemHandle(
        oracle=oracle,
        feasible_set=instance.feasible_set,
        mirror_map=MirrorMap.euclidean(),
        x0=instance.x0,
        noise=noise,
        mu_f=instance.reg_weight,
        f_exact=f_exact if analytic_f else None,
        f_sampler=None if analytic_f else f_sampler,
        f_eval_samples=f_eval_samples,
    )


def instance_metadata(instance: UtilityInstance) -> dict[str, str]:
    """Flat key = value view of an instance for the experiment sidecar."""
    env = instance.envelope
    return {
        "instance": instance.label,
        "n": str(instance.n),
        "cap": repr(instance.feasible_set.cap),
        "budget": repr(instance.feasible_set.budget),
        "reg_weight": repr(instance.reg_weight),
        "coeff_seed": str(instance.coeff_seed),
        "piece_intercepts": ",".join(repr(v) for v in env.intercepts.tolist()),
        "piece_slopes": ",".join(repr(v) for v in env.slopes.tolist()),
        "anchor": ",".join(repr(v) for v in instance.anchor.tolist()),
        "x0": ",".join(repr(v) for v in instance.x0.tolist()),
    }
