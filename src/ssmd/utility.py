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

from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from .gaussian import norm_cells, norm_pdf, rng_from_seed, standard_normals
from .sets import CappedBox
from .solver import ProblemHandle

# Seed for the one-time draw of the linear coefficients a (kept in the
# serialized metadata so runs are reproducible).
COEFF_SEED = 54321

REFERENCE_ITERATIONS = 20_000  # the reference solver's iteration cap


class ConvergenceError(RuntimeError):
    """Raised when the reference solver hits its iteration cap."""


class Envelope:
    """phi(t) = max_j (c_j + d_j t) on the caller's pieces: nonempty, finite,
    of strictly increasing slope d and each the maximum between its
    breakpoints; breakpoint j is where pieces j and j + 1 meet."""

    def __init__(self, intercepts: np.ndarray, slopes: np.ndarray):
        self.intercepts, self.slopes = intercepts, slopes
        self.breakpoints = (intercepts[:-1] - intercepts[1:]) / (slopes[1:] - slopes[:-1])


def _active_piece(envelope: Envelope, t):
    # Ties at a breakpoint resolve to the larger slope.
    return np.searchsorted(envelope.breakpoints, t, side="right")


def phi(envelope: Envelope, t):
    """Envelope value max_j (c_j + d_j t); vectorized over t."""
    t = np.asarray(t, dtype=float)
    j = _active_piece(envelope, t)
    out = envelope.intercepts[j] + envelope.slopes[j] * t
    return float(out) if out.ndim == 0 else out


def expected_phi_gaussian(envelope: Envelope, mu, sigma):
    """E[phi(S)] for S ~ N(mu, sigma^2), exact up to CDF accuracy.

    mu and sigma broadcast; sigma must be >= 0, and sigma = 0 entries take
    the plain envelope value phi(mu).
    """
    mu, sigma = np.broadcast_arrays(np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float))
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


class UtilityInstance(NamedTuple):
    """One benchmark instance: coefficients, envelope, regularizer, constraint set."""

    label: str
    coeffs: np.ndarray
    envelope: Envelope
    reg_weight: float
    anchor: np.ndarray
    feasible_set: CappedBox
    x0: np.ndarray

    @property
    def n(self) -> int:
        return self.feasible_set.n


def default_envelope() -> Envelope:
    """The documented deterministic envelope: a risk-averse piecewise-linear
    disutility with 10 pieces, slopes (j - 10)/25 for j = 1..10, rising from
    -0.36 to a flat tail at 0, and 9 breakpoints at j/10 in (0, 1).

    Intercepts follow from anchoring phi(0) = 0 and placing the j-th
    breakpoint at j/10: c_{j+1} = c_j - (j/10) * (d_{j+1} - d_j).
    """
    slopes = [(j - 10) / 25.0 for j in range(1, 11)]
    intercepts = [0.0]
    for j in range(1, 10):
        intercepts.append(intercepts[-1] - (j / 10) * (slopes[j] - slopes[j - 1]))
    return Envelope(intercepts=np.array(intercepts), slopes=np.array(slopes))


def make_instance(label: str, n: int, cap: float, budget: float, reg_weight: float,
                  x0: Optional[np.ndarray] = None) -> UtilityInstance:
    feasible_set = CappedBox(n=n, cap=cap, budget=budget)
    coeffs = rng_from_seed(COEFF_SEED).random(n)
    anchor = np.zeros(n)
    anchor[0] = 0.5
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    return UtilityInstance(label=label, coeffs=coeffs, envelope=default_envelope(),
                           reg_weight=float(reg_weight), anchor=anchor,
                           feasible_set=feasible_set, x0=x0)


_TEST_BUDGETS = {"test1": 10.0, "test2": 100.0, "test3": 10.0, "test4": 100.0}
INSTANCE_LABELS = tuple(_TEST_BUDGETS)


def default_instance(label: str, reg_weight: float) -> UtilityInstance:
    """The four documented benchmark instances (n = 100, cap = 10), by their
    lower-case label in INSTANCE_LABELS."""
    x0 = np.zeros(100)
    if label == "test3":
        x0[:10] = 1.0
    elif label == "test4":
        x0[:10] = 10.0
    return make_instance(label, n=100, cap=10.0, budget=_TEST_BUDGETS[label],
                         reg_weight=reg_weight, x0=x0)


def _moments(instance: UtilityInstance, x: np.ndarray):
    """Per row: mean a'x and std ||x|| of (a + xi)'x.  Row sums, not BLAS
    products, so no row depends on the rows stacked with it."""
    return np.sum(instance.coeffs * x, axis=-1), np.sqrt(np.sum(x * x, axis=-1))


def _regulariser(instance: UtilityInstance, x: np.ndarray):
    """(reg_weight/2) ||x - anchor||^2 per row: +0.0 when reg_weight = 0, as
    the product would give, without the sum."""
    if not instance.reg_weight:
        return np.zeros(x.shape[:-1])
    return 0.5 * instance.reg_weight * np.sum((x - instance.anchor) ** 2, axis=-1)


def f_value(instance: UtilityInstance, x):
    """Exact objective value via the closed-form Gaussian integral, for one
    point (n,) or per row of a stack (..., n), each row as if alone.  The
    closed form holds on all of R^n, so x need not be feasible."""
    x = np.asarray(x, dtype=float)
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


def stochastic_subgradient(instance: UtilityInstance, x: np.ndarray,
                           xi: np.ndarray) -> np.ndarray:
    """The one-sample stochastic subgradient phi'((a+xi)'x) (a+xi) + reg term
    per row of x (R, n) or (n,), given its noise xi ~ N(0, I) of the same shape;
    either side may be one (n,) shared by every row of the other."""
    noisy = instance.coeffs + xi
    t = np.sum(noisy * x, axis=-1)
    g = instance.envelope.slopes[_active_piece(instance.envelope, t)][..., None] * noisy
    # reg_weight = 0 adds +-0.0, which changes only the sign of a zero g_i
    return g + instance.reg_weight * (x - instance.anchor) if instance.reg_weight else g


def reference_gap(instance: UtilityInstance, x: np.ndarray) -> float:
    """Frank-Wolfe duality gap at a feasible x: the max over the capped box of
    g'(x - y), g = grad_f(x) (Jaggi, ICML 2013); f is convex, so f(x) - gap <= f*.
    The minimizer y of g'y caps the most negative g_i first until the budget is spent."""
    return _fw_gap(instance.feasible_set, grad_f(instance, x), x)


def _fw_gap(set_, g: np.ndarray, x: np.ndarray) -> float:
    """reference_gap at x from its gradient g."""
    fill = np.clip(set_.budget - set_.cap * np.arange(set_.n), 0.0, set_.cap)
    return float(g @ x - np.minimum(np.sort(g), 0.0) @ fill)


def reference_solution(instance: UtilityInstance, tol: float,
                       x_init: Optional[np.ndarray] = None) -> tuple[np.ndarray, float]:
    """High-accuracy minimizer by projected gradient, returned at the first x
    whose reference_gap is at most tol, so f(x) - f* <= tol.  The trial step is
    1/c (1e8 where c <= 1e-8), c = reg_weight + E[phi'(t) Z]/||x|| the
    curvature of f along x (reg_weight at x = 0), halved until f decreases
    enough or it is below 1e-20.  The step depends on x alone, so an iterate
    that repeats x or the one before it repeats forever: that, like the
    iteration cap, raises :class:`ConvergenceError`."""
    set_, lam = instance.feasible_set, instance.reg_weight
    x = x_prev = set_.project(np.asarray(instance.x0 if x_init is None else x_init, dtype=float))
    fx = f_value(instance, x)
    for _ in range(REFERENCE_ITERATIONS):
        mean, (_, sigma, zero, _, _, pdf_diff) = _oracle_mean(instance, x)
        g = mean + lam * (x - instance.anchor)
        gap = _fw_gap(set_, g, x)
        if gap <= tol:
            return x, fx
        c = lam if zero[0] else lam + float(instance.envelope.slopes @ pdf_diff) / sigma[0]
        step = 1.0 / c if c > 1e-8 else 1e8
        while True:
            x_new = set_.project(x - step * g)
            f_new = f_value(instance, x_new)
            # c1 = 1/4 keeps the accepted step below 1.5/L on quadratics; the
            # slack is roundoff on f's own scale, where a constant would swamp f* ~ 0
            if f_new <= fx + 0.25 * float(g @ (x_new - x)) + 1e-14 * abs(fx) or step < 1e-20:
                break
            step *= 0.5
        if np.array_equal(x_new, x) or np.array_equal(x_new, x_prev):
            raise ConvergenceError(f"no convergence to tol={tol}: iterates cycle at gap {gap!r}")
        x_prev, x, fx = x, x_new, f_new
    raise ConvergenceError(f"no convergence to tol={tol} in {REFERENCE_ITERATIONS} iterations")


def estimate_constants(instance: UtilityInstance, sample_count: int,
                       rng: np.random.Generator) -> tuple[float, float]:
    """Empirical (C, nu) over uniformly sampled feasible points: the max norm
    of grad_f, and nu^2 as the max of the oracle's closed-form noise second
    moment E||eps(x)||^2 (the paper's bound holds at every x).  Each sample's
    point is rng.random(n), projected after scaling by cap.  Points go in
    chunks of at most 32,768 floats, and no value depends on the chunk size."""
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
    """Bridge an instance to the solver engines, which step on its capped box
    by Euclidean projection.  The oracle noise of a block of iterations is
    one standard_normals draw, which equals the per-iteration draws of the
    same stream bit for bit.  f_sampler(x, rng, N) is exact over its N draws:
    it is within about 1e-15 of the mean |value| of the exactly rounded mean
    of N one-draw calls."""

    def noise(rng, rows):
        return standard_normals(rng, (rows, instance.n))

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
        oracle=partial(stochastic_subgradient, instance),
        feasible_set=instance.feasible_set,
        x0=instance.x0,
        noise=noise,
        mu_f=instance.reg_weight,
        f_exact=partial(f_value, instance) if analytic_f else None,
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
        "coeff_seed": str(COEFF_SEED),
        "piece_intercepts": ",".join(repr(v) for v in env.intercepts.tolist()),
        "piece_slopes": ",".join(repr(v) for v in env.slopes.tolist()),
        "anchor": ",".join(repr(v) for v in instance.anchor.tolist()),
        "x0": ",".join(repr(v) for v in instance.x0.tolist()),
    }
