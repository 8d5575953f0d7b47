"""Shared oracle helpers for the test suite.

Each helper is independent of the library path it checks: brute-force grids,
vertex enumeration, quadrature, direct sums, a bisected projection threshold,
finite-difference gradients and Monte-Carlo estimates of f.  A recorder of
the engine's distances to an optimum wraps a handle's f_exact.
"""

import itertools

import numpy as np
import pytest
from scipy.integrate import quad

from ssmd.gaussian import erfc, rng_from_seed, standard_normals
from ssmd.solver import ProblemHandle
from ssmd.utility import _moments, _regulariser, phi

# Floats per stack of n-vectors: a stack holds max(1, STACK_FLOATS // n) rows
STACK_FLOATS = 4096


@pytest.fixture
def rng():
    return rng_from_seed(20240817)


def feasible_grid(cap, budget, n, pts_per_axis):
    """All points of a regular [0, cap]^n grid satisfying the budget."""
    axis = np.linspace(0.0, cap, pts_per_axis)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    return grid[grid.sum(axis=1) <= budget + 1e-12]


def grid_argmin_distance(grid, x):
    """The grid point closest to x and its distance."""
    d2 = np.sum((grid - x) ** 2, axis=1)
    i = int(np.argmin(d2))
    return grid[i], float(np.sqrt(d2[i]))


def capped_box_vertices(cap, budget, n):
    """All vertices of {0 <= x_i <= cap, sum x <= budget} by enumeration.

    A vertex has every coordinate at 0 or cap, except possibly one
    fractional coordinate on the active budget face.
    """
    verts = []
    for pattern in itertools.product((0.0, cap), repeat=n):
        v = np.array(pattern)
        if v.sum() <= budget + 1e-12:
            verts.append(v)
    q = int(np.floor(budget / cap + 1e-12))
    r = budget - q * cap
    if r > 1e-12 and q < n:
        for support in itertools.combinations(range(n), q + 1):
            for frac_pos in support:
                v = np.zeros(n)
                for i in support:
                    v[i] = cap
                v[frac_pos] = r
                verts.append(v)
    return np.array(verts)


def max_pairwise_sq_distance(points):
    d2 = 0.0
    for i in range(len(points)):
        diff = points[i + 1:] - points[i]
        if len(diff):
            d2 = max(d2, float(np.max(np.sum(diff * diff, axis=1))))
    return d2


def piecewise_gaussian_quadrature(intercepts, slopes, breakpoints, mu, sigma):
    """Adaptive quadrature of E[max_j (c_j + d_j S)] for S ~ N(mu, sigma^2)."""
    def integrand(t):
        z = (t - mu) / sigma
        dens = np.exp(-0.5 * z * z) / (sigma * np.sqrt(2.0 * np.pi))
        return np.max(intercepts + slopes * t) * dens

    pts = [mu + sigma * s for s in (-12, 12)]
    inner = [b for b in breakpoints if pts[0] < b < pts[1]]
    val, err = quad(integrand, pts[0], pts[1], points=inner, limit=400)
    return val, err


def kkt_residual_capped_box(cap, budget, x, p):
    """Max KKT violation of p as the projection of x onto the capped box."""
    interior = (p > 1e-9) & (p < cap - 1e-9)
    if interior.any():
        taus = x[interior] - p[interior]
        tau = float(np.mean(taus))
        spread = float(np.max(np.abs(taus - tau)))
    else:
        # tau is only pinned to an interval; pick the smallest consistent value
        lo = 0.0
        if (p <= 1e-9).any():
            lo = max(lo, float(np.max(x[p <= 1e-9])))
        tau = max(lo, 0.0)
        spread = 0.0
    tau = max(tau, 0.0)
    rebuilt = np.clip(x - tau, 0.0, cap)
    res = float(np.max(np.abs(rebuilt - p)))
    res = max(res, spread)
    res = max(res, float(np.max(-np.minimum(p, 0.0), initial=0.0)))
    res = max(res, float(np.max(p - cap, initial=0.0)))
    res = max(res, p.sum() - budget)
    res = max(res, tau * max(0.0, budget - p.sum()) / max(1.0, budget))
    return res


def project_bisection(feasible_set, x, tol: float = 1e-12) -> np.ndarray:
    """Reference capped-box projection with a bisected budget threshold,
    independent of the breakpoint-sort path of CappedBox.project."""
    x = np.asarray(x, dtype=float)
    cap, budget = feasible_set.cap, feasible_set.budget
    y = np.clip(x, 0.0, cap)
    if y.sum() <= budget:
        return y
    lo, hi = 0.0, float(x.max())
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if np.clip(x - mid, 0.0, cap).sum() > budget:
            lo = mid
        else:
            hi = mid
    return np.clip(x - 0.5 * (lo + hi), 0.0, cap)


def within_box(box, x, margin):
    """box.contains with each constraint widened by margin, for weighted
    averages of feasible points, which rounding may carry just outside."""
    x = np.asarray(x)
    return bool((x >= -margin).all() and (x <= box.cap + margin).all()
                and (x.sum(axis=-1) <= box.budget + margin).all())


def distance_recorder(problem, x_star, runs):
    """problem with an f_exact that also records each evaluated point's squared
    distance to x_star, and a function returning the recorded (iterate,
    average) distances of a run of `runs` runs as C-ordered (runs, K+1) stacks.
    The engine values each block's (B, 2, R) stack of x_k and x_hat_k as one
    (-1, n) array, so each block reshapes back to (B, 2, R) distances."""
    x_star = np.asarray(x_star, dtype=float)
    f, blocks = problem.f_exact, []

    def f_exact(points):
        stack = points.reshape(-1, 2, runs, x_star.shape[0])
        blocks.append(np.sum((stack - x_star) ** 2, axis=-1))
        return f(points)

    def distances():
        dist = np.ascontiguousarray(np.concatenate(blocks).transpose(1, 2, 0))
        return dist[0], dist[1]

    return ProblemHandle(**{**vars(problem), "f_exact": f_exact}), distances


def fd_grad(f, x: np.ndarray, h: float) -> np.ndarray:
    """Central finite-difference gradient of f at x; f takes the points
    x +- h e_i in stacks of max(1, STACK_FLOATS // n) rows and values each
    as if alone."""
    n = x.shape[0]
    g = np.empty_like(x)
    rows = max(1, STACK_FLOATS // n)
    for start in range(0, n, rows):
        i = np.arange(start, min(start + rows, n))
        e = np.zeros((i.size, n))
        e[np.arange(i.size), i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def phi_slope(envelope, t):
    """Slope of a maximizing piece of phi, ties to the larger slope (a valid
    subgradient of phi): the reference slope the oracle tests compare against."""
    t = np.asarray(t, dtype=float)
    out = envelope.slopes[np.searchsorted(envelope.breakpoints, t, side="right")]
    return float(out) if out.ndim == 0 else out


def norm_cdf_interval(lo, hi):
    """P(lo < Z <= hi) for standard normal Z, as one erfc difference;
    -inf/+inf endpoints allowed, broadcasting as numpy does."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return 0.5 * (erfc(lo / np.sqrt(2.0)) - erfc(hi / np.sqrt(2.0)))


def mc_estimate_f(instance, x, n_samples, rng):
    """Monte-Carlo estimate (mean, stderr) of f using the scalar reduction
    (a + xi)'x ~ N(a'x, ||x||^2)."""
    x = np.asarray(x, dtype=float)
    mu, sigma = _moments(instance, x)
    reg = _regulariser(instance, x)
    vals = phi(instance.envelope, mu + sigma * standard_normals(rng, n_samples))
    stderr = float(vals.std(ddof=1) / np.sqrt(n_samples))
    return float(vals.mean()) + reg, stderr


def mc_estimate_f_dense(instance, x, n_samples, rng, batch=20_000):
    """Monte-Carlo estimate (mean, stderr) of f drawing full xi vectors, which
    validates the scalar reduction of mc_estimate_f."""
    x = np.asarray(x, dtype=float)
    mu, _ = _moments(instance, x)
    reg = _regulariser(instance, x)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        b = min(batch, n_samples - done)
        xi = standard_normals(rng, (b, instance.n))
        vals = phi(instance.envelope, xi @ x + mu)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += b
    mean = total / n_samples
    var = (total_sq - n_samples * mean * mean) / (n_samples - 1)
    return mean + reg, float(np.sqrt(max(var, 0.0) / n_samples))
