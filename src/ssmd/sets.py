"""Feasible sets with exact Euclidean projection and membership tests.

``CappedBox`` is the budgeted box {x : 0 <= x_i <= cap, sum x_i <= budget};
its projection clamps componentwise and, when the budget binds, shifts by
the unique threshold tau >= 0 with sum clip(x - tau, 0, cap) = budget.
The threshold is found exactly by sorting the 2n kink locations of that
piecewise-linear sum, so the projection is deterministic to roundoff.

``project`` and ``contains`` take a point (n,) or a stack (m, n): each row is
projected exactly as if alone, and a stack is contained when every row is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mirror import EUCLIDEAN, MirrorMap


def _as_rows(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise ValueError(f"expected a vector of length {n} or a stack of them, "
                         f"got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite components")
    # C order, so a row sums the same way in a stack as alone
    return np.ascontiguousarray(x)


@dataclass(frozen=True)
class CappedBox:
    """{x in R^n : 0 <= x_i <= cap for all i, sum_i x_i <= budget}."""

    n: int
    cap: float
    budget: float

    is_bounded = True
    is_simplex = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.cap <= 0.0 or self.budget <= 0.0:
            raise ValueError("cap and budget must be positive")

    def contains(self, x, tol: float = 0.0) -> bool:
        x = _as_rows(x, self.n)
        return bool(
            (x >= -tol).all()
            and (x <= self.cap + tol).all()
            and (x.sum(axis=-1) <= self.budget + tol).all()
        )

    def project(self, x) -> np.ndarray:
        x = _as_rows(x, self.n)
        y = np.clip(x, 0.0, self.cap)
        over = (y.sum(axis=-1, keepdims=True) > self.budget).reshape(-1)
        binding = np.count_nonzero(over)
        if not binding:
            return y
        # tau lies in [r - cap, r] for r the (q+1)-th largest component,
        # q = floor(budget/cap); solving on x - r clipped to [-cap, cap] keeps
        # huge components from cancelling small ones in the sums.
        n, cap = self.n, self.cap
        q = min(int(self.budget // cap), n - 1)
        every = binding == over.size
        x = x.reshape(-1, n) if every else x[over]
        r = np.partition(x, n - 1 - q, axis=-1)[:, n - 1 - q]
        s = np.clip(x - r[:, None], -cap, cap)
        tau = np.array([self._budget_tau(row, max(-cap, -ri)) for row, ri in zip(s, r)])
        # nudge a row's tau up by doubling ulps if roundoff left its sum a hair
        # over budget, so the result is exactly feasible and projection is
        # idempotent; a row once within budget stays so, hence one step for all
        step = np.spacing(cap)
        for _ in range(64):
            p = np.clip(s - tau[:, None], 0.0, cap)
            high = p.sum(axis=-1) > self.budget
            if not np.count_nonzero(high):
                if every:
                    return p.reshape(y.shape)
                y[over] = p
                return y
            tau[high] += step
            step *= 2.0
        raise ArithmeticError("capped-box projection stayed over budget")

    def _budget_tau(self, x: np.ndarray, t0: float) -> float:
        # h(t) = sum clip(x - t, 0, cap) is piecewise linear, non-increasing,
        # with kinks at x_i and x_i - cap.  Solve h(tau) = budget on the
        # segment where it crosses, for tau >= t0; h(t0) > budget up to roundoff.
        xs = np.sort(x)
        tail = np.concatenate([(xs[::-1].cumsum())[::-1], [0.0]])

        def h(ts):
            idx = np.searchsorted(xs, ts, side="right")
            above = tail[idx] - ts * (self.n - idx)
            idx_c = np.searchsorted(xs, ts + self.cap, side="right")
            above_c = tail[idx_c] - (ts + self.cap) * (self.n - idx_c)
            return above - above_c

        # sorted with ties kept: equal t give equal h, so the first crossing is
        # the first of its ties and its left neighbour is the same as unique's
        kinks = np.sort(np.concatenate([x, x - self.cap]))
        ts = np.concatenate([[t0], kinks[kinks > t0]])
        vals = h(ts)
        i = int(np.argmax(vals <= self.budget))
        if vals[i] > self.budget:
            raise AssertionError("budget threshold search failed")
        if i == 0:
            return float(ts[0])
        lo, hi = ts[i - 1], ts[i]
        vlo, vhi = vals[i - 1], vals[i]
        if vhi == vlo:
            return float(hi)
        return float(lo + (vlo - self.budget) * (hi - lo) / (vlo - vhi))


@dataclass(frozen=True)
class Simplex:
    """The probability simplex {x in R^n : x_i >= 0, sum_i x_i = 1}."""

    n: int

    is_bounded = True
    is_simplex = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")

    def contains(self, x, tol: float = 0.0) -> bool:
        x = _as_rows(x, self.n)
        return bool((x >= -tol).all() and (np.abs(x.sum(axis=-1) - 1.0) <= tol).all())

    def project(self, x) -> np.ndarray:
        x = _as_rows(x, self.n)
        u = np.sort(x, axis=-1)[..., ::-1]
        css = np.cumsum(u, axis=-1) - 1.0
        ind = np.arange(1, self.n + 1)
        # rho: the last index where the condition holds
        rho = self.n - np.argmax((u - css / ind > 0)[..., ::-1], axis=-1)[..., None]
        theta = np.take_along_axis(css, rho - 1, axis=-1) / rho
        return np.maximum(x - theta, 0.0)


def bregman_diameter_sq(feasible_set, mirror_map: MirrorMap) -> float:
    """max over pairs x, y in the set of D_w(x, y).

    Closed forms for the Euclidean map only.  For the capped box the maximum
    of ||x - y||^2 is attained by two greedy vectors with disjoint supports of
    sizes m and n - m, where g(m), the largest ||x||^2 on m components, is
    m cap^2 up to q = floor(budget/cap) and q cap^2 + r^2 beyond (r the
    remainder).  g has non-increasing increments, so g(m) + g(n - m) peaks at
    m = n // 2.
    """
    if mirror_map.kind != EUCLIDEAN:
        raise ValueError("diameter closed form is only available for the euclidean map")
    if isinstance(feasible_set, Simplex):
        return 1.0 if feasible_set.n >= 2 else 0.0
    if isinstance(feasible_set, CappedBox):
        cap, n = feasible_set.cap, feasible_set.n
        q = int(np.floor(feasible_set.budget / cap + 1e-12))
        r = max(feasible_set.budget - q * cap, 0.0)

        def g(m):
            return m * cap**2 if m <= q else q * cap**2 + r * r

        return 0.5 * (g(n // 2) + g(n - n // 2))
    raise ValueError(f"unsupported set type: {type(feasible_set).__name__}")
