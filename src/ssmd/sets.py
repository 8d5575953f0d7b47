"""Feasible sets with exact Euclidean projection and membership tests.

``CappedBox`` is the budgeted box {x : 0 <= x_i <= cap, sum x_i <= budget};
its projection clamps componentwise and, when the budget binds, shifts by
the unique threshold tau >= 0 with sum clip(x - tau, 0, cap) = budget.
The threshold is found exactly among the sorted kinks of that piecewise-linear
sum, searched per row in a window of its largest components that widens until
it provably holds the solution, so the projection is deterministic to roundoff.
A lone binding row is searched in scalar steps instead, by a bisection that the
same rounding-error bound certifies, with the same result bit for bit.

``project`` and ``contains`` take a point (n,) or a stack (m, n): each row is
projected exactly as if alone, and a stack is contained when every row is.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import inf, nextafter

import numpy as np

from .mirror import EUCLIDEAN, MirrorMap

_EPS = float(np.finfo(float).eps)


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
        if not (0.0 < self.cap < np.inf and 0.0 < self.budget < np.inf):
            raise ValueError("cap and budget must be positive and finite")

    def contains(self, x, tol: float = 0.0) -> bool:
        x = _as_rows(x, self.n)
        return bool(
            (x >= -tol).all()
            and (x <= self.cap + tol).all()
            and (x.sum(axis=-1) <= self.budget + tol).all()
        )

    def project(self, x) -> np.ndarray:
        x = _as_rows(x, self.n)
        y = x.clip(0.0, self.cap)
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
        if binding == 1:
            # a lone row is sorted once: x -> clip(x - r) keeps order, so its s
            # sorted is its x sorted, shifted and clipped
            xs = np.sort(x, axis=-1)
            r = xs[:, n - 1 - q, None]
            s = (x - r).clip(-cap, cap)
            tau = self._row_tau((xs[0] - r[0]).clip(-cap, cap), max(-cap, -float(r[0, 0])))
        else:
            r = np.partition(x, n - 1 - q, axis=-1)[:, n - 1 - q, None]
            s = (x - r).clip(-cap, cap)
            tau = self._budget_tau(np.sort(s, axis=-1), np.maximum(-cap, -r),
                                   n if binding * n <= 4096 else min(n, 64))
        # nudge a row's tau up by doubling ulps if roundoff left its sum a hair
        # over budget, so the result is exactly feasible and projection is
        # idempotent; a row once within budget stays so, hence one step for all
        step = np.spacing(cap)
        for _ in range(64):
            p = (s - tau[:, None]).clip(0.0, cap)
            high = p.sum(axis=-1) > self.budget
            if not np.count_nonzero(high):
                if every:
                    return p.reshape(y.shape)
                y[over] = p
                return y
            tau[high] += step
            step *= 2.0
        raise ArithmeticError("capped-box projection stayed over budget")

    def _budget_tau(self, xs: np.ndarray, t0: np.ndarray, width: int) -> np.ndarray:
        # xs: each row's s, sorted.  Per row, h(t) = sum clip(s - t, 0, cap) is
        # piecewise linear and non-increasing, with kinks at s_i and s_i - cap;
        # tau >= t0 solves h(tau) = budget between the first kink where h <=
        # budget and the kink before.  A row is searched in a window, its top
        # `width` values (all of them in a stack of at most 4096 values, where a
        # window saves little and may cost a second pass): for t >= L, the
        # largest value left out, the window's h is the whole row's bit for bit
        # (cumsum adds from the largest value down).  It holds the row's crossing
        # and the kink before when L <= t0, or when h(L) > budget + 2E, E a bound
        # on h's rounding error: computed h then exceeds budget at every kink
        # below L.  Other rows get a window 8 times wider, capped at one holding
        # every value above t0.  E = 16 n (n + 4) cap eps: values lie in [-cap,
        # cap] and t in [-2cap, cap], so each cumsum errs by at most n^2 cap eps
        # / 2 and h's other steps by 9n cap eps: n (n + 9) cap eps to first order.
        n, cap, budget = self.n, self.cap, self.budget
        t, top = t0, xs[:, n - width:]
        if width < n:
            t = np.maximum(t0, xs[:, n - width - 1, None])
        tail = np.zeros((len(top), width + 1))
        np.add.accumulate(top[:, ::-1], axis=-1, out=tail[:, width - 1::-1])
        # ties kept: equal t give equal h; kinks at or below t are read as t
        kinks = np.sort(np.concatenate([top, top - cap], axis=-1), axis=-1, kind="stable")
        kinks = kinks[:, _count_le(kinks, t).min():]
        ts = np.concatenate([t, t, np.maximum(kinks, t)], axis=-1)
        tc = ts + cap
        i, i_c = _count_le(top, ts), _count_le(top, tc)
        rows = np.arange(0, tail.size, width + 1)[:, None]
        tail = tail.ravel()
        above = tail[i + rows] - ts * np.subtract(width, i, dtype=float)
        vals = above - (tail[i_c + rows] - tc * np.subtract(width, i_c, dtype=float))
        # column 0, a copy of t valued just over budget, makes a crossing at t
        # give tau = t; h is 0 at the largest kink, so every row crosses
        vals[:, 0] = np.nextafter(budget, np.inf)
        at = (vals <= budget).argmax(axis=-1) + np.arange(0, ts.size, ts.shape[1])
        ts, flat, pre = ts.ravel(), vals.ravel(), at - 1
        lo, hi, vlo, vhi = ts[pre], ts[at], flat[pre], flat[at]
        tau = lo + (vlo - budget) * (hi - lo) / (vlo - vhi)
        if width < n:
            redo = (t > t0)[:, 0] & (vals[:, 1] <= budget + 2.0 * self._h_error)
            if redo.any():
                xs, t0 = xs[redo], t0[redo]
                need = int(np.count_nonzero(xs > t0, axis=-1).max())
                tau[redo] = self._budget_tau(xs, t0, min(need, 8 * width))
        return tau

    def _row_tau(self, xs: np.ndarray, t0: float) -> np.ndarray:
        # _budget_tau's search for one row, xs its s sorted, in scalar steps:
        # the same h(t) by the same float operations (Python floats round as
        # numpy's do), and the same bracket, so the same tau bit for bit.
        # Bisecting the values s_j above t0 finds one with h <= budget + 2E
        # whose predecessor (the value before it, or t0) has h > budget + 2E: h is
        # non-increasing and computed within E, so no kink at or below that
        # predecessor has computed h <= budget, and scanning every kink above
        # it, s_i and s_i - cap merged, finds the first one as the full search
        # does.  h(s_{n-1}) = 0 ends both.
        n, cap, budget = self.n, self.cap, self.budget
        tail = np.zeros(n + 1)
        np.add.accumulate(xs[::-1], out=tail[n - 1::-1])
        vs, vl, vt = memoryview(xs), memoryview(xs - cap), memoryview(tail)

        def h(t):
            i, tc = bisect_right(vs, t), t + cap
            i_c = bisect_right(vs, tc, i)
            return (vt[i] - t * float(n - i)) - (vt[i_c] - tc * float(n - i_c))

        lo, vlo = t0, h(t0)
        if vlo <= budget:
            # as _budget_tau's column 0: a crossing at t0 gives tau = t0
            hi, vhi, vlo = t0, vlo, nextafter(budget, inf)
        else:
            bound = budget + 2.0 * self._h_error
            if vlo > bound:
                below, end = bisect_right(vs, t0) - 1, n - 1
                while end - below > 1:
                    mid = (below + end) // 2
                    v = h(vs[mid])
                    if v > bound:
                        lo, vlo, below = vs[mid], v, mid
                    else:
                        end = mid
            i, j = bisect_right(vs, lo), bisect_right(vl, lo)
            while True:
                if j < n and vl[j] < vs[i]:
                    hi, j = vl[j], j + 1
                else:
                    hi, i = vs[i], i + 1
                vhi = h(hi)
                if vhi <= budget:
                    break
                lo, vlo = hi, vhi
        return np.array([lo + (vlo - budget) * (hi - lo) / (vlo - vhi)])

    @property
    def _h_error(self) -> float:
        # E of _budget_tau: a bound on the rounding error of computed h
        return 16.0 * self.n * (self.n + 4) * self.cap * _EPS


def _count_le(top: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per row, the count of sorted `top`'s entries <= each of sorted `q`'s
    (numpy's searchsorted takes one row at a time)."""
    if len(top) == 1:
        return top[0].searchsorted(q[0], side="right")[None]
    return np.array([row.searchsorted(v, side="right") for row, v in zip(top, q)])


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
    m = n // 2.  q is clamped at n, where g(m) = m cap^2 for every m <= n, so
    a budget far above n cap (budget/cap may overflow) gives n cap^2 / 2.
    """
    if mirror_map.kind != EUCLIDEAN:
        raise ValueError("diameter closed form is only available for the euclidean map")
    if isinstance(feasible_set, Simplex):
        return 1.0 if feasible_set.n >= 2 else 0.0
    if isinstance(feasible_set, CappedBox):
        cap, n = feasible_set.cap, feasible_set.n
        q = int(np.floor(min(feasible_set.budget / cap + 1e-12, n)))
        r = max(feasible_set.budget - q * cap, 0.0)

        def g(m):
            return m * cap**2 if m <= q else q * cap**2 + r * r

        return 0.5 * (g(n // 2) + g(n - n // 2))
    raise ValueError(f"unsupported set type: {type(feasible_set).__name__}")
