"""The feasible set, with exact Euclidean projection and membership tests.

``CappedBox`` is the budgeted box {x : 0 <= x_i <= cap, sum x_i <= budget};
its projection clamps componentwise and, when the budget binds, shifts by
the unique threshold tau >= 0 with sum clip(x - tau, 0, cap) = budget.
The threshold is found exactly among the sorted kinks of that piecewise-linear
sum, by one scalar search per binding row: a bisection over the row's sorted
values that an a-priori rounding-error bound certifies, then a scan of the kinks
above the last value it rules out, so the projection is deterministic to
roundoff.  A lone row is sorted in full; the rows of a stack are searched in a
window of their largest components, taken from one partition, and a row is
sorted in full only when the bound does not certify its window.

``project`` and ``contains`` take a point (n,) or a stack (m, n): each row is
projected exactly as if alone, and a stack is contained when every row is.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import inf, nextafter

import numpy as np

_EPS = float(np.finfo(float).eps)

# The one accepted range of cap, budget, every a and a positive lambda, checked
# here and in harness.parse_config.  At both ends, with n and K + 1 below 2^40
# (more than fits in memory), the extreme float expressions stay far inside the
# normal floats [2^-1022, 2^1024): C^2, about n cap^2 lambda^2, is at most 2^280
# (a C^2 in the compact bound 2^340), f and the strongly convex bounds
# C^2 / lambda and C^2 / lambda^2 at most 2^220, the weight sums
# S_K <= (K + 1)^1.5 / a at most 2^120, and _tau's interpolation product, at
# most 4 n cap^2 <= 2^162, and its error bound 16 n (n + 4) cap eps, at least
# 2^-112, leave room for every rounding step.  project's shift x - r stays
# below 2^184: points are below 2^60 + 2^60 2^121 after an engine step (step
# <= 2^60, |g_i| <= 0.36 (1 + |xi_i|) + lambda |x_i - anchor_i| < 2^121 with
# |xi| < 9), 2^27 2^121 after a reference step and cap in the constants estimate
MAGNITUDES = (2.0 ** -60, 2.0 ** 60)


def range_errors(key: str, *values: float) -> list[str]:
    """One message naming key for each value outside MAGNITUDES (nan is)."""
    lo, hi = MAGNITUDES
    return [f"{key} must be in [2^-60, 2^60], got {value!r}"
            for value in values if not lo <= value <= hi]


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

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        errors = range_errors("cap", self.cap) + range_errors("budget", self.budget)
        if errors:
            raise ValueError("; ".join(errors))

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
        # a lone row is sorted in full; a stack's window is each row's top
        # max(64, q) + 1 values, from one partition and a sort of the values
        # above it.  x -> clip(x - r) keeps order, so shifted and clipped, the
        # window is s's top values, sorted.  Sorting stacks in full instead took
        # the n = 1000, cap = budget = 1 constants estimate from 132 to 190 ms
        # (medians of 9 processes on a 2-core Xeon)
        lo = max(n - 1 - max(64, q), 0) if binding > 1 else 0
        xs = np.sort(np.partition(x, lo, axis=-1)[:, lo:] if lo else x, axis=-1)
        r = xs[:, n - 1 - q - lo, None]
        s = np.subtract(x, r)
        s.clip(-cap, cap, out=s)
        xs = (xs - r).clip(-cap, cap)
        tau = self._tau(s, xs, np.maximum(-cap, -r[:, 0]))
        # nudge a row's tau up by doubling ulps if roundoff left its sum a hair
        # over budget, so the result is exactly feasible and projection is
        # idempotent; a row once within budget stays so, hence one step for all
        # and a pass re-clips only the rows still over budget: s and tau shrink
        # to them, and p[at] holds them (at = None while they are all of p)
        step, at = np.spacing(cap), None
        for _ in range(64):
            part = np.subtract(s, tau[:, None])
            part.clip(0.0, cap, out=part)
            if at is None:
                p = part
            else:
                p[at] = part
            high = part.sum(axis=-1) > self.budget
            count = np.count_nonzero(high)
            if not count:
                if every:
                    return p.reshape(y.shape)
                y[over] = p
                return y
            if count < len(high):
                at = np.flatnonzero(high) if at is None else at[high]
                s, tau = s[high], tau[high]
            tau += step
            step *= 2.0
        raise ArithmeticError("capped-box projection stayed over budget")

    def _tau(self, s: np.ndarray, xs: np.ndarray, t0: np.ndarray) -> np.ndarray:
        # Per row, h(t) = sum clip(s - t, 0, cap) is piecewise linear and
        # non-increasing, with kinks at s_i and s_i - cap; tau >= t0 solves
        # h(tau) = budget between the first kink where computed h <= budget
        # and the kink before (or is t0, if h(t0) <= budget).  xs is each row's
        # s sorted, in full or a window of its top values: for t >= L, the
        # window's smallest value, its h is the whole row's bit for bit (tail
        # sums add from the largest value down).  A row is searched from
        # max(t0, L), and sorted in full when L > t0 and h(L) <= budget + 2E.
        # E = 16 n (n + 4) cap eps bounds h's rounding error: values lie in
        # [-cap, cap] and t in [-2cap, cap], so each tail sum errs by at most
        # n^2 cap eps / 2 and h's other steps by 9n cap eps.  Bisecting the
        # values above the start finds one with h <= budget + 2E whose
        # predecessor has h > budget + 2E, so no kink at or below it has
        # computed h <= budget; a scan of the kinks above it, s_i and s_i - cap
        # merged, finds the first.  h(max s) = 0 ends both.
        m, w = xs.shape
        cap, budget = self.cap, self.budget
        bound = budget + 2.0 * (16.0 * self.n * (self.n + 4) * cap * _EPS)
        tail = np.zeros((m, w + 1))
        np.add.accumulate(xs[:, ::-1], axis=-1, out=tail[:, w - 1::-1])
        flat_s, flat_l = memoryview(xs.ravel()), memoryview((xs - cap).ravel())
        flat_tail = memoryview(tail.ravel())
        taus, redo = t0.tolist(), []
        for k, t in enumerate(taus):
            # row k's values, its values less cap and its tail sums
            vs, vl = flat_s[k * w:k * w + w], flat_l[k * w:k * w + w]
            vt = flat_tail[k * (w + 1):k * (w + 1) + w + 1]

            def h(t):
                i, tc = bisect_right(vs, t), t + cap
                i_c = bisect_right(vs, tc, i)
                return (vt[i] - t * (w - i)) - (vt[i_c] - tc * (w - i_c))

            lo = vs[0] if w < self.n and vs[0] > t else t
            vlo = h(lo)
            if lo > t and vlo <= bound:
                redo.append(k)
                continue
            if vlo <= budget:
                # a crossing at t0 gives tau = t0
                hi, vhi, vlo = lo, vlo, nextafter(budget, inf)
            else:
                if vlo > bound:
                    below, end = bisect_right(vs, lo) - 1, w - 1
                    while end - below > 1:
                        mid = (below + end) // 2
                        v = h(vs[mid])
                        if v > bound:
                            lo, vlo, below = vs[mid], v, mid
                        else:
                            end = mid
                i, j = bisect_right(vs, lo), bisect_right(vl, lo)
                while True:
                    if j < w and vl[j] < vs[i]:
                        hi, j = vl[j], j + 1
                    else:
                        hi, i = vs[i], i + 1
                    vhi = h(hi)
                    if vhi <= budget:
                        break
                    lo, vlo = hi, vhi
            taus[k] = lo + (vlo - budget) * (hi - lo) / (vlo - vhi)
        tau = np.array(taus)
        if redo:
            tau[redo] = self._tau(s[redo], np.sort(s[redo], axis=-1), t0[redo])
        return tau


def bregman_diameter_sq(box: CappedBox) -> float:
    """max over pairs x, y in the capped box of D_w(x, y) = ||x - y||^2 / 2.

    The maximum of ||x - y||^2 is attained by two greedy vectors with
    disjoint supports of sizes m and n - m, where g(m), the largest ||x||^2
    on m components, is m cap^2 up to q = floor(budget/cap) and
    q cap^2 + r^2 beyond (r the remainder).  g has non-increasing
    increments, so g(m) + g(n - m) peaks at m = n // 2.  q is clamped at n,
    where g(m) = m cap^2 for every m <= n, so a budget far above n cap
    gives n cap^2 / 2.
    """
    cap, n = box.cap, box.n
    q = int(np.floor(min(box.budget / cap + 1e-12, n)))
    r = max(box.budget - q * cap, 0.0)

    def g(m):
        return m * cap * cap if m <= q else q * cap * cap + r * r

    return 0.5 * (g(n // 2) + g(n - n // 2))
