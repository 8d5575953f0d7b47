"""Stepsize schedules and machine checks of the inequalities they satisfy.

Three schedules:

* ``TsengStepsize``     alpha_0 = 1, alpha_k = 2/(k+1) for k >= 1
* ``NesterovStepsize``  alpha_0 = 1, alpha_{k+1} = (sqrt(a^4 + 4a^2) - a^2)/2
* ``InverseSqrtStepsize``  alpha_k = a/sqrt(k+1)

The first two satisfy the recursive step condition
``alpha in (0, 1], alpha_0 = 1, (1 - alpha_{k+1})/alpha_{k+1}^2 <= 1/alpha_k^2``;
the *_violations functions check this and the derived cumulative-weight
bounds numerically, returning the indices where they fail.
"""

from __future__ import annotations

import numpy as np

ABS_SLACK = 1e-12


class TsengStepsize:
    """Explicit 2/(k+1) schedule with alpha_0 pinned to 1."""

    def alpha(self, k: int) -> float:
        if k < 0:
            raise ValueError("k must be nonnegative")
        return 1.0 if k == 0 else 2.0 / (k + 1)

    def alphas(self, k_max: int) -> np.ndarray:
        out = 2.0 / (np.arange(k_max + 1) + 1.0)
        out[0] = 1.0
        return out

    def __repr__(self):
        return "TsengStepsize()"


class NesterovStepsize:
    """Recursive schedule; memoized so alpha(k) is O(1) amortized.

    An extension builds a new list and then replaces the memo, and a caller
    reads from the list it was handed, so a reader never sees a list being
    extended and every list holds the same values.
    """

    def __init__(self):
        self._memo = [1.0]

    def _table(self, k: int) -> list:
        memo = self._memo
        if len(memo) <= k:
            memo = list(memo)
            while len(memo) <= k:
                a = memo[-1]
                memo.append(0.5 * (np.sqrt(a**4 + 4.0 * a**2) - a**2))
            self._memo = memo
        return memo

    def alpha(self, k: int) -> float:
        if k < 0:
            raise ValueError("k must be nonnegative")
        return self._table(k)[k]

    def alphas(self, k_max: int) -> np.ndarray:
        return np.array(self._table(k_max)[: k_max + 1])

    def __repr__(self):
        return "NesterovStepsize()"


class InverseSqrtStepsize:
    """alpha_k = a/sqrt(k+1) for a tunable scale a > 0."""

    def __init__(self, a: float):
        if not 0.0 < a < np.inf:
            raise ValueError("a must be positive and finite")
        self.a = float(a)

    def alpha(self, k: int) -> float:
        if k < 0:
            raise ValueError("k must be nonnegative")
        return self.a / np.sqrt(k + 1.0)

    def alphas(self, k_max: int) -> np.ndarray:
        return self.a / np.sqrt(np.arange(k_max + 1) + 1.0)

    def __repr__(self):
        return f"InverseSqrtStepsize(a={self.a!r})"


def schedule_alphas(schedule, k_max: int) -> np.ndarray:
    """alpha(0..k_max) as a float array, from the schedule's alphas(k_max)."""
    return np.asarray(schedule.alphas(k_max), dtype=float)


def kahan_cumsum(terms: np.ndarray) -> np.ndarray:
    """Compensated running sums; error stays O(eps) regardless of length."""
    out = np.empty_like(terms, dtype=float)
    s = 0.0
    c = 0.0
    for i, t in enumerate(terms):
        y = t - c
        tmp = s + y
        c = (tmp - s) - y
        s = tmp
        out[i] = s
    return out


def _reject_inverse_sqrt(schedule):
    if isinstance(schedule, InverseSqrtStepsize):
        raise ValueError("the recursive step condition is not claimed for a/sqrt(k+1)")


def step_condition_violations(schedule, k_max: int) -> np.ndarray:
    """Indices k where the recursive step condition fails (slack 1e-12).

    The inequality (1 - a_{k+1})/a_{k+1}^2 <= 1/a_k^2 is checked in the
    cross-multiplied form a_k^2 (1 - a_{k+1}) <= a_{k+1}^2, whose sides stay
    O(1) so the absolute slack is meaningful even when alpha is tiny.  Each
    test is written to hold, so a nan alpha fails it.
    """
    _reject_inverse_sqrt(schedule)
    al = schedule_alphas(schedule, k_max)
    bad = ~((0.0 < al) & (al <= 1.0 + ABS_SLACK))
    bad[0] |= not abs(al[0] - 1.0) <= ABS_SLACK
    nxt, cur = al[1:], al[:-1]
    bad[1:] |= ~(cur**2 * (1.0 - nxt) <= nxt**2 + ABS_SLACK)
    return np.nonzero(bad)[0]


def alpha_sq_sum_violations(schedule, k_max: int) -> np.ndarray:
    """Indices k where alpha_k^2 * sum_{t<=k} 1/alpha_t drops below 1, or
    alpha_k is not positive and finite."""
    al = schedule_alphas(schedule, k_max)
    # a bad alpha is flagged here, and its nan or inf products need no warning
    with np.errstate(divide="ignore", invalid="ignore"):
        weighted = al**2 * kahan_cumsum(1.0 / al)
    return np.nonzero(~((0.0 < al) & (al < np.inf) & (weighted >= 1.0 - ABS_SLACK)))[0]


def sqrt_sum_growth_violations(a: float, k_max: int) -> np.ndarray:
    """Indices k where sum_{t<=k} 1/alpha_t < (2/(3a))*(k+1)^1.5 for the
    a/sqrt(k+1) schedule (relative slack 1e-12)."""
    if not 0.0 < a < np.inf:
        raise ValueError("a must be positive and finite")
    s = kahan_cumsum(1.0 / InverseSqrtStepsize(a).alphas(k_max))
    bound = (2.0 / (3.0 * a)) * (np.arange(k_max + 1) + 1.0) ** 1.5
    return np.nonzero(s < bound * (1.0 - ABS_SLACK))[0]


def alpha_cap_violations(schedule, k_max: int) -> np.ndarray:
    """Indices k where 0 < alpha_k <= 2/(k+1) + 1e-15 fails."""
    _reject_inverse_sqrt(schedule)
    al = schedule_alphas(schedule, k_max)
    cap = 2.0 / (np.arange(k_max + 1) + 1.0)
    return np.nonzero(~((0.0 < al) & (al <= cap + 1e-15)))[0]
