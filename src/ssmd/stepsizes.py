"""Stepsize schedules and machine checks of the inequalities they satisfy.

Three schedules:

* ``TsengStepsize``     alpha_0 = 1, alpha_k = 2/(k+1) for k >= 1
* ``NesterovStepsize``  alpha_0 = 1, alpha_{k+1} = (sqrt(a^4 + 4a^2) - a^2)/2
* ``InverseSqrtStepsize``  alpha_k = a/sqrt(k+1)

The first two satisfy the recursive step condition
``alpha in (0, 1], alpha_0 = 1, (1 - alpha_{k+1})/alpha_{k+1}^2 <= 1/alpha_k^2``;
the *_violations functions check this and the derived cumulative-weight
bounds numerically on a table of alpha_0..alpha_K (a schedule's ``alphas``),
returning the indices where they fail, and ``verify_suite`` runs them all.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

ABS_SLACK = 1e-12


class TsengStepsize:
    """Explicit 2/(k+1) schedule with alpha_0 pinned to 1."""

    def alpha(self, k: int) -> float:
        return 1.0 if k == 0 else 2.0 / (k + 1)

    def alphas(self, k_max: int) -> np.ndarray:
        out = 2.0 / (np.arange(k_max + 1) + 1.0)
        out[0] = 1.0
        return out


class NesterovStepsize:
    """Recursive schedule; alpha(k) runs the recursion k times."""

    def alpha(self, k: int) -> float:
        return self.alphas(k)[k]

    def alphas(self, k_max: int) -> np.ndarray:
        out = [1.0]
        for _ in range(k_max):
            a = out[-1]
            sq = a**2
            out.append(0.5 * (math.sqrt(a**4 + 4.0 * sq) - sq))
        return np.array(out)


class InverseSqrtStepsize:
    """alpha_k = a/sqrt(k+1) for a tunable scale a > 0."""

    def __init__(self, a: float):
        self.a = float(a)

    def alpha(self, k: int) -> float:
        return self.a / np.sqrt(k + 1.0)

    def alphas(self, k_max: int) -> np.ndarray:
        return self.a / np.sqrt(np.arange(k_max + 1) + 1.0)


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


def step_condition_violations(al: np.ndarray) -> np.ndarray:
    """Indices k where the recursive step condition fails (slack 1e-12).

    The inequality (1 - a_{k+1})/a_{k+1}^2 <= 1/a_k^2 is checked in the
    cross-multiplied form a_k^2 (1 - a_{k+1}) <= a_{k+1}^2, whose sides stay
    O(1) so the absolute slack is meaningful even when alpha is tiny.  Each
    test is written to hold, so a nan alpha fails it.
    """
    bad = ~((0.0 < al) & (al <= 1.0 + ABS_SLACK))
    bad[0] |= not abs(al[0] - 1.0) <= ABS_SLACK
    nxt, cur = al[1:], al[:-1]
    bad[1:] |= ~(cur**2 * (1.0 - nxt) <= nxt**2 + ABS_SLACK)
    return np.nonzero(bad)[0]


def alpha_sq_sum_violations(al: np.ndarray) -> np.ndarray:
    """Indices k where alpha_k^2 * sum_{t<=k} 1/alpha_t drops below 1, or
    alpha_k is not positive and finite."""
    # a bad alpha is flagged here, and its nan or inf products need no warning
    with np.errstate(divide="ignore", invalid="ignore"):
        weighted = al**2 * kahan_cumsum(1.0 / al)
    return np.nonzero(~((0.0 < al) & (al < np.inf) & (weighted >= 1.0 - ABS_SLACK)))[0]


def sqrt_sum_growth_violations(al: np.ndarray) -> np.ndarray:
    """Indices k where sum_{t<=k} 1/alpha_t >= (2/(3a))*(k+1)^1.5 (relative
    slack 1e-12) fails for a table of the a/sqrt(k+1) schedule, a = alpha_0,
    or alpha_k is not positive and finite."""
    # a bad alpha is flagged here, and its nan or inf terms need no warning
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = (2.0 / (3.0 * al[0])) * (np.arange(al.size) + 1.0) ** 1.5
        grown = kahan_cumsum(1.0 / al) >= bound * (1.0 - ABS_SLACK)
    return np.nonzero(~((0.0 < al) & (al < np.inf) & grown))[0]


def alpha_cap_violations(al: np.ndarray) -> np.ndarray:
    """Indices k where 0 < alpha_k <= 2/(k+1) + 1e-15 fails."""
    cap = 2.0 / (np.arange(al.size) + 1.0)
    return np.nonzero(~((0.0 < al) & (al <= cap + 1e-15)))[0]


def verify_suite(k_max: int) -> list[tuple[str, Optional[int]]]:
    """Machine-check the stepsize conditions and cumulative-weight bounds:
    (check name, first violating k or None) per check."""
    tables = {"tseng": TsengStepsize().alphas(k_max),
              "nesterov": NesterovStepsize().alphas(k_max)}
    checks = [(f"{check}[{name}]", violations(al))
              for check, violations in (("step_condition", step_condition_violations),
                                        ("alpha_sq_sum", alpha_sq_sum_violations))
              for name, al in tables.items()]
    checks += [(f"sqrt_sum_growth[a={a:g}]",
                sqrt_sum_growth_violations(InverseSqrtStepsize(a).alphas(k_max)))
               for a in (0.1, 1.0, 10.0)]
    checks += [(f"alpha_cap[{name}]", alpha_cap_violations(al)) for name, al in tables.items()]
    return [(name, int(bad[0]) if bad.size else None) for name, bad in checks]
