"""Running 1/alpha-weighted average of iterates.

The average is maintained by the convex-combination recursion

    S_new = S + 1/alpha,   x_hat_new = (S/S_new) * x_hat + (1 - S/S_new) * x,

which keeps x_hat inside the feasible set whenever every absorbed point is,
and keeps magnitudes bounded.  The cumulative weight S carries a Kahan
compensation term.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class AverageState:
    """Weighted average x_hat of absorbed points with cumulative weight sum."""

    x_hat: Optional[np.ndarray]
    weight_sum: float
    count: int
    _carry: float = 0.0

    @staticmethod
    def empty() -> "AverageState":
        return AverageState(x_hat=None, weight_sum=0.0, count=0)

    def absorb(self, x, alpha: float) -> "AverageState":
        """Absorb a point (n,) with weight 1/alpha; returns the updated state."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or self.x_hat is not None and x.shape != self.x_hat.shape:
            raise ValueError("need one point (n,) of the running average's dimension")
        if not 0.0 < alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        y = 1.0 / alpha - self._carry
        new_sum = self.weight_sum + y
        carry = (new_sum - self.weight_sum) - y
        if self.x_hat is None:
            return AverageState(x.copy(), new_sum, 1, carry)
        ratio = self.weight_sum / new_sum
        x_hat = ratio * self.x_hat + (1.0 - ratio) * x
        return AverageState(x_hat, new_sum, self.count + 1, carry)


def weights(alphas) -> np.ndarray:
    """Convex weights beta_t = (1/alpha_t) / sum_s (1/alpha_s)."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size == 0:
        raise ValueError("need at least one stepsize")
    if not ((0.0 < alphas) & (alphas < np.inf)).all():
        raise ValueError("stepsizes must be positive and finite")
    inv = 1.0 / alphas
    return inv / fsum(inv)
