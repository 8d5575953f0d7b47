"""Running 1/alpha-weighted average of iterates.

The average is maintained by the convex-combination recursion

    S_new = S + 1/alpha,   x_hat_new = (S/S_new) * x_hat + (1 - S/S_new) * x,

which keeps x_hat inside the feasible set whenever every absorbed point is,
and keeps magnitudes bounded.  The cumulative weight S carries a Kahan
compensation term.  A state averages a point (n,), or a stack (m, n) row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import Optional, Union

import numpy as np


@dataclass(frozen=True)
class AverageState:
    """Weighted average x_hat of absorbed points with cumulative weight sum."""

    x_hat: Optional[np.ndarray]
    weight_sum: Union[float, np.ndarray]
    count: int
    _carry: Union[float, np.ndarray] = 0.0

    @staticmethod
    def empty() -> "AverageState":
        return AverageState(x_hat=None, weight_sum=0.0, count=0)

    def absorb(self, x, alpha) -> "AverageState":
        """Absorb a point (n,) with weight 1/alpha, or a stack (m, n) with one
        alpha per row (m,); returns the updated state."""
        x = np.asarray(x, dtype=float)
        if self.x_hat is not None and x.shape != self.x_hat.shape:
            raise ValueError("dimension mismatch with the running average")
        if np.ndim(alpha):
            alpha = np.asarray(alpha, dtype=float)
            if alpha.shape != x.shape[:-1]:
                raise ValueError("need one alpha, or one per row of the stack")
            positive = (alpha > 0.0).all()
        else:
            positive = alpha > 0.0
        if not positive:
            raise ValueError("alpha must be positive")
        w = 1.0 / alpha
        y = w - self._carry
        new_sum = self.weight_sum + y
        carry = (new_sum - self.weight_sum) - y
        if self.x_hat is None:
            return AverageState(x.copy(), new_sum, 1, carry)
        ratio = self.weight_sum / new_sum
        if isinstance(ratio, np.ndarray):
            ratio = ratio[:, None]
        x_hat = ratio * self.x_hat + (1.0 - ratio) * x
        return AverageState(x_hat, new_sum, self.count + 1, carry)


def weights(alphas) -> np.ndarray:
    """Convex weights beta_t = (1/alpha_t) / sum_s (1/alpha_s)."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size == 0:
        raise ValueError("need at least one stepsize")
    if np.any(alphas <= 0.0):
        raise ValueError("stepsizes must be positive")
    inv = 1.0 / alphas
    return inv / fsum(inv)
