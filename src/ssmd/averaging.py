"""Running 1/alpha-weighted average of iterates.

The average is maintained by the convex-combination recursion

    S_new = S + 1/alpha,   x_hat_new = (S/S_new) * x_hat + (1 - S/S_new) * x,

which keeps x_hat inside the feasible set whenever every absorbed point is,
and keeps magnitudes bounded.  The cumulative weight S carries a Kahan
compensation term.  A stack of points (R, n) is averaged row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np


@dataclass(frozen=True)
class AverageState:
    """Weighted average x_hat of absorbed points with cumulative weight sum."""

    x_hat: Optional[np.ndarray]
    weight_sum: Union[float, np.ndarray]
    _carry: Union[float, np.ndarray] = 0.0

    @staticmethod
    def empty() -> "AverageState":
        return AverageState(x_hat=None, weight_sum=0.0)

    def absorb(self, x, alpha) -> "AverageState":
        """Absorb a point (n,) with weight 1/alpha, or a stack (R, n) with one
        alpha per row (R, 1); returns the updated state."""
        x = np.asarray(x, dtype=float)
        y = 1.0 / alpha - self._carry
        new_sum = self.weight_sum + y
        carry = (new_sum - self.weight_sum) - y
        if self.x_hat is None:
            return AverageState(x.copy(), new_sum, carry)
        ratio = self.weight_sum / new_sum
        x_hat = ratio * self.x_hat + (1.0 - ratio) * x
        return AverageState(x_hat, new_sum, carry)
