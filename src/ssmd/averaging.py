"""Running 1/alpha-weighted average of iterates.

The average is maintained by the convex-combination recursion

    S_new = S + 1/alpha,   x_hat_new = (S/S_new) * x_hat + (1 - S/S_new) * x,

which keeps x_hat inside the feasible set whenever every absorbed point is,
and keeps magnitudes bounded.  The cumulative weight S carries a Kahan
compensation term.  A stack of points (R, n) is averaged row by row.
"""

import numpy as np


class AverageState:
    """Weighted average x_hat of absorbed points with cumulative weight sum;
    AverageState() holds no point yet."""

    def __init__(self):
        self.x_hat, self.weight_sum, self._carry = None, 0.0, 0.0

    def absorb(self, x, alpha) -> None:
        """Absorb a float point (n,) with weight 1/alpha, or a stack (R, n)
        with one alpha per row (R, 1), in place; x_hat is a new array each
        call, so an x_hat kept from before never changes."""
        y = 1.0 / alpha - self._carry
        new_sum = self.weight_sum + y
        self._carry = (new_sum - self.weight_sum) - y
        if self.x_hat is None:
            self.x_hat = x.astype(float)
        else:
            ratio = self.weight_sum / new_sum
            self.x_hat = ratio * self.x_hat + (1.0 - ratio) * x
        self.weight_sum = new_sum
