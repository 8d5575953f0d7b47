"""Distance-generating functions, Bregman distances, and the prox step.

Two maps are shipped: the Euclidean half-squared-norm (the workhorse, for
which the prox step is an exact Euclidean projection) and negative entropy
on the probability simplex (multiplicative-weights prox).  The underlying
norm is l2 throughout, so the dual norm coincides with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EUCLIDEAN = "euclidean"
NEG_ENTROPY = "negative_entropy"

# Feasibility tolerance (l-inf on constraint violations) for prox preconditions.
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class MirrorMap:
    """A strongly convex distance generator.

    ``mu_w`` is the strong-convexity modulus with respect to the l2 norm on
    the map's paired domain, 1 for both maps.  ``satisfies_quadratic_upper_bound``
    is whether D_w(x, z) <= 0.5*||x - z||^2 holds everywhere on that domain,
    which only the Euclidean map does; the strongly convex solver requires it.
    """

    kind: str
    # negative entropy too: its Hessian diag(1/x_i) dominates the identity on the simplex
    mu_w = 1.0

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, NEG_ENTROPY):
            raise ValueError(f"unknown mirror map kind: {self.kind!r}")

    @property
    def satisfies_quadratic_upper_bound(self) -> bool:
        return self.kind == EUCLIDEAN

    @staticmethod
    def euclidean() -> "MirrorMap":
        return MirrorMap(EUCLIDEAN)

    @staticmethod
    def negative_entropy() -> "MirrorMap":
        return MirrorMap(NEG_ENTROPY)


def _check_pair(x, z):
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape != z.shape or x.ndim != 1:
        raise ValueError(f"dimension mismatch: {x.shape} vs {z.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
        raise ValueError("non-finite components")
    return x, z


def grad_w(mirror_map: MirrorMap, x) -> np.ndarray:
    """Gradient of the distance generator w at x."""
    x = np.asarray(x, dtype=float)
    if mirror_map.kind == EUCLIDEAN:
        return x.copy()
    if np.any(x <= 0.0):
        raise ValueError("negative entropy requires strictly positive components")
    return 1.0 + np.log(x)


def bregman(mirror_map: MirrorMap, x, z) -> float:
    """Bregman distance D_w(x, z) = w(z) - w(x) - <grad w(x), z - x>."""
    x, z = _check_pair(x, z)
    if mirror_map.kind == EUCLIDEAN:
        d = z - x
        return 0.5 * float(d @ d)
    if np.any(x <= 0.0) or np.any(z <= 0.0):
        raise ValueError("negative entropy requires strictly positive components")
    # Generalized KL; the linear correction vanishes on the simplex.
    return float(np.sum(z * np.log(z / x)) + np.sum(x) - np.sum(z))


def prox_step(mirror_map: MirrorMap, feasible_set, x, g, alpha: float) -> np.ndarray:
    """One mirror-descent step: argmin_{z in X} alpha*<g, z - x> + D_w(x, z).

    For the Euclidean map this is the projection of x - alpha*g onto X; for
    negative entropy on the simplex it is the multiplicative-weights update.
    Checks its inputs, then calls :func:`prox`.
    """
    x, g = _check_pair(x, g)
    if not 0.0 < alpha < np.inf:
        raise ValueError("alpha must be positive and finite")
    if not feasible_set.contains(x, FEAS_TOL):
        raise ValueError("prox step requires a feasible base point")
    return prox(mirror_map, feasible_set, x, g, alpha)


def prox(mirror_map: MirrorMap, feasible_set, x, g, alpha) -> np.ndarray:
    """The step of :func:`prox_step` without its checks, on one point (n,) or
    row by row on a stack (m, n): x feasible and finite, g broadcasting to
    x's shape, alpha positive and a scalar or one per row (m, 1)."""
    if mirror_map.kind == EUCLIDEAN:
        return feasible_set.project(x - alpha * g)
    if getattr(feasible_set, "is_simplex", False):
        logits = np.log(x) - alpha * g
        y = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return y / y.sum(axis=-1, keepdims=True)
    raise ValueError("negative entropy is only paired with a simplex set")


def check_quadratic_upper_bound(mirror_map: MirrorMap, samples, tol: float = 1e-12) -> bool:
    """True iff D_w(x, z) <= 0.5*||x - z||^2 + tol for every sample pair."""
    for x, z in samples:
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        d = z - x
        if bregman(mirror_map, x, z) > 0.5 * float(d @ d) + tol:
            return False
    return True
