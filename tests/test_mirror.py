import numpy as np
import pytest

from ssmd.mirror import (
    MirrorMap,
    bregman,
    check_quadratic_upper_bound,
    grad_w,
    prox_step,
)
from ssmd.sets import CappedBox, Simplex

EU = MirrorMap.euclidean()
NE = MirrorMap.negative_entropy()

# frozen by a 40-digit evaluation of 0.9 ln 1.8 + 0.1 ln 0.2
KL_EXAMPLE = 0.3680642071684970699
# frozen: 0.99 ln 99 + 0.01 ln(1/99)
KL_FAR = 4.5032174531318981283


def random_simplex_points(rng, n, count):
    p = rng.random((count, n)) + 1e-3
    return p / p.sum(axis=1, keepdims=True)


def test_map_invariants():
    assert EU.mu_w == 1.0 and EU.satisfies_quadratic_upper_bound
    assert NE.mu_w > 0.0 and not NE.satisfies_quadratic_upper_bound
    with pytest.raises(ValueError, match="unknown mirror map kind"):
        MirrorMap("bogus")


def test_bregman_euclidean_examples():
    assert bregman(EU, [1.0, 2.0], [1.0, 2.0]) == 0.0
    assert bregman(EU, [0.0, 0.0], [3.0, 4.0]) == 12.5


def test_bregman_entropy_example():
    got = bregman(NE, [0.5, 0.5], [0.9, 0.1])
    assert abs(got - KL_EXAMPLE) < 1e-12


def test_bregman_errors():
    with pytest.raises(ValueError):
        bregman(EU, [1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        bregman(NE, [0.5, 0.0], [0.9, 0.1])
    with pytest.raises(ValueError):
        bregman(EU, [np.nan, 0.0], [0.0, 0.0])


def test_bregman_lower_bound(rng):
    # D_w(x, z) >= (mu_w/2) ||x - z||^2 on each map's domain
    for _ in range(300):
        x = rng.random(4) * 10
        z = rng.random(4) * 10
        assert bregman(EU, x, z) >= 0.5 * np.sum((x - z) ** 2) - 1e-12
    pts = random_simplex_points(rng, 5, 600)
    for x, z in zip(pts[:300], pts[300:]):
        assert bregman(NE, x, z) >= NE.mu_w / 2 * np.sum((x - z) ** 2) - 1e-12


def test_three_point_identity(rng):
    # D(x,z) - D(y,z) = D(x,y) + <grad w(y) - grad w(x), z - y>
    for mmap, sampler in ((EU, lambda: rng.random(4) * 8 - 1),
                          (NE, lambda: random_simplex_points(rng, 4, 1)[0])):
        for _ in range(200):
            x, y, z = sampler(), sampler(), sampler()
            lhs = bregman(mmap, x, z) - bregman(mmap, y, z)
            rhs = bregman(mmap, x, y) + float(
                (grad_w(mmap, y) - grad_w(mmap, x)) @ (z - y))
            assert abs(lhs - rhs) < 1e-9


def test_prox_zero_step_limit():
    box = CappedBox(2, 10.0, 10.0)
    x = np.array([1.0, 1.0])
    out = prox_step(EU, box, x, np.array([3.0, -2.0]), 1e-12)
    assert np.max(np.abs(out - x)) < 1e-9


def test_prox_interior_step():
    box = CappedBox(2, 10.0, 10.0)
    out = prox_step(EU, box, np.array([1.0, 1.0]), np.array([1.0, 0.0]), 0.5)
    assert np.allclose(out, [0.5, 1.0], atol=1e-15)


def test_prox_entropy_example():
    out = prox_step(NE, Simplex(2), np.array([0.5, 0.5]),
                    np.array([1.0, 0.0]), np.log(2.0))
    assert np.max(np.abs(out - np.array([1.0, 2.0]) / 3.0)) < 1e-14


def test_prox_errors():
    box = CappedBox(2, 10.0, 10.0)
    with pytest.raises(ValueError):
        prox_step(EU, box, np.array([11.0, 0.0]), np.zeros(2), 1.0)  # infeasible
    with pytest.raises(ValueError):
        prox_step(EU, box, np.array([1.0, 1.0]), np.zeros(2), 0.0)  # alpha
    with pytest.raises(ValueError):
        prox_step(NE, box, np.array([1.0, 1.0]), np.zeros(2), 1.0)  # bad pairing


def test_prox_optimality(rng):
    # the returned point minimizes alpha*<g, z-x> + D_w(x, z) over the set
    box = CappedBox(3, 2.0, 4.0)
    sim = Simplex(3)
    for mmap, set_ in ((EU, box), (NE, sim)):
        for _ in range(20):
            if set_ is box:
                x = box.project(rng.random(3) * 2)
            else:
                x = random_simplex_points(rng, 3, 1)[0]
            g = rng.standard_normal(3)
            alpha = 0.1 + rng.random()
            xp = prox_step(mmap, set_, x, g, alpha)
            val_p = alpha * float(g @ (xp - x)) + bregman(mmap, x, xp)
            for _ in range(100):
                if set_ is box:
                    z = box.project(rng.random(3) * 2.5)
                else:
                    z = random_simplex_points(rng, 3, 1)[0]
                val_z = alpha * float(g @ (z - x)) + bregman(mmap, x, z)
                assert val_p <= val_z + 1e-9


def test_euclidean_prox_equals_projection(rng):
    box = CappedBox(4, 3.0, 6.0)
    for _ in range(1000):
        x = box.project(rng.random(4) * 3)
        g = rng.standard_normal(4) * 2
        alpha = 0.01 + rng.random()
        lhs = prox_step(EU, box, x, g, alpha)
        rhs = box.project(x - alpha * g)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_quadratic_upper_bound_check(rng):
    pairs = [(rng.random(5) * 10, rng.random(5) * 10) for _ in range(1000)]
    assert check_quadratic_upper_bound(EU, pairs)
    assert check_quadratic_upper_bound(EU, [])
    x = np.array([0.01, 0.99])
    z = np.array([0.99, 0.01])
    assert bregman(NE, x, z) > 0.5 * np.sum((x - z) ** 2)
    assert abs(bregman(NE, x, z) - KL_FAR) < 1e-12
    assert not check_quadratic_upper_bound(NE, [(x, z)])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_prox_step_rejects_non_finite_alpha(bad):
    box = CappedBox(2, 10.0, 10.0)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        prox_step(EU, box, np.array([1.0, 1.0]), np.ones(2), bad)
