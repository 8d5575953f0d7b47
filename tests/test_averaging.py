import numpy as np
import pytest

from ssmd.averaging import AverageState, weights
from ssmd.sets import CappedBox
from ssmd.stepsizes import InverseSqrtStepsize, TsengStepsize


def test_single_point():
    st = AverageState.empty().absorb(np.array([2.0, -1.0]), 1.0)
    assert np.array_equal(st.x_hat, [2.0, -1.0])
    assert st.weight_sum == 1.0 and st.count == 1


def test_uniform_mean():
    st = AverageState.empty()
    st = st.absorb(np.array([0.0, 0.0]), 1.0)
    st = st.absorb(np.array([2.0, 2.0]), 1.0)
    assert np.allclose(st.x_hat, [1.0, 1.0], atol=0)


def test_weighted_example():
    # stepsizes (1, 1, 2/3) on scalars (0, 7, 14): (0 + 7 + 1.5*14)/3.5 = 8
    st = AverageState.empty()
    for x, a in zip((0.0, 7.0, 14.0), (1.0, 1.0, 2.0 / 3.0)):
        st = st.absorb(np.array([x]), a)
    assert abs(st.x_hat[0] - 8.0) < 1e-14
    assert abs(st.weight_sum - 3.5) < 1e-14


def test_absorb_errors():
    st = AverageState.empty().absorb(np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        st.absorb(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        st.absorb(np.zeros(3), 1.0)


def test_recursion_matches_direct_sum(rng):
    import math

    for _ in range(1000):
        length = int(rng.integers(1, 501))
        dim = int(rng.integers(1, 5))
        xs = rng.standard_normal((length, dim)) * 10
        alphas = np.exp(rng.standard_normal(length))
        st = AverageState.empty()
        for x, a in zip(xs, alphas):
            st = st.absorb(x, a)
        direct = np.average(xs, axis=0, weights=1.0 / alphas)
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(st.x_hat - direct)) <= 1e-10 * scale
        exact_sum = math.fsum(1.0 / a for a in alphas)
        assert abs(st.weight_sum - exact_sum) <= 1e-12 * exact_sum
        assert st.count == length


def test_recursion_with_schedule_weights(rng):
    # the schedules the solver actually uses
    for sched in (TsengStepsize(), InverseSqrtStepsize(0.3)):
        xs = rng.standard_normal((300, 3))
        st = AverageState.empty()
        for k in range(300):
            st = st.absorb(xs[k], sched.alpha(k))
        direct = np.average(xs, axis=0, weights=1.0 / sched.alphas(299))
        assert np.max(np.abs(st.x_hat - direct)) < 1e-10


def test_average_stays_feasible(rng):
    box = CappedBox(4, 2.0, 5.0)
    st = AverageState.empty()
    for k in range(500):
        st = st.absorb(box.project(rng.random(4) * 3), 1.0 / (k + 1.0))
        assert box.contains(st.x_hat, 1e-8)


def test_weights_examples():
    assert np.array_equal(weights([1.0]), [1.0])
    assert np.array_equal(weights([1.0, 1.0, 1.0, 1.0]), [0.25] * 4)
    got = weights([1.0, 1.0, 2.0 / 3.0])
    assert np.max(np.abs(got - np.array([2.0, 2.0, 3.0]) / 7.0)) < 1e-15


def test_weights_normalized(rng):
    for _ in range(200):
        alphas = np.exp(rng.standard_normal(int(rng.integers(1, 400))))
        b = weights(alphas)
        assert np.all(b > 0.0)
        assert abs(b.sum() - 1.0) < 1e-14


def test_weights_errors():
    with pytest.raises(ValueError):
        weights([])
    with pytest.raises(ValueError):
        weights([1.0, -0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_stepsizes_are_rejected(bad):
    st = AverageState.empty().absorb(np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="positive and finite"):
        st.absorb(np.zeros(2), bad)
    with pytest.raises(ValueError, match="positive and finite"):
        AverageState.empty().absorb(np.zeros(2), bad)
    with pytest.raises(ValueError, match="positive and finite"):
        weights([1.0, bad])
    with pytest.raises(ValueError, match="positive and finite"):
        weights([bad])


def test_absorb_takes_one_point():
    with pytest.raises(ValueError, match="one point"):
        AverageState.empty().absorb(np.zeros((2, 3)), 1.0)
