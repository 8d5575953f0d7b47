import numpy as np
from conftest import within_box

from ssmd.averaging import AverageState
from ssmd.sets import CappedBox
from ssmd.stepsizes import InverseSqrtStepsize, TsengStepsize


def test_single_point():
    st = AverageState.empty().absorb(np.array([2.0, -1.0]), 1.0)
    assert np.array_equal(st.x_hat, [2.0, -1.0])
    assert st.weight_sum == 1.0


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
        assert within_box(box, st.x_hat, 1e-8)
