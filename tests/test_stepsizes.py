import sys
import threading

import numpy as np
import pytest

from ssmd.stepsizes import (
    InverseSqrtStepsize,
    NesterovStepsize,
    TsengStepsize,
    alpha_cap_violations,
    kahan_cumsum,
    schedule_alphas,
    verify_alpha_cap,
    verify_alpha_sq_sum_bound,
    verify_sqrt_sum_growth,
    verify_step_condition,
)

GOLDEN_RATIO_CONJ = 0.6180339887498948482  # (sqrt(5) - 1)/2


class ConstantSchedule:
    def __init__(self, value):
        self.value = value

    def alpha(self, k):
        return self.value


def test_alpha_values():
    t = TsengStepsize()
    assert t.alpha(0) == 1.0
    assert t.alpha(3) == 0.5
    n = NesterovStepsize()
    assert n.alpha(0) == 1.0
    assert abs(n.alpha(1) - GOLDEN_RATIO_CONJ) < 1e-15
    assert InverseSqrtStepsize(2.0).alpha(3) == 1.0
    with pytest.raises(ValueError):
        InverseSqrtStepsize(0.0)
    with pytest.raises(ValueError):
        t.alpha(-1)


def test_alphas_match_alpha():
    for sched in (TsengStepsize(), NesterovStepsize(), InverseSqrtStepsize(0.7)):
        arr = sched.alphas(500)
        assert np.array_equal(arr, [sched.alpha(k) for k in range(501)])


def test_step_condition():
    assert verify_step_condition(TsengStepsize(), 100_000)
    assert verify_step_condition(NesterovStepsize(), 100_000)
    assert verify_step_condition(ConstantSchedule(1.0), 1000)
    assert not verify_step_condition(ConstantSchedule(0.5), 1000)
    with pytest.raises(ValueError):
        verify_step_condition(InverseSqrtStepsize(1.0), 10)


def test_tseng_step_condition_algebra():
    # (1 - 2/(k+2)) (k+2)^2/4 = k(k+2)/4 <= (k+1)^2/4, checked symbolically
    k = np.arange(0, 10_000)
    assert np.all(k * (k + 2) <= (k + 1) ** 2)


def test_alpha_sq_sum_bound():
    assert verify_alpha_sq_sum_bound(TsengStepsize(), 100_000)
    assert verify_alpha_sq_sum_bound(NesterovStepsize(), 100_000)
    # k = 0 alone: alpha0^2 * (1/alpha0) = 1
    assert verify_alpha_sq_sum_bound(ConstantSchedule(1.0), 0)


def test_sqrt_sum_growth():
    assert verify_sqrt_sum_growth(1.0, 100_000)
    assert verify_sqrt_sum_growth(7.5, 1000)
    assert verify_sqrt_sum_growth(0.1, 1000)
    # k = 0: 1/alpha_0 = 1/a >= 2/(3a)
    assert verify_sqrt_sum_growth(1.0, 1)
    with pytest.raises(ValueError):
        verify_sqrt_sum_growth(-1.0, 10)


def test_alpha_cap():
    assert verify_alpha_cap(NesterovStepsize(), 1)
    assert verify_alpha_cap(TsengStepsize(), 0)
    assert alpha_cap_violations(TsengStepsize(), 10_000).size == 0
    assert alpha_cap_violations(NesterovStepsize(), 10_000).size == 0


def test_nesterov_two_sided_bounds():
    # true envelope of the recursion: 1/(k+1) <= alpha_k <= 2/(k+2)
    al = NesterovStepsize().alphas(100_000)
    k = np.arange(100_001)
    assert np.all(al <= 2.0 / (k + 2.0) + 1e-15)
    assert np.all(al >= 1.0 / (k + 1.0) - 1e-15)


def test_monotone_nonincreasing():
    for sched in (TsengStepsize(), NesterovStepsize(), InverseSqrtStepsize(3.0)):
        al = schedule_alphas(sched, 100_000)
        assert np.all(np.diff(al) <= 0.0)
        assert np.all(al > 0.0)


def test_memo_bit_identical():
    warm = NesterovStepsize()
    warm.alphas(5000)
    fresh = NesterovStepsize()
    ks = [0, 1, 17, 400, 4999]
    assert [warm.alpha(k) for k in ks] == [fresh.alpha(k) for k in ks]


def test_memo_thread_safety():
    sched = NesterovStepsize()
    results = []

    def worker():
        results.append([sched.alpha(k) for k in range(2000)])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for r in results[1:]:
        assert r == results[0]


def test_memo_lock_free_stress():
    # the memo has no lock: an extension builds a new list and swaps it in, so
    # threads that extend it together, switching every microsecond, each still
    # read the values of a schedule computed alone
    want = NesterovStepsize().alphas(2000).tolist()
    sched = NesterovStepsize()
    start = threading.Barrier(6)
    results = []

    def worker():
        start.wait(timeout=60)
        results.append([sched.alpha(k) for k in range(2001)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [want] * 6


def test_kahan_cumsum():
    terms = np.full(10_000, 0.1)
    out = kahan_cumsum(terms)
    assert abs(out[-1] - 1000.0) < 1e-10
    assert out.shape == (10_000,)


def test_kahan_cumsum_on_columns(rng):
    # a (K+1, R) table sums each column as a 1-D call does, bit for bit
    table = np.exp(rng.standard_normal((151, 3))) * 10.0
    got = kahan_cumsum(table)
    assert got.shape == table.shape
    for i in range(3):
        assert np.array_equal(got[:, i], kahan_cumsum(table[:, i]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_scale_is_rejected(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        InverseSqrtStepsize(bad)
    with pytest.raises(ValueError, match="positive and finite"):
        verify_sqrt_sum_growth(bad, 10)
