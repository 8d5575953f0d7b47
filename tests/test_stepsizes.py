import hashlib

import numpy as np
import pytest

from ssmd.stepsizes import (
    InverseSqrtStepsize,
    NesterovStepsize,
    TsengStepsize,
    alpha_cap_violations,
    alpha_sq_sum_violations,
    kahan_cumsum,
    sqrt_sum_growth_violations,
    step_condition_violations,
)

GOLDEN_RATIO_CONJ = 0.6180339887498948482  # (sqrt(5) - 1)/2


class ConstantSchedule:
    def __init__(self, value):
        self.value = value

    def alphas(self, k_max):
        return np.full(k_max + 1, self.value)


def test_alpha_values():
    t = TsengStepsize()
    assert t.alpha(0) == 1.0
    assert t.alpha(3) == 0.5
    n = NesterovStepsize()
    assert n.alpha(0) == 1.0
    assert abs(n.alpha(1) - GOLDEN_RATIO_CONJ) < 1e-15
    assert InverseSqrtStepsize(2.0).alpha(3) == 1.0


def test_alphas_match_alpha():
    for sched in (TsengStepsize(), NesterovStepsize(), InverseSqrtStepsize(0.7)):
        arr = sched.alphas(500)
        assert np.array_equal(arr, [sched.alpha(k) for k in range(501)])


def test_step_condition():
    assert step_condition_violations(TsengStepsize().alphas(100_000)).size == 0
    assert step_condition_violations(NesterovStepsize().alphas(100_000)).size == 0
    assert step_condition_violations(ConstantSchedule(1.0).alphas(1000)).size == 0
    assert step_condition_violations(ConstantSchedule(0.5).alphas(1000)).size != 0


def test_tseng_step_condition_algebra():
    # (1 - 2/(k+2)) (k+2)^2/4 = k(k+2)/4 <= (k+1)^2/4, checked symbolically
    k = np.arange(0, 10_000)
    assert np.all(k * (k + 2) <= (k + 1) ** 2)


def test_alpha_sq_sum_bound():
    assert alpha_sq_sum_violations(TsengStepsize().alphas(100_000)).size == 0
    assert alpha_sq_sum_violations(NesterovStepsize().alphas(100_000)).size == 0
    # k = 0 alone: alpha0^2 * (1/alpha0) = 1
    assert alpha_sq_sum_violations(ConstantSchedule(1.0).alphas(0)).size == 0


def test_sqrt_sum_growth():
    assert sqrt_sum_growth_violations(InverseSqrtStepsize(1.0).alphas(100_000)).size == 0
    assert sqrt_sum_growth_violations(InverseSqrtStepsize(7.5).alphas(1000)).size == 0
    assert sqrt_sum_growth_violations(InverseSqrtStepsize(0.1).alphas(1000)).size == 0
    # k = 0: 1/alpha_0 = 1/a >= 2/(3a)
    assert sqrt_sum_growth_violations(InverseSqrtStepsize(1.0).alphas(1)).size == 0
    # with a = alpha_0 = 1, steps ten times a/sqrt(k+1) from k = 1 on grow the sum
    # too slowly
    al = InverseSqrtStepsize(1.0).alphas(10)
    al[1:] *= 10.0
    assert list(sqrt_sum_growth_violations(al)[:1]) == [1]
    assert sqrt_sum_growth_violations(-InverseSqrtStepsize(1.0).alphas(10)).size == 11


def test_alpha_cap():
    assert alpha_cap_violations(TsengStepsize().alphas(10_000)).size == 0
    assert alpha_cap_violations(NesterovStepsize().alphas(10_000)).size == 0


def test_nesterov_two_sided_bounds():
    # true envelope of the recursion: 1/(k+1) <= alpha_k <= 2/(k+2)
    al = NesterovStepsize().alphas(100_000)
    k = np.arange(100_001)
    assert np.all(al <= 2.0 / (k + 2.0) + 1e-15)
    assert np.all(al >= 1.0 / (k + 1.0) - 1e-15)
    # the recursion's bytes, which the strongly convex step-2 runs depend on
    assert hashlib.sha256(al.tobytes()).hexdigest() == \
        "7e071e850fd4eee2b304623d8c37fb08e9ceddc2f27293fd530be74915e564f2"


def test_monotone_nonincreasing():
    for sched in (TsengStepsize(), NesterovStepsize(), InverseSqrtStepsize(3.0)):
        al = sched.alphas(100_000)
        assert np.all(np.diff(al) <= 0.0)
        assert np.all(al > 0.0)


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
    # a table with a non-finite a = alpha_0 fails at every k, without a warning
    assert sqrt_sum_growth_violations(np.full(11, bad)).size == 11


class SpoiledTseng:
    """Tseng's schedule with one bad value at k = 2."""

    def __init__(self, bad):
        self.bad = bad

    def alphas(self, k_max):
        out = TsengStepsize().alphas(k_max)
        out[2] = self.bad
        return out


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("check", [step_condition_violations, alpha_sq_sum_violations,
                                   sqrt_sum_growth_violations, alpha_cap_violations])
def test_non_finite_alpha_is_a_violation(check, bad):
    # k = 0, 1 hold; k = 2 is out of range, and no check may warn about it
    assert list(check(SpoiledTseng(bad).alphas(5))[:1]) == [2]
