from dataclasses import replace

import numpy as np
import pytest
from conftest import project_bisection

from ssmd.averaging import AverageState
from ssmd.gaussian import rng_from_seed, standard_normals
from ssmd.mirror import MirrorMap, prox_step
from ssmd.sets import CappedBox
from ssmd.solver import (
    ProblemHandle,
    block_rows,
    combined_second_moment,
    compact_rate_bound,
    noiseless_compact_rate_bound,
    optimal_stepsize_scale,
    run_baseline_uniform,
    run_compact,
    run_strongly_convex,
    strongly_convex_rate_bounds,
)
from ssmd.stepsizes import InverseSqrtStepsize, NesterovStepsize, TsengStepsize
from ssmd.utility import _subgradient, default_instance, f_value, make_instance, make_problem

EU = MirrorMap.euclidean()
UNIT_INTERVAL = CappedBox(1, 1.0, 1.0)


def uniform_noise(n):
    """noise(rng, rows): n uniforms per iteration, the draws of rng.random(n) per call."""
    return lambda rng, rows: rng.random((rows, n))


def quadratic_problem(mu_f, x_star, box, x0, noise_halfwidth=0.0):
    """f(x) = (mu_f/2)||x - x*||^2 with componentwise uniform gradient noise."""
    x_star = np.asarray(x_star, dtype=float)
    n = x_star.shape[0]

    def oracle(x, xi):
        g = mu_f * (x - x_star)
        if noise_halfwidth > 0.0:
            g = g + noise_halfwidth * (2.0 * xi - 1.0)
        return g

    return ProblemHandle(
        oracle=oracle,
        feasible_set=box,
        mirror_map=EU,
        x0=np.asarray(x0, dtype=float),
        noise=uniform_noise(n),
        mu_f=mu_f,
        f_exact=lambda x: 0.5 * mu_f * np.sum((x - x_star) ** 2, axis=-1),
        x_star=x_star,
    )


def l1_problem(x_star, box, x0, noise_halfwidth=0.0):
    """f(x) = ||x - x*||_1 with sign subgradients and uniform noise."""
    x_star = np.asarray(x_star, dtype=float)
    n = x_star.shape[0]

    def oracle(x, xi):
        g = np.sign(x - x_star)
        if noise_halfwidth > 0.0:
            g = g + noise_halfwidth * (2.0 * xi - 1.0)
        return g

    return ProblemHandle(
        oracle=oracle,
        feasible_set=box,
        mirror_map=EU,
        x0=np.asarray(x0, dtype=float),
        noise=uniform_noise(n),
        mu_f=0.0,
        f_exact=lambda x: np.sum(np.abs(x - x_star), axis=-1),
        x_star=x_star,
    )


def test_strongly_convex_noiseless_under_bound():
    # f(x) = 50 (x - 0.3)^2 on [0, 1]: mu_f = 100, C = 100*0.7 = 70
    problem = quadratic_problem(100.0, [0.3], UNIT_INTERVAL, [0.0])
    trace = run_strongly_convex(problem, TsengStepsize(), 200, rng_from_seed(0))
    gap_bound, _, _ = strongly_convex_rate_bounds(trace.k, 70.0**2, 100.0, 1.0)
    assert np.all(trace.f_avg - 0.0 <= gap_bound + 1e-12)
    assert trace.f_avg[-1] < trace.f_avg[0]


def test_strongly_convex_fixed_point():
    problem = quadratic_problem(100.0, [0.3], UNIT_INTERVAL, [0.3])
    trace = run_strongly_convex(problem, NesterovStepsize(), 50, rng_from_seed(0))
    assert np.all(trace.f_iter == 0.0)
    assert np.all(trace.f_avg == 0.0)
    assert np.all(trace.dist_iter_sq == 0.0)


def test_strongly_convex_noisy_mean_under_bound():
    # uniform noise on [-10, 10]: nu^2 = 100/3, Ct^2 = C^2 + nu^2
    c_tilde_sq = combined_second_moment(70.0**2, 100.0 / 3.0)
    gaps = []
    for seed in range(100):
        problem = quadratic_problem(100.0, [0.3], UNIT_INTERVAL, [0.0],
                                    noise_halfwidth=10.0)
        trace = run_strongly_convex(problem, TsengStepsize(), 1000,
                                    rng_from_seed(seed))
        gaps.append(trace.f_avg)
    gaps = np.vstack(gaps)
    mean = gaps.mean(axis=0)
    stderr = gaps.std(axis=0, ddof=1) / np.sqrt(gaps.shape[0])
    bound, _, _ = strongly_convex_rate_bounds(np.arange(1001), c_tilde_sq, 100.0, 1.0)
    assert np.all(mean <= bound + 2.0 * stderr)


def test_strongly_convex_preconditions():
    good = quadratic_problem(100.0, [0.3], UNIT_INTERVAL, [0.0])
    with pytest.raises(ValueError):
        run_strongly_convex(good, InverseSqrtStepsize(1.0), 10, rng_from_seed(0))
    bad_mu = quadratic_problem(100.0, [0.3], UNIT_INTERVAL, [0.0])
    bad_mu.mu_f = 0.0
    with pytest.raises(ValueError):
        run_strongly_convex(bad_mu, TsengStepsize(), 10, rng_from_seed(0))
    bad_map = quadratic_problem(100.0, [0.3], UNIT_INTERVAL, [0.0])
    bad_map.mirror_map = MirrorMap.negative_entropy()
    with pytest.raises(ValueError):
        run_strongly_convex(bad_map, TsengStepsize(), 10, rng_from_seed(0))
    bad_x0 = quadratic_problem(100.0, [0.3], UNIT_INTERVAL, [2.0])
    with pytest.raises(ValueError):
        run_strongly_convex(bad_x0, TsengStepsize(), 10, rng_from_seed(0))


def test_compact_noiseless_under_bound():
    # f(x) = |x - 0.25| on [0, 1]: d_w^2 = 0.5, C = 1
    problem = l1_problem([0.25], UNIT_INTERVAL, [0.0])
    trace = run_compact(problem, 1.0, 1000, rng_from_seed(0))
    bound = noiseless_compact_rate_bound(trace.k, 1.0, 0.5, 1.0, 1.0)
    assert np.all(trace.f_avg <= bound + 1e-12)


def test_compact_start_at_minimizer():
    problem = l1_problem([0.25], UNIT_INTERVAL, [0.25])
    trace = run_compact(problem, 1.0, 200, rng_from_seed(0))
    assert np.all(trace.f_min == 0.0)


def test_compact_rejects_unbounded_set():
    class HalfSpace:
        is_bounded = False

        def contains(self, x, tol=0.0):
            return True

        def project(self, x):
            return x

    problem = l1_problem([0.25], UNIT_INTERVAL, [0.0])
    problem.feasible_set = HalfSpace()
    with pytest.raises(ValueError):
        run_compact(problem, 1.0, 10, rng_from_seed(0))
    with pytest.raises(ValueError):
        run_baseline_uniform(problem, 1.0, 10, rng_from_seed(0))


def test_compact_noisy_mean_under_bound():
    gaps = []
    for seed in range(100):
        problem = l1_problem([0.25], UNIT_INTERVAL, [0.0], noise_halfwidth=1.0)
        trace = run_compact(problem, 1.0, 500, rng_from_seed(seed))
        gaps.append(trace.f_avg)
    gaps = np.vstack(gaps)
    mean = gaps.mean(axis=0)
    stderr = gaps.std(axis=0, ddof=1) / np.sqrt(gaps.shape[0])
    bound = compact_rate_bound(np.arange(501), 1.0, 0.5, 1.0, 1.0 / 3.0, 1.0)
    assert np.all(mean <= bound + 2.0 * stderr)


def test_trace_structure_and_feasibility():
    box = CappedBox(3, 1.0, 2.0)
    problem = quadratic_problem(2.0, [0.4, 0.4, 0.4], box, [0.0, 0.0, 0.0],
                                noise_halfwidth=1.0)
    rng = rng_from_seed(5)
    trace = run_strongly_convex(problem, TsengStepsize(), 300, rng, seed=5)
    assert trace.k.shape == (301,)
    assert np.all(np.diff(trace.f_min) <= 0.0 + 1e-15)
    assert trace.seed == 5
    assert box.contains(trace.x_hat_final, 1e-8)


def test_noiseless_determinism():
    problem = quadratic_problem(10.0, [0.5], UNIT_INTERVAL, [0.0])
    t1 = run_strongly_convex(problem, NesterovStepsize(), 100, rng_from_seed(9))
    t2 = run_strongly_convex(problem, NesterovStepsize(), 100, rng_from_seed(9))
    assert np.array_equal(t1.f_avg, t2.f_avg)
    assert np.array_equal(t1.x_hat_final, t2.x_hat_final)


def test_seeded_noise_determinism():
    problem = l1_problem([0.25], UNIT_INTERVAL, [0.0], noise_halfwidth=2.0)
    t1 = run_compact(problem, 0.5, 200, rng_from_seed(77))
    t2 = run_compact(problem, 0.5, 200, rng_from_seed(77))
    assert np.array_equal(t1.f_avg, t2.f_avg)


def test_euclidean_reduction_cross_check():
    # every prox step equals the bisection projection of x_k - alpha_k g_k, and
    # every iterate and average is feasible; 200 steps, recorded from the
    # oracle's inputs and outputs of a run one step longer (row 0 of the
    # engine's stack of runs, the only run)
    box = CappedBox(2, 1.0, 1.2)
    problem = l1_problem([0.2, 0.6], box, [0.0, 0.0], noise_halfwidth=1.0)
    xs, gs = [], []
    oracle = problem.oracle

    def recording(x, xi):
        g = oracle(x, xi)
        xs.append(np.array(x[0]))
        gs.append(np.array(g[0]))
        return g

    run_compact(replace(problem, oracle=recording), 0.7, 201, rng_from_seed(3))
    state = AverageState.empty()
    for k in range(200):
        alpha = InverseSqrtStepsize(0.7).alpha(k)
        state = state.absorb(xs[k], alpha)
        assert box.contains(xs[k + 1], 1e-8) and box.contains(state.x_hat, 1e-8)
        alt = project_bisection(box, xs[k] - alpha * gs[k])
        assert np.allclose(xs[k + 1], alt, rtol=0.0, atol=1e-10), k


def test_compact_entropy_on_simplex():
    # multiplicative-weights route: linear objective over the simplex
    from ssmd.sets import Simplex

    cost = np.array([0.5, 0.2, 0.9])
    problem = ProblemHandle(
        oracle=lambda x, xi: cost,
        feasible_set=Simplex(3),
        mirror_map=MirrorMap.negative_entropy(),
        x0=np.full(3, 1.0 / 3.0),
        f_exact=lambda x: np.sum(cost * x, axis=-1))
    trace = run_compact(problem, 1.0, 2000, rng_from_seed(0))
    assert Simplex(3).contains(trace.x_hat_final, 1e-9)
    assert trace.f_avg[-1] - 0.2 < 0.1
    assert trace.f_avg[-1] < trace.f_avg[0]


def test_baseline_uniform_examples():
    # constant iterates: the average equals the constant
    const = ProblemHandle(
        oracle=lambda x, xi: np.zeros(1),
        feasible_set=UNIT_INTERVAL, mirror_map=EU, x0=np.array([0.5]),
        f_exact=lambda x: np.zeros(x.shape[:-1]))
    trace = run_baseline_uniform(const, 1.0, 50, rng_from_seed(0))
    assert np.array_equal(trace.x_hat_final, [0.5])

    # iterates 0, 1, 2, 3, 4 on integers: mean exactly 2
    box = CappedBox(1, 10.0, 10.0)
    k_holder = {"k": 0}

    def drift_oracle(x, xi):
        a = 1.0 / np.sqrt(k_holder["k"] + 1.0)
        k_holder["k"] += 1
        return np.array([-1.0 / a])

    drift = ProblemHandle(oracle=drift_oracle, feasible_set=box,
                          mirror_map=EU, x0=np.array([0.0]),
                          f_exact=lambda x: x[..., 0])
    trace = run_baseline_uniform(drift, 1.0, 4, rng_from_seed(0))
    assert trace.x_hat_final[0] == 2.0


def test_baseline_average_feasible(rng):
    problem = l1_problem([0.3, 0.1], CappedBox(2, 1.0, 1.0), [0.0, 0.0],
                         noise_halfwidth=1.0)
    trace = run_baseline_uniform(problem, 1.0, 300, rng_from_seed(11))
    assert CappedBox(2, 1.0, 1.0).contains(trace.x_hat_final, 1e-8)


def test_sampled_f_fallback():
    def sampler(x, rng, draws=None):
        u = rng.random() if draws is None else rng.random((draws,) + x.shape[:-1])
        return x[..., 0] ** 2 + u - 0.5

    problem = ProblemHandle(
        oracle=lambda x, xi: np.array([2.0 * x[0]]),
        feasible_set=UNIT_INTERVAL, mirror_map=EU, x0=np.array([1.0]),
        f_exact=None, f_sampler=sampler, f_eval_samples=4000, f_eval_seed=123)
    t1 = run_compact(problem, 1.0, 5, rng_from_seed(0))
    t2 = run_compact(problem, 1.0, 5, rng_from_seed(0))
    assert np.array_equal(t1.f_iter, t2.f_iter)
    assert abs(t1.f_iter[0] - 1.0) < 0.02  # x0 = 1, f = 1 plus estimator noise
    assert t1.meta["f_mode"] == "sample_average"


def test_eval_mask_beyond_1000():
    # every iterate is evaluated, also beyond K = 1000
    problem = quadratic_problem(10.0, [0.5], UNIT_INTERVAL, [0.0],
                                noise_halfwidth=0.5)
    trace = run_strongly_convex(problem, TsengStepsize(), 1500, rng_from_seed(1))
    assert trace.f_iter.shape == trace.f_avg.shape == (1501,)
    assert np.all(np.isfinite(trace.f_iter)) and np.all(np.isfinite(trace.f_avg))
    assert np.all(np.diff(trace.f_min) <= 0.0)


def replay_iterates(problem, a, num_iterations):
    """x_k and x_hat_k, k = 0..K, of run_compact with seed 0, recorded from
    the oracle's inputs of a run one step longer (row 0 of the engine's stack
    of runs, the only run)."""
    xs = []
    oracle = problem.oracle

    def recording(x, xi):
        xs.append(np.array(x[0]))
        return oracle(x, xi)

    run_compact(replace(problem, oracle=recording), a, num_iterations + 1,
                rng_from_seed(0))
    xs = xs[:num_iterations + 1]
    state, x_hats = AverageState.empty(), []
    for k, x in enumerate(xs):
        state = state.absorb(x, InverseSqrtStepsize(a).alpha(k))
        x_hats.append(state.x_hat)
    return xs, x_hats


@pytest.mark.parametrize("n, num_iterations", [(100, 100), (1000, 10)])
def test_blocked_f_equals_pointwise_f_value(n, num_iterations):
    # 101 = 2 * 40 + 21 and 11 = 2 * 4 + 3 iterates: the last block is partial
    assert num_iterations + 1 > block_rows(n) and (num_iterations + 1) % block_rows(n)
    inst = make_instance("inline", n=n, cap=1.0, budget=1.0, reg_weight=0.0)
    problem = make_problem(inst)
    trace = run_compact(problem, 1.0, num_iterations, rng_from_seed(0))
    xs, x_hats = replay_iterates(problem, 1.0, num_iterations)
    assert np.array_equal(trace.f_iter, [f_value(inst, x, False) for x in xs])
    assert np.array_equal(trace.f_avg, [f_value(inst, x, False) for x in x_hats])
    assert np.array_equal(trace.f_min, np.minimum.accumulate(trace.f_iter))


def test_blocked_sample_average_equals_per_point_estimator():
    inst = default_instance("test1", reg_weight=0.0)
    # 46 = 40 + 6 iterates; a full block's 80 points draw in chunks of 51, so
    # 50 samples fit in one chunk and 125 = 51 + 51 + 23 span three
    chunk = block_rows(2 * block_rows(inst.n))
    assert 50 <= chunk < 125 and 125 % chunk
    xs, x_hats = replay_iterates(make_problem(inst), 10.0, 45)
    for samples in (50, 125):
        problem = make_problem(inst, f_eval_samples=samples, analytic_f=False)
        trace = run_compact(problem, 10.0, 45, rng_from_seed(0))

        def per_point(x):
            rng = rng_from_seed(problem.f_eval_seed)
            total = 0.0
            for _ in range(problem.f_eval_samples):
                total += float(problem.f_sampler(x, rng))
            return total / problem.f_eval_samples

        assert np.array_equal(trace.f_iter, [per_point(x) for x in xs])
        assert np.array_equal(trace.f_avg, [per_point(x) for x in x_hats])


@pytest.mark.parametrize("regime", ["compact", "strongly_convex"])
def test_stacked_averages_equal_per_row_replay(regime):
    # each row of the engine's (R, n) stack is averaged with its own stepsizes:
    # replaying a row's iterates through AverageState gives that row's f_avg
    # and final average bit for bit; K = 150 spans four blocks of 40 rows
    inst = default_instance("test1", reg_weight=100.0 if regime == "strongly_convex" else 0.0)
    problem, num_iterations, seeds = make_problem(inst), 150, [5, 17, 2**40 + 3]
    assert num_iterations > 3 * block_rows(inst.n)
    if regime == "compact":
        a = [0.5, 2.0, 7.0]
        schedules = [InverseSqrtStepsize(v) for v in a]

        def run(p, iterations):
            return run_compact(p, a, iterations, [rng_from_seed(s) for s in seeds])
    else:
        schedules = [NesterovStepsize()] * len(seeds)

        def run(p, iterations):
            return run_strongly_convex(p, NesterovStepsize(), iterations,
                                       [rng_from_seed(s) for s in seeds])

    # x_k of every row, k = 0..K, from the oracle's inputs of a run one step longer
    stacks = []
    oracle = problem.oracle

    def recording(x, xi):
        stacks.append(np.array(x))
        return oracle(x, xi)

    run(replace(problem, oracle=recording), num_iterations + 1)
    traces = run(problem, num_iterations)
    for i, (trace, schedule) in enumerate(zip(traces, schedules)):
        state, f_avg = AverageState.empty(), []
        for k in range(num_iterations + 1):
            state = state.absorb(stacks[k][i], schedule.alpha(k))
            f_avg.append(f_value(inst, state.x_hat, False))
        assert np.array_equal(trace.f_avg, f_avg), i
        assert np.array_equal(trace.x_hat_final, state.x_hat), i


ENGINE_CASES = [
    pytest.param(lambda: default_instance("test1", reg_weight=100.0), 10.0, 100,
                 [40, 40, 20], id="test1-K100"),
    pytest.param(lambda: make_instance("inline", n=1000, cap=1.0, budget=1.0,
                                       reg_weight=0.0), 1.0, 9, [4, 4, 1], id="n1000-K9"),
]


@pytest.mark.parametrize("build, a, num_iterations, noise_rows", ENGINE_CASES)
def test_block_noise_equals_per_iteration_loop(build, a, num_iterations, noise_rows):
    # the engine draws the oracle noise once per block; a loop drawing n
    # normals per iteration from the same seed gives the same run, bit for bit
    inst = build()
    problem = make_problem(inst)
    rows = []

    def recording_noise(rng, count):
        rows.append(count)
        return problem.noise(rng, count)

    trace = run_compact(replace(problem, noise=recording_noise), a, num_iterations,
                        rng_from_seed(4))
    assert block_rows(inst.n) == noise_rows[0] > noise_rows[-1]  # last block partial
    assert rows == noise_rows and sum(rows) == num_iterations

    rng = rng_from_seed(4)
    x, state = inst.x0.astype(float), AverageState.empty()
    f_iter, f_avg = [], []
    for k in range(num_iterations + 1):
        alpha = float(InverseSqrtStepsize(a).alpha(k))
        state = state.absorb(x, alpha)
        f_iter.append(f_value(inst, x, False))
        f_avg.append(f_value(inst, state.x_hat, False))
        if k < num_iterations:
            g = _subgradient(inst, x, inst.coeffs + standard_normals(rng, inst.n))
            x = prox_step(EU, inst.feasible_set, x, g, alpha)
    assert np.array_equal(trace.f_iter, f_iter)
    assert np.array_equal(trace.f_avg, f_avg)
    assert np.array_equal(trace.x_hat_final, state.x_hat)


@pytest.mark.parametrize("build, a, num_iterations, noise_rows", ENGINE_CASES)
def test_run_draws_exactly_k_noise_rows(build, a, num_iterations, noise_rows):
    # after a K-iteration run the stream stands where K rows of n normals leave it
    inst = build()
    rng, fresh = rng_from_seed(6), rng_from_seed(6)
    run_compact(make_problem(inst), a, num_iterations, rng)
    standard_normals(fresh, (num_iterations, inst.n))
    assert np.array_equal(rng.random(8), fresh.random(8))


def test_scalar_valued_f_is_rejected():
    problem = l1_problem([0.25, 0.5], CappedBox(2, 1.0, 1.0), [0.0, 0.0])
    problem.f_exact = lambda x: float(np.sum(np.abs(x - 0.25)))
    with pytest.raises(ValueError, match="f must map"):
        run_compact(problem, 1.0, 10, rng_from_seed(0))
    problem.f_exact = None
    problem.f_sampler = lambda x, rng, draws=None: float(np.sum(x)) + rng.random()
    with pytest.raises(ValueError, match="f must map"):
        run_compact(problem, 1.0, 10, rng_from_seed(0))


def test_rate_bound_values():
    gap, avg, it = strongly_convex_rate_bounds(0, 1.0, 1.0, 1.0)
    assert (gap, avg, it) == (2.0, 4.0, 4.0)
    gap, avg, it = strongly_convex_rate_bounds(99, 4900.0, 100.0, 1.0)
    assert abs(gap - 0.98) < 1e-15
    assert avg == it  # mu_w = 1 collapses the two distance bounds
    assert compact_rate_bound(0, 1.0, 1.0, 1.0, 0.0, 1.0) == 3.0


def test_optimal_scale_values():
    assert optimal_stepsize_scale(1.0, 1.0, 0.0, 1.0) == 1.0
    assert abs(optimal_stepsize_scale(10.0, 3.0, 1.0, 1.0) - 5.0) < 1e-15
    assert abs(optimal_stepsize_scale(1.0, 1.0, 0.0, 1.0, noiseless=True)
               - np.sqrt(2.0)) < 1e-15
    with pytest.raises(ValueError):
        optimal_stepsize_scale(1.0, 1.0, 0.5, 1.0, noiseless=True)


def test_optimal_scale_is_argmin():
    d_sq, c_sq, nu_sq, mu_w = 2.7, 1.9, 0.4, 1.0
    a_star = optimal_stepsize_scale(np.sqrt(d_sq), c_sq, nu_sq, mu_w)
    at_star = compact_rate_bound(10, a_star, d_sq, c_sq, nu_sq, mu_w)
    for a in np.linspace(0.05, 8.0, 400):
        assert at_star <= compact_rate_bound(10, a, d_sq, c_sq, nu_sq, mu_w) + 1e-12
    # closed form of the minimum: 3 d sqrt((C^2 + nu^2)/mu_w) / sqrt(k+1)
    want = 3.0 * np.sqrt(d_sq) * np.sqrt((c_sq + nu_sq) / mu_w) / np.sqrt(11.0)
    assert abs(at_star - want) < 1e-12
    # noiseless convention
    a_star2 = optimal_stepsize_scale(np.sqrt(d_sq), c_sq, 0.0, mu_w, noiseless=True)
    at_star2 = noiseless_compact_rate_bound(10, a_star2, d_sq, c_sq, mu_w)
    for a in np.linspace(0.05, 8.0, 400):
        assert at_star2 <= noiseless_compact_rate_bound(10, a, d_sq, c_sq, mu_w) + 1e-12


def test_combined_second_moment():
    assert combined_second_moment(4.0, 1.0) == 5.0
    assert combined_second_moment(4.0, 1.0, euclidean_norm=False) == 10.0


def assert_same_trace(got, want):
    for col in ("k", "f_iter", "f_avg", "f_min", "dist_iter_sq", "dist_avg_sq",
                "x_hat_final"):
        a, b = getattr(got, col), getattr(want, col)
        assert (a is None and b is None) or np.array_equal(a, b), col
    assert got.seed == want.seed and got.meta == want.meta


BATCH_CASES = [
    pytest.param(lambda: make_problem(default_instance("test1", reg_weight=100.0)), 45,
                 id="test1"),
    pytest.param(lambda: make_problem(make_instance("inline", n=1000, cap=1.0, budget=1.0,
                                                    reg_weight=1.0)), 9, id="n1000-binding"),
    pytest.param(lambda: quadratic_problem(3.0, [0.4, 0.9, 0.1], CappedBox(3, 1.0, 1.2),
                                           [0.0, 0.0, 0.0], noise_halfwidth=2.0), 300,
                 id="quadratic-x_star"),
]


@pytest.mark.parametrize("build, num_iterations", BATCH_CASES)
def test_batched_runs_equal_single_runs(build, num_iterations):
    # a list of generators advances the runs together; each run's trace equals
    # its single-run call bit for bit, also with one a per run
    problem = build()
    seeds = [3, 11, 4, 2**64 - 1, 8]
    a_values = [0.3, 1.0, 10.0, 1.0, 2.5]

    def rngs():
        return [rng_from_seed(s) for s in seeds]

    for run, a in ((run_compact, a_values), (run_baseline_uniform, 1.0)):
        batch = run(problem, a, num_iterations, rngs(), seed=seeds)
        assert len(batch) == len(seeds)
        for i, s in enumerate(seeds):
            a_i = a[i] if isinstance(a, list) else a
            assert_same_trace(batch[i], run(problem, a_i, num_iterations,
                                            rng_from_seed(s), seed=s))
    for sched in (TsengStepsize(), NesterovStepsize()):
        batch = run_strongly_convex(problem, sched, num_iterations, rngs(), seed=seeds)
        for i, s in enumerate(seeds):
            assert_same_trace(batch[i], run_strongly_convex(
                problem, sched, num_iterations, rng_from_seed(s), seed=s))
    assert [t.seed for t in run_compact(problem, 1.0, 2, rngs())] == [None] * len(seeds)


def test_batch_arguments_are_checked():
    problem = l1_problem([0.25], UNIT_INTERVAL, [0.0])
    rngs = [rng_from_seed(0), rng_from_seed(1)]
    with pytest.raises(ValueError, match="one seed per generator"):
        run_compact(problem, 1.0, 5, rngs, seed=[0])
    with pytest.raises(ValueError):
        run_compact(problem, [1.0, 2.0, 3.0], 5, rngs)
    with pytest.raises(ValueError, match="positive and finite"):
        run_compact(problem, [1.0, 0.0], 5, rngs)
    with pytest.raises(ValueError, match="positive and finite"):
        run_compact(problem, np.inf, 5, rng_from_seed(0))
    problem.oracle = lambda x, xi: np.zeros((1, 2))
    with pytest.raises(ValueError, match="one subgradient per point"):
        run_compact(problem, 1.0, 5, rng_from_seed(0))
    problem.x0 = np.zeros((2, 1))
    with pytest.raises(ValueError, match="one feasible point"):
        run_compact(problem, 1.0, 5, rngs)


def test_iterates_are_checked_feasible_once_per_block():
    # a set whose projection lets points escape is caught at the block's end
    class Leaky(CappedBox):
        def project(self, x):
            return np.asarray(x, dtype=float)

    problem = l1_problem([0.25], Leaky(1, 1.0, 1.0), [0.0])
    problem.oracle = lambda x, xi: np.full_like(x, -1.0)
    with pytest.raises(ArithmeticError, match="left the feasible set"):
        run_compact(problem, 1.0, 10, rng_from_seed(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_parameters_are_rejected(bad):
    calls = [
        lambda: strongly_convex_rate_bounds(3, bad, 1.0, 1.0),
        lambda: strongly_convex_rate_bounds(3, 1.0, bad, 1.0),
        lambda: strongly_convex_rate_bounds(3, 1.0, 1.0, bad),
        lambda: compact_rate_bound(3, bad, 1.0, 1.0, 0.0, 1.0),
        lambda: compact_rate_bound(3, 1.0, 1.0, 1.0, 0.0, bad),
        lambda: noiseless_compact_rate_bound(3, bad, 1.0, 1.0, 1.0),
        lambda: noiseless_compact_rate_bound(3, 1.0, 1.0, 1.0, bad),
        lambda: optimal_stepsize_scale(bad, 1.0, 0.0, 1.0),
        lambda: optimal_stepsize_scale(1.0, 1.0, 0.0, bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="positive and finite"):
            call()
    problem = quadratic_problem(100.0, [0.3], UNIT_INTERVAL, [0.0])
    problem.mu_f = bad
    with pytest.raises(ValueError, match="positive, finite mu_f"):
        run_strongly_convex(problem, TsengStepsize(), 10, rng_from_seed(0))
