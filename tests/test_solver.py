from dataclasses import replace

import numpy as np
import pytest
from conftest import distance_recorder, project_bisection, within_box

from ssmd.averaging import AverageState
from ssmd.gaussian import rng_from_seed, standard_normals
from ssmd.sets import CappedBox
from ssmd.solver import (
    BLOCK_FLOATS,
    ProblemHandle,
    compact_rate_bound,
    prox_step,
    run_compact,
    run_strongly_convex,
    strongly_convex_rate_bound,
)
from ssmd.stepsizes import InverseSqrtStepsize, NesterovStepsize, TsengStepsize
from ssmd.utility import (default_instance, f_value, make_instance, make_problem,
                          stochastic_subgradient)

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
        x0=np.asarray(x0, dtype=float),
        noise=uniform_noise(n),
        mu_f=mu_f,
        f_exact=lambda x: 0.5 * mu_f * np.sum((x - x_star) ** 2, axis=-1),
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
        x0=np.asarray(x0, dtype=float),
        noise=uniform_noise(n),
        mu_f=0.0,
        f_exact=lambda x: np.sum(np.abs(x - x_star), axis=-1),
    )


def test_strongly_convex_noiseless_under_bound():
    # f(x) = 50 (x - 0.3)^2 on [0, 1]: mu_f = 100, C = 100*0.7 = 70
    problem = quadratic_problem(100.0, [0.3], UNIT_INTERVAL, [0.0])
    trace = run_strongly_convex(problem, TsengStepsize(), 200, rng_from_seed(0))
    gap_bound = strongly_convex_rate_bound(np.arange(201), 70.0**2, 100.0)
    assert np.all(trace.f_avg - 0.0 <= gap_bound + 1e-12)
    assert trace.f_avg[-1] < trace.f_avg[0]


def test_strongly_convex_fixed_point():
    problem, distances = distance_recorder(
        quadratic_problem(100.0, [0.3], UNIT_INTERVAL, [0.3]), [0.3], 1)
    trace = run_strongly_convex(problem, NesterovStepsize(), 50, rng_from_seed(0))
    assert np.all(trace.f_iter == 0.0)
    assert np.all(trace.f_avg == 0.0)
    dist_iter_sq, _ = distances()
    assert dist_iter_sq.shape == (1, 51) and np.all(dist_iter_sq == 0.0)


def test_strongly_convex_noisy_mean_under_bound():
    # uniform noise on [-10, 10]: nu^2 = 100/3, Ct^2 = C^2 + nu^2
    c_tilde_sq = 70.0**2 + 100.0 / 3.0
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
    bound = strongly_convex_rate_bound(np.arange(1001), c_tilde_sq, 100.0)
    assert np.all(mean <= bound + 2.0 * stderr)


def test_compact_noiseless_under_bound():
    # f(x) = |x - 0.25| on [0, 1]: d_w^2 = 0.5, C = 1, and Ct^2 = C^2/2 error-free
    problem = l1_problem([0.25], UNIT_INTERVAL, [0.0])
    trace = run_compact(problem, 1.0, 1000, rng_from_seed(0))
    bound = compact_rate_bound(np.arange(1001), 1.0, 0.5, 1.0 / 2.0)
    assert np.all(trace.f_avg <= bound + 1e-12)


def test_compact_start_at_minimizer():
    problem = l1_problem([0.25], UNIT_INTERVAL, [0.25])
    trace = run_compact(problem, 1.0, 200, rng_from_seed(0))
    assert np.all(trace.f_min == 0.0)


def test_compact_noisy_mean_under_bound():
    gaps = []
    for seed in range(100):
        problem = l1_problem([0.25], UNIT_INTERVAL, [0.0], noise_halfwidth=1.0)
        trace = run_compact(problem, 1.0, 500, rng_from_seed(seed))
        gaps.append(trace.f_avg)
    gaps = np.vstack(gaps)
    mean = gaps.mean(axis=0)
    stderr = gaps.std(axis=0, ddof=1) / np.sqrt(gaps.shape[0])
    bound = compact_rate_bound(np.arange(501), 1.0, 0.5, 1.0 + 1.0 / 3.0)
    assert np.all(mean <= bound + 2.0 * stderr)


def test_trace_structure_and_feasibility():
    box = CappedBox(3, 1.0, 2.0)
    problem = quadratic_problem(2.0, [0.4, 0.4, 0.4], box, [0.0, 0.0, 0.0],
                                noise_halfwidth=1.0)
    rng = rng_from_seed(5)
    trace = run_strongly_convex(problem, TsengStepsize(), 300, rng)
    assert trace.f_iter.shape == trace.f_avg.shape == trace.f_min.shape == (301,)
    assert np.all(np.diff(trace.f_min) <= 0.0 + 1e-15)
    assert within_box(box, trace.x_hat_final, 1e-8)


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
    state = AverageState()
    for k in range(200):
        alpha = InverseSqrtStepsize(0.7).alpha(k)
        state.absorb(xs[k], alpha)
        assert box.contains(xs[k + 1]) and within_box(box, state.x_hat, 1e-8)
        alt = project_bisection(box, xs[k] - alpha * gs[k])
        assert np.allclose(xs[k + 1], alt, rtol=0.0, atol=1e-10), k


def test_prox_zero_step_limit():
    box = CappedBox(2, 10.0, 10.0)
    x = np.array([1.0, 1.0])
    out = prox_step(box, x, np.array([3.0, -2.0]), 1e-12)
    assert np.max(np.abs(out - x)) < 1e-9


def test_prox_interior_step():
    box = CappedBox(2, 10.0, 10.0)
    out = prox_step(box, np.array([1.0, 1.0]), np.array([1.0, 0.0]), 0.5)
    assert np.allclose(out, [0.5, 1.0], atol=1e-15)


def test_prox_errors():
    box = CappedBox(2, 10.0, 10.0)
    with pytest.raises(ValueError, match="non-finite"):
        prox_step(box, np.array([1.0, 1.0]), np.array([np.nan, 0.0]), 1.0)


def test_prox_optimality(rng):
    # the returned point minimizes alpha*<g, z-x> + ||z - x||^2/2 over the set
    box = CappedBox(3, 2.0, 4.0)
    for _ in range(20):
        x = box.project(rng.random(3) * 2)
        g = rng.standard_normal(3)
        alpha = 0.1 + rng.random()
        xp = prox_step(box, x, g, alpha)
        val_p = alpha * float(g @ (xp - x)) + 0.5 * float((xp - x) @ (xp - x))
        for _ in range(100):
            z = box.project(rng.random(3) * 2.5)
            val_z = alpha * float(g @ (z - x)) + 0.5 * float((z - x) @ (z - x))
            assert val_p <= val_z + 1e-9


def test_euclidean_prox_equals_projection(rng):
    box = CappedBox(4, 3.0, 6.0)
    for _ in range(1000):
        x = box.project(rng.random(4) * 3)
        g = rng.standard_normal(4) * 2
        alpha = 0.01 + rng.random()
        lhs = prox_step(box, x, g, alpha)
        rhs = box.project(x - alpha * g)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_prox_step_rejects_non_finite_alpha(bad):
    # x - alpha*g is non-finite, which the projection rejects
    box = CappedBox(2, 10.0, 10.0)
    with pytest.raises(ValueError, match="non-finite components"):
        prox_step(box, np.array([1.0, 1.0]), np.ones(2), bad)


def test_sampled_f_fallback():
    # a handle that is not a utility instance: samples = N gives the mean of N
    # draws shared by every point
    def sampler(x, rng, samples=None):
        u = rng.random() if samples is None else np.mean(rng.random(samples))
        return x[..., 0] ** 2 + u - 0.5

    problem = ProblemHandle(
        oracle=lambda x, xi: np.array([2.0 * x[0]]),
        feasible_set=UNIT_INTERVAL, x0=np.array([1.0]),
        noise=lambda rng, rows: np.empty((rows, 0)),
        f_exact=None, f_sampler=sampler, f_eval_samples=4000, f_eval_seed=123)
    t1 = run_compact(problem, 1.0, 5, rng_from_seed(0))
    t2 = run_compact(problem, 1.0, 5, rng_from_seed(0))
    assert np.array_equal(t1.f_iter, t2.f_iter)
    assert abs(t1.f_iter[0] - 1.0) < 0.02  # x0 = 1, f = 1 plus estimator noise
    assert t1.f_iter[0] == 1.0 + np.mean(rng_from_seed(123).random(4000)) - 0.5


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
    state, x_hats = AverageState(), []
    for k, x in enumerate(xs):
        state.absorb(x, InverseSqrtStepsize(a).alpha(k))
        x_hats.append(state.x_hat)
    return xs, x_hats


@pytest.mark.parametrize("n, num_iterations", [(100, 3000), (1000, 300)])
def test_blocked_f_equals_pointwise_f_value(n, num_iterations):
    # one run's blocks: 3001 = 2 * 1310 + 381 and 301 = 2 * 131 + 39 iterates,
    # three blocks each, the last one partial
    rows = BLOCK_FLOATS // n
    assert num_iterations + 1 > 2 * rows and (num_iterations + 1) % rows
    inst = make_instance("inline", n=n, cap=1.0, budget=1.0, reg_weight=0.0)
    problem = make_problem(inst)
    trace = run_compact(problem, 1.0, num_iterations, rng_from_seed(0))
    xs, x_hats = replay_iterates(problem, 1.0, num_iterations)
    assert np.array_equal(trace.f_iter, [f_value(inst, x) for x in xs])
    assert np.array_equal(trace.f_avg, [f_value(inst, x) for x in x_hats])
    assert np.array_equal(trace.f_min, np.minimum.accumulate(trace.f_iter))


@pytest.mark.parametrize("build, a, num_iterations, blocks", [
    pytest.param(lambda: default_instance("test1", reg_weight=0.0), 10.0, 45, 1, id="test1"),
    pytest.param(lambda: make_instance("inline", n=1000, cap=1.0, budget=1.0, reg_weight=0.0),
                 1.0, 150, 2, id="n1000"),
])
def test_sampled_f_equals_f_sampler_on_replayed_iterates(build, a, num_iterations, blocks):
    # the engine's f_iter and f_avg are f_sampler's mean of f_eval_samples draws
    # from f_eval_seed at each point alone, bit for bit
    inst = build()
    assert -(-(num_iterations + 1) // (BLOCK_FLOATS // inst.n)) == blocks
    xs, x_hats = replay_iterates(make_problem(inst), a, num_iterations)
    problem = make_problem(inst, f_eval_samples=500, analytic_f=False)
    trace = run_compact(problem, a, num_iterations, rng_from_seed(0))

    def sampled(x):
        return problem.f_sampler(x, rng_from_seed(problem.f_eval_seed), 500)

    assert np.array_equal(trace.f_iter, [sampled(x) for x in xs])
    assert np.array_equal(trace.f_avg, [sampled(x) for x in x_hats])


@pytest.mark.parametrize("regime", ["compact", "strongly_convex"])
def test_stacked_averages_equal_per_row_replay(regime):
    # each row of the engine's (R, n) stack is averaged with its own stepsizes:
    # replaying a row's iterates through AverageState gives that row's f_avg
    # and final average bit for bit; 1001 = 2 * 436 + 129 iterates of three
    # runs span three blocks
    inst = default_instance("test1", reg_weight=100.0 if regime == "strongly_convex" else 0.0)
    problem, num_iterations, seeds = make_problem(inst), 1000, [5, 17, 2**40 + 3]
    assert num_iterations + 1 > 2 * (BLOCK_FLOATS // (len(seeds) * inst.n))
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
    trace = run(problem, num_iterations)
    for i, schedule in enumerate(schedules):
        state, f_avg = AverageState(), []
        for k in range(num_iterations + 1):
            state.absorb(stacks[k][i], schedule.alpha(k))
            f_avg.append(f_value(inst, state.x_hat))
        assert np.array_equal(trace.f_avg[i], f_avg), i
        assert np.array_equal(trace.x_hat_final[i], state.x_hat), i


def instance_test1():
    return default_instance("test1", reg_weight=100.0)


def instance_n1000():
    return make_instance("inline", n=1000, cap=1.0, budget=1.0, reg_weight=0.0)


# (instance, a, K, runs, noise rows per block): a block is max(1, 32 * 4096 //
# (runs n)) iterations, 4096 // n for a full batch of 32 runs and more for
# fewer; every case spans three blocks and ends on a partial one
ENGINE_CASES = [
    pytest.param(instance_test1, 10.0, 100, 32, [40, 40, 20], id="test1-K100"),
    pytest.param(instance_n1000, 1.0, 9, 32, [4, 4, 1], id="n1000-K9"),
    pytest.param(instance_test1, 10.0, 1000, 3, [436, 436, 128], id="test1-K1000-R3"),
    pytest.param(instance_n1000, 1.0, 300, 1, [131, 131, 38], id="n1000-K300"),
]


@pytest.mark.parametrize("build, a, num_iterations, runs, noise_rows", ENGINE_CASES)
def test_block_noise_equals_per_iteration_loop(build, a, num_iterations, runs, noise_rows):
    # the engine draws each run's oracle noise once per block; a loop drawing n
    # normals per iteration from run 0's seed gives run 0, bit for bit
    inst = build()
    problem = make_problem(inst)
    rows = []

    def recording_noise(rng, count):
        rows.append(count)
        return problem.noise(rng, count)

    trace = run_compact(replace(problem, noise=recording_noise), a, num_iterations,
                        [rng_from_seed(4 + i) for i in range(runs)])
    assert len(noise_rows) == 3 and noise_rows[0] > noise_rows[-1]
    assert rows == [count for count in noise_rows for _ in range(runs)]
    assert sum(noise_rows) == num_iterations

    rng = rng_from_seed(4)
    x, state = inst.x0.astype(float), AverageState()
    f_iter, f_avg = [], []
    for k in range(num_iterations + 1):
        alpha = float(InverseSqrtStepsize(a).alpha(k))
        state.absorb(x, alpha)
        f_iter.append(f_value(inst, x))
        f_avg.append(f_value(inst, state.x_hat))
        if k < num_iterations:
            g = stochastic_subgradient(inst, x, standard_normals(rng, inst.n))
            x = prox_step(inst.feasible_set, x, g, alpha)
    assert np.array_equal(trace.f_iter[0], f_iter)
    assert np.array_equal(trace.f_avg[0], f_avg)
    assert np.array_equal(trace.x_hat_final[0], state.x_hat)


@pytest.mark.parametrize("build, a, num_iterations, runs, noise_rows", ENGINE_CASES)
def test_run_draws_exactly_k_noise_rows(build, a, num_iterations, runs, noise_rows):
    # after a K-iteration run each stream stands where K rows of n normals leave it
    inst = build()
    rngs = [rng_from_seed(6 + i) for i in range(runs)]
    run_compact(make_problem(inst), a, num_iterations, rngs)
    for i, rng in enumerate(rngs):
        fresh = rng_from_seed(6 + i)
        standard_normals(fresh, (num_iterations, inst.n))
        assert np.array_equal(rng.random(8), fresh.random(8))


def test_scalar_valued_f_is_rejected():
    # one value for a block's stack of points cannot take the stack's shape
    problem = l1_problem([0.25, 0.5], CappedBox(2, 1.0, 1.0), [0.0, 0.0])
    problem.f_exact = lambda x: float(np.sum(np.abs(x - 0.25)))
    with pytest.raises(ValueError, match="cannot reshape"):
        run_compact(problem, 1.0, 10, rng_from_seed(0))
    problem.f_exact = None
    problem.f_sampler = lambda x, rng, samples=None: float(np.sum(x)) + rng.random()
    with pytest.raises(ValueError, match="cannot reshape"):
        run_compact(problem, 1.0, 10, rng_from_seed(0))


def test_rate_bound_values():
    assert strongly_convex_rate_bound(0, 1.0, 1.0) == 2.0
    # the paper's distance bound 4 Ct^2 / ((k+1) mu^2) is 2 gap / mu
    gap = strongly_convex_rate_bound(99, 4900.0, 100.0)
    dist = 2.0 * gap / 100.0
    assert abs(gap - 0.98) < 1e-15
    assert abs(dist - 0.0196) < 1e-17
    assert compact_rate_bound(0, 1.0, 1.0, 1.0) == 3.0


def test_optimal_scale_is_argmin():
    d_sq, c_sq, nu_sq = 2.7, 1.9, 0.4
    # noisy, and error-free at Ct^2 = C^2/2
    for c_tilde_sq in (c_sq + nu_sq, c_sq / 2.0):
        a_star = np.sqrt(d_sq) / np.sqrt(c_tilde_sq)
        at_star = compact_rate_bound(10, a_star, d_sq, c_tilde_sq)
        for a in np.linspace(0.05, 8.0, 400):
            assert at_star <= compact_rate_bound(10, a, d_sq, c_tilde_sq) + 1e-12
        # closed form of the minimum: 3 d sqrt(Ct^2) / sqrt(k+1)
        want = 3.0 * np.sqrt(d_sq) * np.sqrt(c_tilde_sq) / np.sqrt(11.0)
        assert abs(at_star - want) < 1e-12


def assert_same_trace(batch, i, single):
    """Row i of a batch's trace equals a single run's trace."""
    for col in ("f_iter", "f_avg", "f_min", "x_hat_final"):
        assert np.array_equal(getattr(batch, col)[i], getattr(single, col)), col


BATCH_CASES = [
    pytest.param(lambda: make_problem(default_instance("test1", reg_weight=100.0)), 45,
                 id="test1"),
    pytest.param(lambda: make_problem(make_instance("inline", n=1000, cap=1.0, budget=1.0,
                                                    reg_weight=1.0)), 9, id="n1000-binding"),
    pytest.param(lambda: quadratic_problem(3.0, [0.4, 0.9, 0.1], CappedBox(3, 1.0, 1.2),
                                           [0.0, 0.0, 0.0], noise_halfwidth=2.0), 300,
                 id="quadratic"),
]


@pytest.mark.parametrize("build, num_iterations", BATCH_CASES)
def test_batched_runs_equal_single_runs(build, num_iterations):
    # a list of generators advances the runs together; each run's row of the
    # trace equals its single-run call bit for bit, also with one a per run
    problem = build()
    seeds = [3, 11, 4, 2**64 - 1, 8]
    a_values = [0.3, 1.0, 10.0, 1.0, 2.5]

    def rngs():
        return [rng_from_seed(s) for s in seeds]

    batch = run_compact(problem, a_values, num_iterations, rngs())
    assert batch.f_iter.shape == (len(seeds), num_iterations + 1)
    for i, s in enumerate(seeds):
        assert_same_trace(batch, i, run_compact(problem, a_values[i], num_iterations,
                                                rng_from_seed(s)))
    for sched in (TsengStepsize(), NesterovStepsize()):
        batch = run_strongly_convex(problem, sched, num_iterations, rngs())
        for i, s in enumerate(seeds):
            assert_same_trace(batch, i, run_strongly_convex(
                problem, sched, num_iterations, rng_from_seed(s)))


def test_batch_arguments_are_checked():
    problem = l1_problem([0.25], UNIT_INTERVAL, [0.0])
    rngs = [rng_from_seed(0), rng_from_seed(1)]
    with pytest.raises(ValueError):
        run_compact(problem, [1.0, 2.0, 3.0], 5, rngs)


def test_iterates_are_checked_feasible_once_per_block():
    # a set whose projection lets points escape is caught at the block's end
    class Leaky(CappedBox):
        def project(self, x):
            return np.asarray(x, dtype=float)

    problem = l1_problem([0.25], Leaky(1, 1.0, 1.0), [0.0])
    problem.oracle = lambda x, xi: np.full_like(x, -1.0)
    with pytest.raises(ArithmeticError, match="left the feasible set"):
        run_compact(problem, 1.0, 10, rng_from_seed(0))
    # the check is exact: at cap = budget = 2^-50 steps of 1e-13 leave the
    # set by far less than an absolute tolerance of 1e-9, and are caught
    tiny = 2.0 ** -50
    problem = l1_problem([0.0, 0.0], Leaky(2, tiny, tiny), [0.0, 0.0])
    problem.oracle = lambda x, xi: np.full_like(x, -1e-13)
    with pytest.raises(ArithmeticError, match="left the feasible set"):
        run_compact(problem, 1.0, 10, rng_from_seed(0))
    # an infeasible start point is the first block's first iterate, also one
    # ulp over the budget; a start on the budget face runs (test3's and
    # test4's do, in test_compact_claims_from_the_floor)
    budget_box = CappedBox(1, 2.0, 1.0)
    for box, x0 in ((UNIT_INTERVAL, 2.0), (budget_box, np.nextafter(1.0, 2.0))):
        with pytest.raises(ArithmeticError, match="left the feasible set"):
            run_compact(l1_problem([0.25], box, [x0]), 1.0, 10, rng_from_seed(0))
    on_face = run_compact(l1_problem([0.25], budget_box, [1.0]), 1.0, 10, rng_from_seed(0))
    assert on_face.f_iter[0] == 0.75
