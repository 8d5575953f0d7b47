"""Acceptance suite: one test per numbered criterion, each printing a PASS line.

Monte-Carlo criteria use fixed base seeds so every run of the suite is
deterministic; statistical tolerances (2 standard errors on mean curves,
3 on Monte-Carlo agreement) come from the criteria themselves.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    capped_box_vertices,
    distance_recorder,
    kkt_residual_capped_box,
    mc_estimate_f,
)

from ssmd.averaging import AverageState
from ssmd.gaussian import rng_from_seed
from ssmd.harness import (
    build_instance,
    format_csv,
    instance_constants,
    parse_config,
    sweep_a,
)
from ssmd.sets import CappedBox, bregman_diameter_sq
from ssmd.solver import (
    ProblemHandle,
    compact_rate_bound,
    run_compact,
    run_strongly_convex,
    strongly_convex_rate_bounds,
)
from ssmd.stepsizes import (
    InverseSqrtStepsize,
    NesterovStepsize,
    TsengStepsize,
    alpha_cap_violations,
    alpha_sq_sum_violations,
    sqrt_sum_growth_violations,
    step_condition_violations,
)
from ssmd.utility import (
    Envelope,
    default_envelope,
    default_instance,
    estimate_constants,
    expected_phi_gaussian,
    f_value,
    make_problem,
    reference_gap,
    reference_solution,
)
from ssmd import cli

BASE_SEED = 20240817
N_SEEDS = 100
K_RUN = 1000


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_step_condition():
    t0 = time.perf_counter()
    assert step_condition_violations(TsengStepsize().alphas(100_000)).size == 0
    assert step_condition_violations(NesterovStepsize().alphas(100_000)).size == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: step condition holds for both schedules, "
          f"k <= 1e5 ({elapsed:.2f}s)")


# ---------------------------------------------------------------- criterion 2


def test_criterion_02_alpha_sq_weight_sum():
    t0 = time.perf_counter()
    assert alpha_sq_sum_violations(TsengStepsize().alphas(100_000)).size == 0
    assert alpha_sq_sum_violations(NesterovStepsize().alphas(100_000)).size == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 2: alpha_k^2 * sum(1/alpha) >= 1 for both "
          f"schedules, k <= 1e5 ({elapsed:.2f}s)")


# ---------------------------------------------------------------- criterion 3


def test_criterion_03_sqrt_sum_growth():
    for a in (0.1, 1.0, 10.0):
        assert sqrt_sum_growth_violations(InverseSqrtStepsize(a).alphas(100_000)).size == 0
    print("\nPASS criterion 3: cumulative weight >= (2/(3a))(k+1)^1.5 for "
          "a in {0.1, 1, 10}, k <= 1e5")


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_alpha_cap():
    assert alpha_cap_violations(TsengStepsize().alphas(10_000)).size == 0
    assert alpha_cap_violations(NesterovStepsize().alphas(10_000)).size == 0
    print("\nPASS criterion 4: 0 < alpha_k <= 2/(k+1) for both schedules, "
          "k <= 1e4")


# ---------------------------------------------------------------- criterion 5


def test_criterion_05_projection_oracle():
    t0 = time.perf_counter()
    rng = rng_from_seed(BASE_SEED)
    pts_per_axis = {2: 71, 3: 26, 4: 13, 5: 9}
    grids = {}
    for n, pts in pts_per_axis.items():
        axis = np.linspace(0.0, 1.0, pts)
        mesh = np.meshgrid(*([axis] * n), indexing="ij")
        g = np.stack([m.ravel() for m in mesh], axis=1)
        grids[n] = (g, g.sum(axis=1), 1.0 / (pts - 1))
    for trial in range(1000):
        n = int(rng.integers(2, 6))
        budget = float(rng.uniform(0.3, 0.9 * n))
        box = CappedBox(n, 1.0, budget)
        if trial % 3 == 0:
            x = rng.uniform(0.0, 1.0, n) * 3.0  # forces the budget face
        else:
            x = rng.uniform(-0.5, 1.5, n)
        p = box.project(x)
        assert box.contains(p)
        assert kkt_residual_capped_box(1.0, budget, x, p) <= 1e-8
        grid, sums, h = grids[n]
        feas = grid[sums <= budget + 1e-12]
        d2 = np.sum((feas - x) ** 2, axis=1)
        i = int(np.argmin(d2))
        dp = float(np.sqrt(np.sum((p - x) ** 2)))
        # the projection beats every feasible grid point ...
        assert dp <= np.sqrt(d2[i]) + 1e-9
        # ... and the grid argmin sits within grid resolution of it
        assert np.sum((feas[i] - p) ** 2) <= 2 * dp * h * np.sqrt(n) + n * h * h + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 5: 1000 random projections match the grid "
          f"oracle, KKT residual <= 1e-8 ({elapsed:.1f}s)")


# ------------------------------------------------------- criteria 6 and 8 (a)

C6_BOX = CappedBox(4, 1.0, 1.5)
C6_XSTAR = np.full(4, 0.25)
C6_MU = 2.0
C6_NOISE = 0.5  # uniform per-component halfwidth; variance n b^2 / 3 exactly
C6_X0 = np.array([1.0, 0.5, 0.0, 0.0])


def c6_problem():
    def oracle(x, xi):
        return C6_MU * (x - C6_XSTAR) + C6_NOISE * (2.0 * xi - 1.0)

    return ProblemHandle(
        oracle=oracle, feasible_set=C6_BOX, x0=C6_X0,
        noise=lambda rng, rows: rng.random((rows, 4)), mu_f=C6_MU,
        f_exact=lambda x: 0.5 * C6_MU * np.sum((x - C6_XSTAR) ** 2, axis=-1))


def c6_exact_c_tilde_sq():
    verts = capped_box_vertices(1.0, 1.5, 4)
    max_d2 = float(np.max(np.sum((verts - C6_XSTAR) ** 2, axis=1)))
    c_sq = C6_MU**2 * max_d2
    nu_sq = 4 * C6_NOISE**2 / 3.0
    return c_sq + nu_sq


@pytest.fixture(scope="module")
def c6_runs():
    t0 = time.perf_counter()
    out = {}
    for name, sched_cls in (("tseng", TsengStepsize), ("nesterov", NesterovStepsize)):
        problem, distances = distance_recorder(c6_problem(), C6_XSTAR, N_SEEDS)
        trace = run_strongly_convex(problem, sched_cls(), K_RUN,
                                    [rng_from_seed(BASE_SEED + r) for r in range(N_SEEDS)])
        dist_iter_sq, dist_avg_sq = distances()
        out[name] = (trace.f_avg, dist_avg_sq, dist_iter_sq)
    out["elapsed"] = time.perf_counter() - t0
    return out


def _mean_under(rows, bound):
    mean = rows.mean(axis=0)
    se = rows.std(axis=0, ddof=1) / np.sqrt(rows.shape[0])
    return np.all(mean <= bound + 2.0 * se), float(np.max(mean - (bound + 2.0 * se)))


def test_criterion_06_strongly_convex_bound_domination(c6_runs):
    c_tilde_sq = c6_exact_c_tilde_sq()
    ks = np.arange(K_RUN + 1)
    gap_b, dist_b = strongly_convex_rate_bounds(ks, c_tilde_sq, C6_MU)
    for name in ("tseng", "nesterov"):
        gap, davg, diter = c6_runs[name]
        ok, worst = _mean_under(gap, gap_b)
        assert ok, f"{name} gap exceeds bound by {worst}"
        ok, worst = _mean_under(davg, dist_b)
        assert ok, f"{name} average distance exceeds bound by {worst}"
        ok, worst = _mean_under(diter, dist_b)
        assert ok, f"{name} iterate distance exceeds bound by {worst}"
    assert c6_runs["elapsed"] < 60.0
    print(f"\nPASS criterion 6: strongly convex bounds dominate all three "
          f"mean curves, both schedules, 100 seeds x K=1000 "
          f"({c6_runs['elapsed']:.1f}s)")


# ------------------------------------------------------- criteria 7, 8(b), 9

C7_SETUPS = {
    "1d": dict(box=CappedBox(1, 1.0, 1.0), x_star=np.array([0.25]),
               x0=np.array([0.0]), noise=1.0, d_sq=0.5, c_sq=1.0),
    "5d": dict(box=CappedBox(5, 1.0, 1.5), x_star=np.full(5, 0.25),
               x0=np.zeros(5), noise=0.5, d_sq=None, c_sq=5.0),
}


def c7_problem(setup):
    box, x_star, noise = setup["box"], setup["x_star"], setup["noise"]
    n = x_star.shape[0]

    def oracle(x, xi):
        return np.sign(x - x_star) + noise * (2.0 * xi - 1.0)

    return ProblemHandle(
        oracle=oracle, feasible_set=box, x0=setup["x0"],
        noise=lambda rng, rows: rng.random((rows, n)),
        f_exact=lambda x: np.sum(np.abs(x - x_star), axis=-1))


def c7_constants(setup):
    """(d^2, Ct^2 = C^2 + nu^2) of a criterion-7 setup."""
    n = setup["x_star"].shape[0]
    d_sq = setup["d_sq"]
    if d_sq is None:
        d_sq = bregman_diameter_sq(setup["box"])
    nu_sq = n * setup["noise"] ** 2 / 3.0
    return d_sq, setup["c_sq"] + nu_sq


@pytest.fixture(scope="module")
def c7_runs():
    t0 = time.perf_counter()
    out = {}
    for name, setup in C7_SETUPS.items():
        d_sq, c_tilde_sq = c7_constants(setup)
        # a* = d / sqrt(Ct^2) minimizes the compact bound at every k
        a_star = np.sqrt(d_sq) / np.sqrt(c_tilde_sq)
        for a_label, a in (("a_star", a_star), ("a_one", 1.0)):
            trace = run_compact(c7_problem(setup), a, K_RUN,
                                [rng_from_seed(BASE_SEED + r) for r in range(N_SEEDS)])
            out[(name, a_label)] = (trace.f_avg, trace.f_min, a)
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_07_compact_bound_domination(c7_runs):
    ks = np.arange(K_RUN + 1)
    for name, setup in C7_SETUPS.items():
        d_sq, c_tilde_sq = c7_constants(setup)
        for a_label in ("a_star", "a_one"):
            gap, _, a = c7_runs[(name, a_label)]
            bound = compact_rate_bound(ks, a, d_sq, c_tilde_sq)
            ok, worst = _mean_under(gap, bound)
            assert ok, f"{name}/{a_label} exceeds bound by {worst}"
    assert c7_runs["elapsed"] < 60.0
    print(f"\nPASS criterion 7: compact-set bound dominates the mean gap for "
          f"1-D and 5-D instances, a in {{a*, 1}}, 100 seeds x K=1000 "
          f"({c7_runs['elapsed']:.1f}s)")


def _loglog_slope(mean_gap):
    ks = np.arange(mean_gap.shape[0])
    sel = (ks >= 100) & (ks <= 1000)
    return float(np.polyfit(np.log(ks[sel]), np.log(mean_gap[sel]), 1)[0])


def test_criterion_08_rate_slopes(c6_runs, c7_runs):
    for name in ("tseng", "nesterov"):
        slope = _loglog_slope(c6_runs[name][0].mean(axis=0))
        assert slope <= -0.8, f"criterion-6 {name} slope {slope}"
    slope5 = _loglog_slope(c7_runs[("5d", "a_star")][0].mean(axis=0))
    assert slope5 <= -0.4, f"criterion-7 slope {slope5}"
    print(f"\nPASS criterion 8: log-log rate slopes (strongly convex "
          f"<= -0.8, compact {slope5:.2f} <= -0.4)")


def test_criterion_09_min_so_far(c7_runs):
    gap, fmin, a = c7_runs[("5d", "a_star")]
    assert np.all(np.diff(fmin, axis=1) <= 0.0), "min-so-far not monotone"
    bound = compact_rate_bound(K_RUN, a, *c7_constants(C7_SETUPS["5d"]))
    last = fmin[:, -1]
    se = last.std(ddof=1) / np.sqrt(last.shape[0])
    assert last.mean() <= bound + 2.0 * se
    print("\nPASS criterion 9: min-so-far exactly non-increasing per run and "
          "its mean at k=1000 sits under the bound")


def test_averages_converge_almost_surely_along_a_subsequence():
    # the abstract's almost-sure claim with alpha_k = 1/sqrt(k+1): on the c7
    # 5-D problem (unique x*, f* = 0), the share of paths whose running minimum
    # of f(x_hat_j) stays above eps falls as k grows, and every path ends far
    # below the bound; eps and the final margin are fixed from the bound at K
    setup, big_k = C7_SETUPS["5d"], 10_000
    d_sq, c_tilde_sq = c7_constants(setup)
    assert d_sq == 1.25 and abs(c_tilde_sq - 65.0 / 12.0) < 1e-15
    bound = compact_rate_bound(big_k, 1.0, d_sq, c_tilde_sq)
    seeds = range(41, 141)
    running = np.concatenate([
        np.minimum.accumulate(run_compact(
            c7_problem(setup), 1.0, big_k,
            [rng_from_seed(s) for s in seeds[i:i + 32]]).f_avg, axis=1)
        for i in range(0, len(seeds), 32)])
    shares = [float(np.mean(running[:, k] > bound / 4.0)) for k in (10, 100, 1000, big_k)]
    assert shares[0] > shares[1] > shares[2] and shares[3] == 0.0, shares
    assert running[:, -1].max() < bound / 50.0, (running[:, -1].max(), bound)
    print(f"\nPASS almost-sure claim: shares above eps = {bound / 4.0:.3f} at "
          f"k = 10, 10^2, 10^3, 10^4: {shares}; largest final running minimum "
          f"{running[:, -1].max():.2e} < {bound / 50.0:.2e}")


# --------------------------------------------------------------- criterion 10


def test_criterion_10_analytic_objective():
    t0 = time.perf_counter()
    n_samples = 1_000_000
    rng = rng_from_seed(BASE_SEED + 5)
    lam = {"test1": 100.0, "test2": 0.0, "test3": 100.0, "test4": 0.0}
    for label, reg in lam.items():
        inst = default_instance(label, reg_weight=reg)
        for i in range(20):
            scale = 10.0 ** rng.uniform(-2.5, 0.18) * inst.feasible_set.cap
            x = inst.feasible_set.project(rng.random(100) * scale)
            fv = f_value(inst, x)
            est, se = mc_estimate_f(inst, x, n_samples,
                                    rng_from_seed(BASE_SEED + 1000 + i))
            floor = 2.0 / n_samples * (1.0 + abs(fv))
            assert abs(fv - est) <= 3.0 * se + floor, (label, i, fv, est, se)
    abs_env = Envelope(np.array([0.0, 0.0]), np.array([-1.0, 1.0]))
    got = expected_phi_gaussian(abs_env, 0.0, 1.0)
    assert abs(got - np.sqrt(2.0 / np.pi)) < 1e-10
    from scipy.integrate import quad
    from ssmd.gaussian import norm_pdf
    quad_val, _ = quad(lambda t: abs(t) * norm_pdf(t), -12, 12, points=[0.0])
    assert abs(got - quad_val) < 1e-10
    print(f"\nPASS criterion 10: analytic objective matches 1e6-sample "
          f"Monte-Carlo at 80 points; E|Z| = sqrt(2/pi) to 1e-10 "
          f"({time.perf_counter() - t0:.1f}s)")


# --------------------------------------------------------------- criterion 11


def test_criterion_11_qualitative_reproduction():
    t0 = time.perf_counter()
    # strongly convex regime: both schedules land within 2% of f_ref
    inst = default_instance("test1", reg_weight=100.0)
    _, f_ref = reference_solution(inst, 1e-6)
    finals = {}
    for sched in ("step-1", "step-2"):
        cfg = parse_config(
            f"regime = strongly_convex\ninstance = test1\nlambda = 100\n"
            f"schedule = {sched}\nruns = {N_SEEDS}\niterations = 100\n"
            f"seed = {BASE_SEED}")
        summary = sweep_a(cfg)[0][1]
        # the mean average-iterate curve descends monotonically within noise
        drops = np.diff(summary.mean_f_avg[1:])
        assert np.all(drops <= 3.0 * summary.stderr_f_avg[1:-1])
        finals[sched] = float(summary.mean_f_avg[-1])
        assert abs(finals[sched] - f_ref) <= 0.02 * abs(f_ref), (sched, finals, f_ref)
    m1, m2 = finals["step-1"], finals["step-2"]
    assert abs(m1 - m2) <= 0.01 * max(abs(m1), abs(m2))

    # compact regime: swept a, best final mean within 5% of f_ref
    inst0 = default_instance("test1", reg_weight=0.0)
    warm = np.full(100, inst0.feasible_set.budget / 100)
    _, f_ref0 = reference_solution(inst0, 1e-5, x_init=warm)
    c_est, nu_est = estimate_constants(inst0, 2000, rng_from_seed(BASE_SEED))
    d = np.sqrt(bregman_diameter_sq(inst0.feasible_set))
    a_star = d / np.sqrt(c_est**2 + nu_est**2)
    best = np.inf
    for mult in (0.5, 1.0, 2.0):
        cfg = parse_config(
            f"regime = compact\ninstance = test1\na = {float(a_star * mult)!r}\n"
            f"runs = {N_SEEDS}\niterations = 1000\nseed = {BASE_SEED}")
        best = min(best, float(sweep_a(cfg)[0][1].mean_f_avg[-1]))
    assert abs(best - f_ref0) <= 0.05 * abs(f_ref0), (best, f_ref0)
    print(f"\nPASS criterion 11: strongly convex finals within 2% of f_ref "
          f"(schedules within 1%); best-a compact final within 5% "
          f"({time.perf_counter() - t0:.1f}s)")


# ------------------------------------- compact-regime claims on test1..test4

# phi is at least its flat last piece c_m everywhere, so at lambda = 0,
# f* >= c_m and f - c_m overstates the gap: a check passed from c_m is sound
C_M = default_envelope().intercepts[-1]
NAMED_RUNS = 32


@pytest.mark.parametrize("label", ["test1", "test2", "test3", "test4"])
def test_compact_claims_from_the_floor(label):
    t0 = time.perf_counter()
    assert default_envelope().slopes[-1] == 0.0
    base = (f"regime = compact\ninstance = {label}\nruns = {NAMED_RUNS}\n"
            f"iterations = {K_RUN}\nseed = {BASE_SEED}\n")
    cfg = parse_config(base)
    constants = instance_constants(cfg, build_instance(cfg))
    a_star = np.sqrt(constants["diameter_sq"]) / np.sqrt(constants["c_tilde_sq"])
    (_, summary), = sweep_a(parse_config(base + f"a = {float(a_star)!r}\n"))
    assert summary.metadata["c_tilde_sq"] == repr(constants["c_tilde_sq"])
    bound = summary.bound
    gap = summary.mean_f_avg - C_M
    assert np.all(gap <= bound), float(np.max(gap / bound))
    # the margin over -1/2 is the bound's own slope on [100, K]: its
    # (k + 1)^(-1/2) is a little shallower than k^(-1/2)
    slope = _loglog_slope(gap)
    assert slope <= _loglog_slope(bound), slope
    # the mean running minimum of f(x_k) is under the bound at K, as in criterion 9
    run_min = summary.mean_f_min - C_M
    assert np.all(np.diff(run_min) <= 0.0) and run_min[-1] <= bound[-1]
    print(f"\nPASS compact claims on {label} from c_m at a* = {a_star:.3g}: "
          f"gap/bound <= {np.max(gap / bound):.2g}, slope {slope:.2f}, "
          f"{NAMED_RUNS} runs x K={K_RUN} ({time.perf_counter() - t0:.1f}s)")


# ------------------------------------- strongly convex claim on test1, certified

@pytest.mark.parametrize("schedule", ["step-1", "step-2"])
def test_strongly_convex_claim_from_the_certified_floor(schedule):
    # f_lower = f_ref - gap <= f*, so mean f(x_hat_k) - f_lower overstates the
    # mean gap and a pass is sound.  The margins, fixed before running, are
    # none for the bound: the gap must lie in [0, bound] at every k; and 0.2
    # for the O(1/k) rate: its log-log slope on [100, K] is at most -0.8
    t0 = time.perf_counter()
    (_, summary), = sweep_a(parse_config(
        f"regime = strongly_convex\ninstance = test1\nlambda = 100\nschedule = {schedule}\n"
        f"runs = {N_SEEDS}\niterations = {K_RUN}\ncompute_reference = true\nseed = 41\n"))
    f_lower = float(summary.metadata["f_lower"])
    assert f_lower <= float(summary.metadata["f_ref"])
    gap = summary.mean_f_avg - f_lower
    assert np.all(gap >= 0.0) and np.all(gap <= summary.bound), float(np.max(gap / summary.bound))
    slope = _loglog_slope(gap)
    assert slope <= -0.8, slope
    print(f"\nPASS strongly convex claim on test1 ({schedule}) from f_lower: "
          f"gap/bound <= {np.max(gap / summary.bound):.2g}, slope {slope:.2f}, "
          f"{N_SEEDS} runs x K={K_RUN} ({time.perf_counter() - t0:.1f}s)")


def test_strongly_convex_distance_claim_against_the_certified_optimum():
    # the per-iterate claim E||x_k - x*||^2, E||x_hat_k - x*||^2 <= 4 Ct^2 /
    # ((k+1) mu^2) on test1 at lambda = 100, step-1, runs on seeds 41..140, with
    # the bound column's Ct^2.  x_ref's Frank-Wolfe gap G bounds ||x_ref - x*||
    # by sqrt(2G/mu), so by Minkowski's inequality sqrt(mean ||x_k - x_ref||^2)
    # + sqrt(2G/mu) overstates the root mean distance to x* and a pass is
    # sound.  The rate margin, fixed before running, is a log-log slope of the
    # mean squared distance on [100, K] of at most -0.8
    t0 = time.perf_counter()
    cfg = parse_config("regime = strongly_convex\ninstance = test1\nlambda = 100\nseed = 41\n")
    inst = build_instance(cfg)
    x_ref, _ = reference_solution(inst, 1e-12)
    band = np.sqrt(2.0 * reference_gap(inst, x_ref) / cfg.reg_weight)
    _, dist_bound = strongly_convex_rate_bounds(
        np.arange(K_RUN + 1), instance_constants(cfg, inst)["c_tilde_sq"], cfg.reg_weight)
    problem, distances = distance_recorder(make_problem(inst), x_ref, N_SEEDS)
    run_strongly_convex(problem, TsengStepsize(), K_RUN,
                        [rng_from_seed(41 + r) for r in range(N_SEEDS)])
    report = []
    for name, dist_sq in zip(("x_k", "x_hat_k"), distances()):
        mean = dist_sq.mean(axis=0)
        ratio = (np.sqrt(mean) + band) / np.sqrt(dist_bound)
        assert np.all(ratio <= 1.0), (name, float(np.max(ratio)))
        slope = _loglog_slope(mean)
        assert slope <= -0.8, (name, slope)
        report.append(f"{name} root ratio <= {np.max(ratio):.2g}, slope {slope:.2f}")
    print(f"\nPASS strongly convex distance claim on test1 against x_ref "
          f"(band {band:.2g}): {'; '.join(report)}, {N_SEEDS} runs x K={K_RUN} "
          f"({time.perf_counter() - t0:.1f}s)")


@pytest.mark.parametrize("schedule", [TsengStepsize, NesterovStepsize], ids=["step-1", "step-2"])
def test_weighted_average_beats_the_uniform_average(schedule):
    # the paper's 1/alpha weights against the uniform average of the same
    # iterates x_k, recorded from the oracle's inputs of a run one step longer,
    # on test1 at lambda = 100, runs on seeds 41..140.  The gap difference
    # (uniform - weighted) is f(x_bar_k) - f(x_hat_k), as f* cancels; the
    # margin, fixed before running, is 4 paired standard errors of its mean at
    # every k in [100, K].  Nothing is claimed of the last iterate
    t0 = time.perf_counter()
    inst = default_instance("test1", 100.0)
    problem = make_problem(inst)
    total, f_uniform = np.zeros((N_SEEDS, inst.n)), []

    def recording(x, xi):
        total[:] += x
        f_uniform.append(f_value(inst, total / (len(f_uniform) + 1)))
        return problem.oracle(x, xi)

    trace = run_strongly_convex(replace(problem, oracle=recording), schedule(), K_RUN + 1,
                                [rng_from_seed(41 + r) for r in range(N_SEEDS)])
    f_weighted = trace.f_avg[:, :K_RUN + 1]
    diff = (np.column_stack(f_uniform[:K_RUN + 1]) - f_weighted)[:, 100:]
    z = diff.mean(axis=0) / (diff.std(axis=0, ddof=1) / np.sqrt(N_SEEDS))
    assert np.all(z > 4.0), float(np.min(z))
    print(f"\nPASS 1/alpha weights beat uniform averaging on test1 ({schedule.__name__}): "
          f"paired z >= {np.min(z):.1f} over k in [100, {K_RUN}], {N_SEEDS} runs "
          f"({time.perf_counter() - t0:.1f}s)")


# --------------------------------------------------------------- criterion 12


def test_criterion_12_averaging():
    rng = rng_from_seed(BASE_SEED + 12)
    for _ in range(1000):
        length = int(rng.integers(1, 501))
        xs = rng.standard_normal((length, 2)) * 5
        alphas = np.exp(rng.standard_normal(length))
        st = AverageState.empty()
        for x, a in zip(xs, alphas):
            st = st.absorb(x, a)
        direct = np.average(xs, axis=0, weights=1.0 / alphas)
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(st.x_hat - direct)) <= 1e-10 * scale
    print("\nPASS criterion 12: recursive average matches direct weighted sums "
          "to 1e-10 on 1000 sequences")


# --------------------------------------------------------------- criterion 13


def test_criterion_13_determinism(tmp_path):
    cfg_text = ("regime = compact\ninstance = inline\nn = 6\ncap = 1.0\n"
                "budget = 2.5\na = 0.7\niterations = 60\nruns = 8\nseed = 3\n")
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(cfg_text)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["experiment", "--config", str(cfg_file), "--out", str(out1)]) == 0
    assert cli.main(["experiment", "--config", str(cfg_file), "--out", str(out2)]) == 0
    b1 = (out1 / "experiment_a0.csv").read_bytes()
    assert b1 == (out2 / "experiment_a0.csv").read_bytes()

    cfg = parse_config(cfg_text)
    assert format_csv(sweep_a(cfg, workers=1)[0][1]) == \
        format_csv(sweep_a(cfg, workers=2)[0][1]) == b1.decode()
    print("\nPASS criterion 13: byte-identical CSV across re-runs and worker counts")
