import dataclasses
import math

import numpy as np
import pytest
from conftest import (STACK_FLOATS, capped_box_vertices, fd_grad, mc_estimate_f,
                      mc_estimate_f_dense, norm_cdf_interval, phi_slope,
                      piecewise_gaussian_quadrature)

from ssmd.gaussian import norm_pdf, rng_from_seed, standard_normals
from ssmd.utility import (
    INSTANCE_LABELS,
    Envelope,
    default_envelope,
    default_instance,
    estimate_constants,
    expected_phi_gaussian,
    f_value,
    grad_f,
    instance_metadata,
    make_instance,
    make_problem,
    phi,
    reference_gap,
    reference_solution,
    stochastic_subgradient,
)
from ssmd.utility import _noise_sq, _oracle_mean

SQRT_2_OVER_PI = 0.7978845608028653559


def envelope(intercepts, slopes):
    return Envelope(np.array(intercepts, dtype=float), np.array(slopes, dtype=float))


ABS = envelope([0.0, 0.0], [-1.0, 1.0])  # phi(t) = |t|


def with_envelope(inst, intercepts, slopes):
    """inst with phi(t) = max_j (c_j + d_j t) in place of the default envelope."""
    return dataclasses.replace(inst, envelope=envelope(intercepts, slopes))


def test_envelope_abs_value():
    assert ABS.intercepts.size == 2
    assert np.array_equal(ABS.breakpoints, [0.0])
    assert envelope([0.7], [-2.0]).breakpoints.shape == (0,)


def test_phi_examples():
    assert phi(ABS, -2.0) == 2.0
    assert phi_slope(ABS, -2.0) == -1.0
    assert phi_slope(ABS, 0.0) == 1.0  # tie resolves to the larger slope


def test_default_pieces_structure():
    env = default_envelope()
    assert env.intercepts.shape == env.slopes.shape == (10,)
    assert env.breakpoints.shape == (9,)
    assert np.all(env.breakpoints > 0.0) and np.all(env.breakpoints < 1.0)
    for t in np.linspace(-1, 2, 50):
        assert abs(phi(env, t) - np.max(env.intercepts + env.slopes * t)) < 1e-12


def test_default_envelope_matches_meta():
    # the piece lines of every .meta sidecar, and breakpoints at j/10
    env = default_envelope()
    assert ",".join(repr(v) for v in env.intercepts.tolist()) == (
        "0.0,-0.003999999999999998,-0.011999999999999995,-0.024000000000000007,-0.04,"
        "-0.060000000000000005,-0.084,-0.112,-0.14400000000000002,-0.18000000000000002")
    assert ",".join(repr(v) for v in env.slopes.tolist()) == (
        "-0.36,-0.32,-0.28,-0.24,-0.2,-0.16,-0.12,-0.08,-0.04,0.0")
    assert np.allclose(env.breakpoints, np.arange(1, 10) / 10.0, rtol=0.0, atol=1e-12)


def test_expected_phi_abs_gaussian():
    got = expected_phi_gaussian(ABS, 0.0, 1.0)
    assert abs(got - SQRT_2_OVER_PI) < 1e-12
    quad_val, quad_err = piecewise_gaussian_quadrature(
        ABS.intercepts, ABS.slopes, ABS.breakpoints, 0.0, 1.0)
    assert abs(got - quad_val) < 1e-10 + quad_err


def test_expected_phi_single_piece():
    env = envelope([0.7], [-2.0])
    for mu, sigma in [(0.0, 1.0), (3.0, 0.5), (-1.0, 4.0)]:
        assert abs(expected_phi_gaussian(env, mu, sigma) - (0.7 - 2.0 * mu)) < 1e-12


def test_expected_phi_degenerate_sigma():
    env = default_envelope()
    for mu in (-0.5, 0.33, 1.7):
        assert expected_phi_gaussian(env, mu, 0.0) == phi(env, mu)
    # vanishing but nonzero sigma converges to the pointwise value,
    # including exactly at a breakpoint
    for mu in (0.33, 0.5):
        got = expected_phi_gaussian(env, mu, 1e-300)
        assert abs(got - phi(env, mu)) < 1e-14


def test_expected_phi_against_quadrature(rng):
    env = default_envelope()
    for _ in range(25):
        mu = float(rng.standard_normal()) * 3
        sigma = 0.05 + float(rng.random()) * 4
        got = expected_phi_gaussian(env, mu, sigma)
        want, err = piecewise_gaussian_quadrature(
            env.intercepts, env.slopes, env.breakpoints, mu, sigma)
        assert abs(got - want) < 1e-8 + 10 * err


def test_expected_phi_broadcasts():
    env = default_envelope()
    mus = np.array([0.0, 0.5, 1.0])
    sigmas = np.array([0.5, 0.0, 2.0])
    got = expected_phi_gaussian(env, mus, sigmas)
    want = [expected_phi_gaussian(env, m, s) for m, s in zip(mus, sigmas)]
    assert np.array_equal(got, want)

    # a (3, 4) stack with sigma = 0 first, in the middle and last equals the
    # per-element scalar calls bit for bit
    mu = np.linspace(-0.7, 1.6, 12).reshape(3, 4)
    sigma = np.geomspace(1e-3, 5.0, 12).reshape(3, 4)
    sigma[0, 0] = sigma[1, 2] = sigma[2, 3] = 0.0
    got = expected_phi_gaussian(env, mu, sigma)
    assert got.shape == (3, 4)
    want = [[expected_phi_gaussian(env, m, s) for m, s in zip(*rows)]
            for rows in zip(mu, sigma)]
    assert np.array_equal(got, want)
    assert got[1, 2] == phi(env, mu[1, 2])

    # scalars and 0-d arrays give a Python float, with sigma = 0 or not
    for m, s in ((0.3, 0.7), (0.3, 0.0), (np.array(0.3), np.array(0.7)),
                 (np.array(0.3), np.array(0.0))):
        assert type(expected_phi_gaussian(env, m, s)) is float


def _two_sided_terms(breakpoints, mu, sigma):
    """The former per-piece form: erfc and the pdf at both ends of every piece."""
    z = (breakpoints - mu) / sigma
    inf = np.full(z.shape[:-1] + (1,), np.inf)
    lo = np.concatenate([-inf, z], axis=-1)
    hi = np.concatenate([z, inf], axis=-1)
    return norm_cdf_interval(lo, hi), norm_pdf(lo) - norm_pdf(hi)


def test_closed_forms_equal_two_sided_formula(rng):
    # erfc and the pdf once per breakpoint give the same bits as twice
    env = default_envelope()
    c, d = env.intercepts, env.slopes
    mu = rng.standard_normal(500)[:, None] * 3.0
    sigma = np.geomspace(1e-6, 1e3, 500)[:, None]
    prob, pdf_diff = _two_sided_terms(env.breakpoints, mu, sigma)
    want = np.sum((c + d * mu) * prob + d * sigma * pdf_diff, axis=-1)
    assert np.array_equal(expected_phi_gaussian(env, mu[:, 0], sigma[:, 0]), want)

    inst = default_instance("test1", reg_weight=100.0)
    x = np.array([inst.feasible_set.project(rng.random(100) * s)
                  for s in np.geomspace(1e-4, 20.0, 300)])
    mu = np.sum(inst.coeffs * x[:, None, :], axis=-1)
    sigma = np.sqrt(np.sum(x[:, None, :] ** 2, axis=-1))
    prob, pdf_diff = _two_sided_terms(env.breakpoints, mu, sigma)
    want = np.sum(d * prob, axis=-1, keepdims=True) * inst.coeffs \
        + np.sum(d * pdf_diff, axis=-1, keepdims=True) * (x / sigma) \
        + inst.reg_weight * (x - inst.anchor)
    assert np.array_equal(grad_f(inst, x), want)


def test_f_value_at_origin():
    inst0 = default_instance("test1", reg_weight=0.0)
    env = inst0.envelope
    x = np.zeros(100)
    assert f_value(inst0, x) == phi(env, 0.0)
    inst = default_instance("test1", reg_weight=100.0)
    assert abs(f_value(inst, x) - (phi(env, 0.0) + 12.5)) < 1e-12


def test_f_value_stack_equals_rows(rng):
    inst = default_instance("test1", reg_weight=100.0)
    box = inst.feasible_set
    rows = [box.project(box.cap * rng.random(100) - 2.0) for _ in range(11)]
    rows[3] = np.zeros(100)  # sigma = 0 takes the plain envelope path
    stack = np.array(rows)
    want = [f_value(inst, x) for x in rows]
    assert all(isinstance(v, float) for v in want)
    assert np.array_equal(f_value(inst, stack), want)
    assert np.array_equal(f_value(inst, stack[:10].reshape(5, 2, 100)),
                          np.reshape(want[:10], (5, 2)))
    assert np.array_equal(grad_f(inst, stack), [grad_f(inst, x) for x in rows])


def test_f_sampler_shares_one_draw_across_rows(rng):
    inst = default_instance("test1", reg_weight=100.0)
    sampler = make_problem(inst, analytic_f=False).f_sampler
    box = inst.feasible_set
    stack = np.array([box.project(box.cap * rng.random(100)) for _ in range(4)])
    r1, r2 = rng_from_seed(5), rng_from_seed(5)
    for _ in range(3):
        got = sampler(stack, r1)
        assert got.shape == (4,)
        z = standard_normals(r2, 1)[0]
        want = [phi(inst.envelope, np.sum(inst.coeffs * x) + np.sqrt(np.sum(x * x)) * z)
                + 50.0 * np.sum((x - inst.anchor) ** 2) for x in stack]
        assert np.array_equal(got, want)
    single = sampler(stack[0], rng_from_seed(5))
    assert np.ndim(single) == 0 and single == sampler(stack, rng_from_seed(5))[0]


SAMPLER_INSTANCES = [
    pytest.param(lambda: default_instance("test1", reg_weight=0.0), id="test1"),
    pytest.param(lambda: default_instance("test3", reg_weight=0.0), id="test3"),
    pytest.param(lambda: make_instance("inline", n=1000, cap=1.0, budget=1.0,
                                       reg_weight=1.0), id="n1000"),
]


def sampler_stack(inst, rng, rows):
    """x0 (unless it is 0) and random feasible points, one per row."""
    box = inst.feasible_set
    points = [box.project(box.cap * rng.random(inst.n)) for _ in range(rows)]
    return np.array(points + ([inst.x0] if np.any(inst.x0) else []))


@pytest.mark.parametrize("build", SAMPLER_INSTANCES)
def test_f_sampler_mean_is_exactly_rounded_mean_of_draws(build, rng):
    # f_sampler(x, rng, N) against the exactly rounded mean of N one-draw
    # calls: within 1e-13 of the mean |term|, where adding the terms in draw
    # order is off by up to 7e-14 at N = 10^4
    inst, samples = build(), 2000
    sampler = make_problem(inst, analytic_f=False).f_sampler
    stack = sampler_stack(inst, rng, 4)
    draws = rng_from_seed(31)
    terms = np.array([sampler(stack, draws) for _ in range(samples)])
    want = np.array([math.fsum(col) / samples for col in terms.T])
    got = sampler(stack, rng_from_seed(31), samples)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.mean(np.abs(terms), axis=0))


@pytest.mark.parametrize("build", SAMPLER_INSTANCES)
def test_f_sampler_mean_per_row_as_if_alone(build, rng):
    # each row's mean is the same bits alone as in a stack, and a sigma = 0
    # row (x = 0) is phi(mu) + reg bit for bit
    inst = build()
    sampler = make_problem(inst, analytic_f=False).f_sampler
    stack = np.vstack([sampler_stack(inst, rng, 4), np.zeros(inst.n)])
    got = sampler(stack, rng_from_seed(7), 300)
    assert np.array_equal(got, [sampler(x, rng_from_seed(7), 300) for x in stack])
    assert np.array_equal(sampler(stack[None], rng_from_seed(7), 300), got[None])
    reg = 0.5 * inst.reg_weight * np.sum(inst.anchor ** 2)
    assert got[-1] == phi(inst.envelope, 0.0) + reg


@pytest.mark.parametrize("inst", [
    default_instance("test1", reg_weight=100.0),
    make_instance("inline", n=1000, cap=1.0, budget=1.0, reg_weight=0.0),
], ids=["test1", "n1000"])
def test_noise_block_equals_per_iteration_draws(inst):
    # one draw of B rows of n normals is B successive draws of n, bit for bit
    rows = max(1, STACK_FLOATS // inst.n)
    block = make_problem(inst).noise(rng_from_seed(12), rows)
    r = rng_from_seed(12)
    assert block.shape == (rows, inst.n) and rows == {100: 40, 1000: 4}[inst.n]
    assert np.array_equal(block, [standard_normals(r, inst.n) for _ in range(rows)])


def test_f_value_evaluates_points_outside_the_set():
    # the closed form holds on all of R^n: at x = 1 (sum 100 > budget 10),
    # a'x ~ N(sum a, 100), and f is E[phi] there plus the regulariser
    inst = default_instance("test1", reg_weight=100.0)
    x = np.full(100, 1.0)
    want = expected_phi_gaussian(inst.envelope, float(np.sum(inst.coeffs)), 10.0) \
        + 50.0 * float(np.sum((x - inst.anchor) ** 2))
    assert f_value(inst, x) == want


def test_f_value_against_monte_carlo(rng):
    # the additive floor is the resolution of an N-sample mean: deep in the
    # envelope's flat tail every sample ties and the empirical stderr
    # collapses, while the analytic value keeps the unsampled-tail mass
    n_samples = 300_000
    for label in ("test1", "test2"):
        inst = default_instance(label, reg_weight=100.0)
        for i in range(4):
            x = inst.feasible_set.project(rng.random(100) * 1.5)
            est, se = mc_estimate_f(inst, x, n_samples, rng_from_seed(1000 + i))
            floor = 2.0 / n_samples * (1.0 + abs(f_value(inst, x)))
            assert abs(f_value(inst, x) - est) <= 3.0 * se + floor


def test_scalar_reduction_matches_dense_sampling(rng):
    inst = default_instance("test1", reg_weight=0.0)
    for i in range(2):
        x = inst.feasible_set.project(rng.random(100))
        est, se = mc_estimate_f_dense(inst, x, 150_000, rng_from_seed(77 + i))
        assert abs(f_value(inst, x) - est) <= 3.5 * se


def test_f_convexity_probe(rng):
    inst = default_instance("test1", reg_weight=0.0)
    for _ in range(40):
        x = inst.feasible_set.project(rng.random(100) * 2)
        y = inst.feasible_set.project(rng.random(100) * 2)
        mid = 0.5 * (x + y)
        assert f_value(inst, mid) <= 0.5 * f_value(inst, x) + 0.5 * f_value(inst, y) + 1e-9


def test_subgradient_linear_utility(rng):
    inst = with_envelope(make_instance("lin", n=5, cap=10.0, budget=10.0, reg_weight=0.0),
                         [0.0], [1.0])
    x = np.full(5, 0.5)
    acc = np.zeros(5)
    n_draws = 20_000
    r = rng_from_seed(5)
    for _ in range(n_draws):
        acc += stochastic_subgradient(inst, x, standard_normals(r, inst.n))
    acc /= n_draws
    assert np.max(np.abs(acc - inst.coeffs)) < 4.0 / np.sqrt(n_draws) * 3


def test_subgradient_vanishes_at_anchor():
    inst = with_envelope(make_instance("flat", n=4, cap=10.0, budget=10.0, reg_weight=7.0),
                         [2.0], [0.0])
    x = inst.anchor.copy()
    g = stochastic_subgradient(inst, x, standard_normals(rng_from_seed(0), inst.n))
    assert np.array_equal(g, np.zeros(4))


def test_subgradient_mean_matches_fd(rng):
    inst = default_instance("test1", reg_weight=100.0)
    x = inst.feasible_set.project(rng.random(100) * 0.05 + 0.01)
    n_draws = 1_000_000
    r = rng_from_seed(31415)
    mean = np.zeros(100)
    sq = np.zeros(100)
    batch = 50_000
    done = 0
    while done < n_draws:
        b = min(batch, n_draws - done)
        xi = standard_normals(r, (b, 100))
        t = xi @ x + float(inst.coeffs @ x)
        slopes = phi_slope(inst.envelope, t)
        g = slopes[:, None] * (inst.coeffs[None, :] + xi) \
            + inst.reg_weight * (x - inst.anchor)[None, :]
        mean += g.sum(axis=0)
        sq += (g * g).sum(axis=0)
        done += b
    mean /= n_draws
    se = np.sqrt(np.maximum(sq / n_draws - mean**2, 0.0) / n_draws)
    fd = fd_grad(lambda v: f_value(inst, v), x, 1e-5)
    assert np.all(np.abs(mean - fd) <= 3.0 * se + 1e-4)


@pytest.mark.parametrize("n", [100, 1000])
def test_stacked_fd_grad_equals_per_coordinate_loop(n, rng):
    # fd_grad values x +- h e_i in stacks; f_value values each row as if alone
    inst = make_instance("inline", n=n, cap=1.0, budget=1.0, reg_weight=3.0)
    x = inst.feasible_set.project(rng.random(n))

    def f(v):
        return f_value(inst, v)

    h, want = 1e-6, np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        want[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    assert np.array_equal(fd_grad(f, x, h), want)


def test_grad_matches_fd(rng):
    inst = default_instance("test2", reg_weight=100.0)
    for _ in range(3):
        x = inst.feasible_set.project(rng.random(100) * 1.2)
        g = grad_f(inst, x)
        fd = fd_grad(lambda v: f_value(inst, v), x, 1e-6)
        assert np.max(np.abs(g - fd)) < 1e-6


def test_subgradient_inequality(rng):
    # f(y) >= f(x) + <grad f(x), y - x> for feasible pairs; grad_f equals the
    # oracle mean (validated against sampling elsewhere)
    for reg in (0.0, 100.0):
        inst = default_instance("test1", reg_weight=reg)
        for _ in range(30):
            x = inst.feasible_set.project(rng.random(100) * 1.5)
            y = inst.feasible_set.project(rng.random(100) * 1.5)
            lhs = f_value(inst, y)
            rhs = f_value(inst, x) + float(grad_f(inst, x) @ (y - x))
            assert lhs >= rhs - 1e-9


def test_reference_pure_quadratic():
    inst = with_envelope(make_instance("quad", n=6, cap=10.0, budget=10.0, reg_weight=100.0),
                         [0.0], [0.0])
    x_ref, f_ref = reference_solution(inst, 1e-8)
    assert np.max(np.abs(x_ref - inst.anchor)) < 1e-8
    assert abs(f_ref) < 1e-12


def test_reference_monotone_linear():
    inst = with_envelope(make_instance("lin", n=3, cap=10.0, budget=10.0, reg_weight=0.0),
                         [0.0], [1.0])
    x_ref, f_ref = reference_solution(inst, 1e-8, x_init=np.full(3, 2.0))
    assert np.max(np.abs(x_ref)) < 1e-7
    assert abs(f_ref) < 1e-6
    # small-n grid oracle: no feasible grid point does better
    from conftest import feasible_grid
    grid = feasible_grid(10.0, 10.0, 3, 21)
    vals = grid @ inst.coeffs
    assert f_ref <= vals.min() + 1e-6


def test_reference_self_consistency():
    inst = default_instance("test1", reg_weight=100.0)
    _, f1 = reference_solution(inst, 1e-6)
    _, f2 = reference_solution(inst, 1e-6, x_init=np.full(100, 0.05))
    assert abs(f1 - f2) < 1e-7


def test_reference_gap_is_the_box_minimum():
    # with phi = 0 and lambda = 1, grad_f(0) = -anchor = g exactly, so the gap
    # at x = 0 is -min g'y over the box, which a linear function attains at a
    # vertex; budgets below cap, between cap and n cap, and above n cap
    rng = rng_from_seed(31)
    for n in range(1, 7):
        for cap in (0.7, 1.0, 2.5):
            for budget in (0.4 * cap, cap * (1.0 + 0.55 * (n - 1)), 1.5 * n * cap):
                verts = capped_box_vertices(cap, budget, n)
                inst = with_envelope(make_instance("box", n=n, cap=cap, budget=budget,
                                                   reg_weight=1.0), [0.0], [0.0])
                for _ in range(5):
                    g = rng.standard_normal(n)
                    inst = dataclasses.replace(inst, anchor=-g)
                    assert np.array_equal(grad_f(inst, np.zeros(n)), g)
                    gap = reference_gap(inst, np.zeros(n))
                    assert gap == pytest.approx(-np.min(verts @ g), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("reg", [0.0, 100.0])
@pytest.mark.parametrize("label", INSTANCE_LABELS)
def test_reference_is_certified_to_tol(label, reg):
    # from x0 and from the warm start budget/n, the returned point's
    # Frank-Wolfe gap, a bound on f(x_ref) - f*, is at most tol
    inst = default_instance(label, reg_weight=reg)
    for x_init in (None, np.full(100, inst.feasible_set.budget / 100)):
        x_ref, f_ref = reference_solution(inst, 1e-6, x_init=x_init)
        assert inst.feasible_set.contains(x_ref) and f_ref == f_value(inst, x_ref)
        assert reference_gap(inst, x_ref) <= 1e-6


def test_reference_floor_is_below_f_on_the_box():
    # f_lower = f_ref - gap <= f* <= f(y) at 10^4 feasible y per box: projected
    # uniforms scaled by cap 10^-3u, so some points are inside the budget and
    # some on it (test1 and test3 share one box, test2 and test4 the other)
    rng = rng_from_seed(32)
    for labels in (("test1", "test3"), ("test2", "test4")):
        set_ = default_instance(labels[0], reg_weight=0.0).feasible_set
        scale = set_.cap * 10.0 ** (-3.0 * rng.random((10_000, 1)))
        y = set_.project(scale * rng.random((10_000, 100)))
        assert set_.contains(y) and np.any(y.sum(axis=-1) < set_.budget)
        for label in labels:
            for reg in (0.0, 100.0):
                inst = default_instance(label, reg_weight=reg)
                x_ref, f_ref = reference_solution(inst, 1e-6)
                f_lower = f_ref - reference_gap(inst, x_ref)
                assert np.min(f_value(inst, y)) >= f_lower, (label, reg)


def test_reference_brackets_f_star_on_a_segment():
    # n = 1, cap = 1, budget = 0.5, lambda = 0 at tol 1e-9: f* is the minimum
    # over [0, 0.5], at x* = 0.49, near which f'' = sum_j (d_(j+1) - d_j)
    # pdf(z_j) (b_j/x)^2 / x < 2, so the least of a grid of 2e5 points
    # (h = 2.5e-6) lies within f'' h^2 / 8 < 1e-11 above it: f* is in
    # [grid - 1e-11, grid], and f_lower <= f* <= f_ref
    inst = make_instance("segment", n=1, cap=1.0, budget=0.5, reg_weight=0.0)
    x_ref, f_ref = reference_solution(inst, 1e-9)
    f_lower = f_ref - reference_gap(inst, x_ref)
    grid = float(np.min(f_value(inst, np.linspace(0.0, 0.5, 200_000)[:, None])))
    assert f_lower <= grid - 1e-11 <= f_ref and f_ref - f_lower <= 1e-9


def test_default_instances():
    t1 = default_instance("test1", reg_weight=100.0)
    assert t1.n == 100 and t1.feasible_set.cap == 10.0 and t1.feasible_set.budget == 10.0
    assert np.array_equal(t1.x0, np.zeros(100))
    t3 = default_instance("test3", reg_weight=100.0)
    assert np.array_equal(t3.x0[:10], np.ones(10)) and np.all(t3.x0[10:] == 0.0)
    t4 = default_instance("test4", reg_weight=0.0)
    assert np.array_equal(t4.x0[:10], np.full(10, 10.0))
    assert t4.x0.sum() == t4.feasible_set.budget  # on the budget boundary
    assert t4.feasible_set.contains(t4.x0)
    # coefficients are reproducible across constructions
    t1b = default_instance("test1", reg_weight=100.0)
    assert np.array_equal(t1.coeffs, t1b.coeffs)


def test_estimate_constants_linear():
    inst = with_envelope(make_instance("lin", n=25, cap=1.0, budget=25.0, reg_weight=0.0),
                         [0.0], [1.0])
    c_est, nu_est = estimate_constants(inst, 2000, rng_from_seed(8))
    a_norm = float(np.sqrt(inst.coeffs @ inst.coeffs))
    assert abs(c_est - a_norm) < 1e-9  # gradient is constant = a
    assert abs(nu_est - np.sqrt(25.0)) <= 1e-12 * np.sqrt(25.0)  # E||xi||^2 = n


def test_estimate_constants_zero_envelope():
    inst = with_envelope(make_instance("zero", n=5, cap=1.0, budget=5.0, reg_weight=0.0),
                         [0.0], [0.0])
    c_est, nu_est = estimate_constants(inst, 1000, rng_from_seed(8))
    assert c_est == 0.0 and nu_est == 0.0


def oracle_noise_sq(inst, x):
    """Closed-form E||eps(x)||^2 per row of x, as the constants estimate forms it."""
    mean, cells = _oracle_mean(inst, np.asarray(x, dtype=float))
    return _noise_sq(inst, np.sum(mean * mean, axis=-1), cells)


def per_sample_constants(inst, samples, rng):
    """(C, nu) one sample at a time: the point is rng.random(n); nu^2 is the
    max closed-form noise moment."""
    box, n = inst.feasible_set, inst.n
    c_sq = noise_sq = 0.0
    for _ in range(samples):
        x = box.project(box.cap * rng.random(n))
        g = grad_f(inst, x)
        c_sq = max(c_sq, float(np.sum(g * g)))
        noise_sq = max(noise_sq, float(oracle_noise_sq(inst, x)))
    return float(np.sqrt(c_sq)), float(np.sqrt(noise_sq))


def test_estimate_constants_matches_per_sample_oracle():
    # the chunked estimate takes each sample's point, grad_f and noise moment
    # as one sample alone would, and leaves the stream where the loop does
    inst = default_instance("test1", reg_weight=100.0)
    rng, per_sample = rng_from_seed(3), rng_from_seed(3)
    assert estimate_constants(inst, 1000, rng) == per_sample_constants(inst, 1000, per_sample)
    assert rng.random() == per_sample.random()


@pytest.mark.parametrize("n", [1, 7, 100, 300, 1000])
def test_estimate_constants_equals_loop_over_blocks(n):
    # the estimate as a loop over blocks of one sample; 2,000 is not a
    # multiple of the chunk size 32,768 // n for n = 7, 300 and 1000
    inst = make_instance("inline", n=n, cap=1.0, budget=1.0, reg_weight=2.0)
    want = per_sample_constants(inst, 2000, rng_from_seed(17))
    assert estimate_constants(inst, 2000, rng_from_seed(17)) == want


TEST1_POINTS = [np.eye(100)[0], np.full(100, 0.01), np.r_[np.ones(10), np.zeros(90)]]


def test_noise_moment_against_monte_carlo():
    # E||eps||^2 against the mean of ||oracle - m||^2 over 10^5 seeded oracle
    # draws per point, within 4 standard errors: three test1 points, and a
    # hinge max(0, t) at n = 3, where the E[Z^2] cell terms weigh ~25 errors
    test1 = default_instance("test1", reg_weight=100.0)
    hinge = with_envelope(make_instance("hinge", n=3, cap=1.0, budget=3.0, reg_weight=0.0),
                          [0.0, 0.0], [0.0, 1.0])
    rng = rng_from_seed(23)
    for inst, x in [(test1, x) for x in TEST1_POINTS] + [(hinge, np.array([1.0, 0.0, 0.0]))]:
        want = float(oracle_noise_sq(inst, x))
        g = grad_f(inst, x)
        sq = np.concatenate([
            np.sum((stochastic_subgradient(inst, x, rng.standard_normal((10_000, inst.n)))
                    - g) ** 2, axis=-1) for _ in range(10)])
        stderr = np.std(sq) / np.sqrt(sq.size)
        assert abs(np.mean(sq) - want) <= 4.0 * stderr, (inst.label, want, np.mean(sq), stderr)


def test_oracle_mean_is_grad_f_without_regulariser():
    inst = default_instance("test1", reg_weight=100.0)
    box, rng = inst.feasible_set, rng_from_seed(29)
    x = np.array(TEST1_POINTS + [box.project(box.cap * rng.random(100)) for _ in range(5)])
    mean = _oracle_mean(inst, x)[0]
    g = grad_f(inst, x)
    # the subtraction cancels most of g, so its rounding is relative to ||g||
    err = np.linalg.norm(mean - (g - 100.0 * (x - inst.anchor)), axis=-1)
    assert np.all(err <= 1e-15 * np.linalg.norm(g, axis=-1)), err


def test_noise_moment_at_zero_is_slope_squared_times_n():
    inst = default_instance("test1", reg_weight=100.0)
    x = np.array([np.zeros(100), TEST1_POINTS[1]])
    slope = phi_slope(inst.envelope, 0.0)
    got = oracle_noise_sq(inst, x)
    assert got[0] == slope * slope * 100 and got[1] == oracle_noise_sq(inst, x[1])


def test_estimate_constants_self_consistent():
    inst = default_instance("test1", reg_weight=100.0)
    c1, n1 = estimate_constants(inst, 10_000, rng_from_seed(1))
    c2, n2 = estimate_constants(inst, 10_000, rng_from_seed(2))
    assert abs(c1 - c2) / max(c1, c2) < 0.10
    assert abs(n1 - n2) / max(n1, n2) < 0.10


def test_instance_metadata_roundtrippable():
    inst = default_instance("test2", reg_weight=100.0)
    meta = instance_metadata(inst)
    for key in ("instance", "n", "cap", "budget", "reg_weight", "coeff_seed",
                "piece_intercepts", "piece_slopes", "anchor", "x0"):
        assert key in meta
    slopes = np.array([float(s) for s in meta["piece_slopes"].split(",")])
    assert np.array_equal(slopes, inst.envelope.slopes)
