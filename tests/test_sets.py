import itertools
import math

import numpy as np
import pytest
from conftest import (
    capped_box_vertices,
    feasible_grid,
    grid_argmin_distance,
    kkt_residual_capped_box,
    max_pairwise_sq_distance,
    project_bisection,
)

from ssmd.sets import MAGNITUDES, CappedBox, bregman_diameter_sq


def test_project_examples():
    box = CappedBox(2, 10.0, 10.0)
    assert np.allclose(box.project(np.array([-1.0, 5.0])), [0.0, 5.0], atol=0)
    # tau = 3 and tau = 7 cases, confirmed by the fine-grid oracle below
    assert np.allclose(box.project(np.array([8.0, 8.0])), [5.0, 5.0], atol=1e-12)
    assert np.allclose(box.project(np.array([12.0, 12.0])), [5.0, 5.0], atol=1e-12)


def test_project_examples_against_grid():
    box = CappedBox(2, 10.0, 10.0)
    grid = feasible_grid(10.0, 10.0, 2, 401)
    for x in ([8.0, 8.0], [12.0, 12.0]):
        p = box.project(np.array(x))
        v, _ = grid_argmin_distance(grid, np.array(x))
        assert np.max(np.abs(p - v)) <= 10.0 / 400 + 1e-12


def test_contains_examples():
    box = CappedBox(2, 10.0, 10.0)
    assert box.contains(np.array([5.0, 5.0]))
    assert not box.contains(np.array([5.0, 5.0000001]))
    # exact: one ulp below 0, over the cap or over the budget is outside
    wide = CappedBox(2, 10.0, 20.0)
    assert not wide.contains(np.array([-5e-324, 1.0]))
    assert not wide.contains(np.array([0.0, np.nextafter(10.0, np.inf)]))
    assert not box.contains(np.array([5.0, 5.0 + 2.0 ** -49]))  # sums to 10 + ulp(10)


def test_project_dimension_mismatch():
    with pytest.raises(ValueError):
        CappedBox(3, 1.0, 1.0).project(np.array([0.5, 0.5]))


def test_projection_against_grid_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(2, 7))
        cap = 0.5 + 2 * rng.random()
        budget = cap * (0.3 + rng.random() * (n - 0.3))
        box = CappedBox(n, cap, budget)
        x = rng.random(n) * 2.4 * cap - 0.6 * cap
        p = box.project(x)
        assert box.contains(p)
        pts = {2: 101, 3: 33, 4: 18, 5: 14, 6: 10}[n]
        grid = feasible_grid(cap, budget, n, pts)
        v, dv = grid_argmin_distance(grid, x)
        dp = float(np.sqrt(np.sum((p - x) ** 2)))
        # no feasible grid point may beat the projection ...
        assert dp <= dv + 1e-9
        # ... and the grid argmin sits within provable grid resolution of it
        h = cap / (pts - 1)
        assert np.sum((v - p) ** 2) <= 2 * dp * h * np.sqrt(n) + n * h * h + 1e-9


def test_projection_kkt(rng):
    for _ in range(500):
        n = int(rng.integers(2, 7))
        cap = 0.5 + 2 * rng.random()
        budget = cap * (0.3 + rng.random() * (n - 0.3))
        box = CappedBox(n, cap, budget)
        x = rng.random(n) * 3 * cap - cap
        p = box.project(x)
        assert kkt_residual_capped_box(cap, budget, x, p) < 1e-10


def test_projection_idempotent_nonexpansive(rng):
    box = CappedBox(5, 2.0, 4.0)
    for _ in range(300):
        x = rng.standard_normal(5) * 3
        y = rng.standard_normal(5) * 3
        px, py = box.project(x), box.project(y)
        assert np.array_equal(box.project(px), px)
        assert np.sqrt(np.sum((px - py) ** 2)) <= np.sqrt(np.sum((x - y) ** 2)) + 1e-12
        assert box.contains(px)


def test_projection_matches_bisection(rng):
    for _ in range(300):
        n = int(rng.integers(1, 8))
        cap = 0.2 + rng.random() * 3
        budget = cap * (0.2 + rng.random() * n)
        box = CappedBox(n, cap, budget)
        x = rng.standard_normal(n) * 2 * cap
        assert np.max(np.abs(box.project(x) - project_bisection(box, x, 1e-14))) < 1e-10


def kkt_residual_any_scale(cap, budget, x, p):
    """Max KKT violation of p as the projection of x onto the capped box,
    measured against a component of x near the threshold tau: with
    x_j - p_j = tau, x_i - tau = (x_i - x_j) + p_j, and x_i - x_j is exact
    wherever it is small, however large x itself is."""
    res = max(-float(p.min()), float(p.max()) - cap, float(p.sum()) - budget, 0.0)
    tol = 1e-9 * cap
    if p.sum() < budget * (1.0 - 1e-12):  # budget slack: tau = 0
        return max(res, float(np.max(np.abs(np.clip(x, 0.0, cap) - p))))
    inner = np.flatnonzero((p > tol) & (p < cap - tol))
    if inner.size:
        j = inner[0]
        res = max(res, p[j] - x[j])  # tau >= 0
        return max(res, float(np.max(np.abs(np.clip((x - x[j]) + p[j], 0.0, cap) - p))))
    # every component at 0 or cap: some tau >= 0 must separate them
    capped, zero = x[p >= cap - tol], x[p <= tol]
    if capped.size:
        res = max(res, cap - float(capped.min()))
        if zero.size:
            res = max(res, cap - (float(capped.min()) - float(zero.max())))
    return res


def test_projection_huge_component_regression():
    # one component 1.5e19 used to cancel the others in a tail cumsum: the
    # threshold came out 0 and the result summed to 74.4 > budget
    box = CappedBox(9, 9.840435159562496, 6.2653341663840205)
    x = np.array([11.248204482103883, 6.334669745461344, 11.696341825012299,
                  6.6503870085824905, 7.707402763900083, 17.52137407024935,
                  4.470659140334952, 12.264865379111784, 1.4561990328251615e+19])
    p = box.project(x)
    assert box.contains(p)
    assert np.array_equal(p[:8], np.zeros(8))
    assert abs(p[8] - box.budget) <= 1e-15 * box.budget
    assert kkt_residual_any_scale(box.cap, box.budget, x, p) < 1e-12
    # finite components more than a max float apart, far beyond any point the
    # program projects: their shift overflows to -inf with numpy's warning, and
    # the clip makes it exact, alone and in a stack
    x = np.array([1.7e308, 1e308, -1.7e308])
    for point in (x, np.stack([x, x])):
        with pytest.warns(RuntimeWarning):
            p = CappedBox(3, 1.0, 1.0).project(point)
        assert np.array_equal(p, np.broadcast_to([1.0, 0.0, 0.0], point.shape))


def test_projection_kkt_any_magnitude(rng):
    for _ in range(3000):
        n = int(rng.integers(1, 13))
        cap = 10.0 ** rng.uniform(-3, 3)
        budget = cap * rng.uniform(0.2, n + 0.5)
        box = CappedBox(n, cap, budget)
        x = np.sign(rng.standard_normal(n)) * 10.0 ** rng.uniform(-3, 300, n)
        if rng.random() < 0.5:
            # a cluster around one large value, resolved only in differences
            near = rng.random(n) < 0.5
            x[near] = 10.0 ** rng.uniform(0, 300) + cap * rng.uniform(-3, 3, near.sum())
        p = box.project(x)
        assert box.contains(p), (cap, budget, x)
        assert kkt_residual_any_scale(cap, budget, x, p) < 1e-9 * max(cap, budget), \
            (cap, budget, x)
    # caps at both ends of the accepted range, where the threshold's
    # interpolation is of order n cap^2
    for cap in MAGNITUDES:
        for n in (50, 1000):
            for budget in (cap, float(np.clip(cap * rng.uniform(0.2, 3.0), *MAGNITUDES))):
                box = CappedBox(n, cap, budget)
                stack = cap * rng.uniform(-1.0, 3.0, (4, n))
                for x, p in zip(stack, box.project(stack)):
                    for p in (p, box.project(x)):
                        assert box.contains(p), (cap, budget)
                        assert kkt_residual_any_scale(cap, budget, x, p) < 1e-9 * cap, \
                            (cap, budget)


def test_diameter_formula_examples():
    assert bregman_diameter_sq(CappedBox(100, 10.0, 10.0)) == 100.0
    assert bregman_diameter_sq(CappedBox(100, 10.0, 100.0)) == 1000.0
    assert abs(bregman_diameter_sq(CappedBox(2, 10.0, 1e-4)) - 1e-8) < 1e-22
    # budget far above n cap: q is clamped at n, every point of the box fits
    assert bregman_diameter_sq(CappedBox(3, 1e-10, 2.0 ** 60)) == 1.5 * 1e-10**2


def test_diameter_against_vertex_enumeration():
    # the grid includes n < 2(floor(budget/cap) + 1), where the two farthest
    # vertices cannot both fill the budget
    grid = itertools.product(range(1, 7), (0.7, 1.0, 2.5), (0.3, 0.7, 1.0, 2.1, 2.5, 3.5, 20.0))
    for n, cap, budget in [(4, 1.0, 1.0), (4, 1.0, 1.5), (5, 2.0, 3.0),
                           (6, 1.0, 2.0), (4, 1.0, 0.7), *grid]:
        box = CappedBox(n, cap, budget)
        want = 0.5 * max_pairwise_sq_distance(capped_box_vertices(cap, budget, n))
        got = bregman_diameter_sq(box)
        assert abs(got - want) < 1e-12, (n, cap, budget)


def test_diameter_preconditions():
    assert bregman_diameter_sq(CappedBox(3, 1.0, 2.0)) == 1.5  # n < 2(q+1)


def budget_tau_per_row(box, x, t0, sort_kinks=np.sort):
    """The threshold search of one row over all its kinks, as it was written
    before rows were searched in stacked windows; with np.unique for
    sort_kinks, as it was written before it kept ties."""
    xs = np.sort(x)
    tail = np.concatenate([(xs[::-1].cumsum())[::-1], [0.0]])

    def h(ts):
        idx = np.searchsorted(xs, ts, side="right")
        above = tail[idx] - ts * (box.n - idx)
        idx_c = np.searchsorted(xs, ts + box.cap, side="right")
        above_c = tail[idx_c] - (ts + box.cap) * (box.n - idx_c)
        return above - above_c

    kinks = sort_kinks(np.concatenate([x, x - box.cap]))
    ts = np.concatenate([[t0], kinks[kinks > t0]])
    vals = h(ts)
    i = int(np.argmax(vals <= box.budget))
    assert vals[i] <= box.budget
    if i == 0:
        return float(ts[0])
    lo, hi = ts[i - 1], ts[i]
    vlo, vhi = vals[i - 1], vals[i]
    if vhi == vlo:
        return float(hi)
    return float(lo + (vlo - box.budget) * (hi - lo) / (vlo - vhi))


def test_budget_tau_with_ties_equals_unique_kinks(rng):
    # rounded inputs make ties among x_i and between x_i and x_j - cap
    checked = 0
    for _ in range(2000):
        n = int(rng.choice([2, 3, 7, 20, 100]))
        cap = float(rng.choice([0.5, 1.0, 2.0]))
        budget = cap * float(rng.uniform(0.3, n))
        box = CappedBox(n, cap, budget)
        x = np.round(rng.uniform(-1.0, 3.0, n) * cap, int(rng.integers(0, 3)))
        if np.clip(x, 0.0, cap).sum() <= budget:
            continue
        q = min(int(budget // cap), n - 1)
        r = np.partition(x, n - 1 - q)[n - 1 - q]
        s = np.clip(x - r, -cap, cap)
        t0 = max(-cap, -r)
        got = box._tau(s[None], np.sort(s)[None], np.array([t0]))
        assert isinstance(got, np.ndarray) and got.shape == (1,)
        assert float(got[0]) == budget_tau_per_row(box, s, t0, np.unique)
        checked += 1
    assert checked > 500


def window_search_cases(rng, n):
    """(box, stack) pairs: sampled corners as the constants estimate draws
    them, engine-like rows with hundreds of components active, ties,
    magnitudes up to 1e300, and near-ties that only the rounding bound E
    resolves (with budget = q cap, h is flat at budget); every row binds."""
    cases = []
    for cap, budget in ((1.0, 1.0), (10.0, 10.0), (1.0, 0.3 * n + 0.5),
                        (0.5, 0.5 * max(1, n // 3))):
        box = CappedBox(n, cap, budget)
        corners = cap * rng.random((40, n))
        spread = np.where(rng.random((40, n)) < 0.6, rng.uniform(0.0, 3.0 * budget / n, (40, n)),
                          -rng.random((40, n)))
        ties = np.round(rng.uniform(-1.0, 3.0, (40, n)) * cap, int(rng.integers(0, 3)))
        huge = np.sign(rng.standard_normal((40, n))) * 10.0 ** rng.uniform(-3, 300, (40, n))
        for stack in (corners, spread, ties, huge, np.concatenate([corners[:3], spread[:1]]),
                      cluster_rows(rng, 24, n, cap, budget)):
            stack = stack[np.clip(stack, 0.0, cap).sum(axis=-1) > budget]
            if len(stack):
                cases.append((box, stack))
    return cases


def shifted_rows(box, stack):
    """project's s, its sorted window (the top max(64, q) + 1 values) and t0."""
    n, cap = box.n, box.cap
    q = min(int(box.budget // cap), n - 1)
    r = np.partition(stack, n - 1 - q, axis=-1)[:, n - 1 - q, None]
    s = np.clip(stack - r, -cap, cap)
    window = np.sort(s, axis=-1)[:, max(n - 1 - max(64, q), 0):]
    return s, window, np.maximum(-cap, -r[:, 0])


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1000])
def test_stacked_window_search_equals_per_row_search(rng, monkeypatch, n):
    # each row's tau, searched in its window (falling back to its full sort)
    # or in its full sort, equals the reference search over all its kinks
    calls, fallback = [], 0
    search = CappedBox._tau

    def spy(box, s, xs, t0):
        calls.append(xs.shape[1])
        return search(box, s, xs, t0)

    monkeypatch.setattr(CappedBox, "_tau", spy)
    for box, stack in window_search_cases(rng, n):
        s, window, t0 = shifted_rows(box, stack)
        want = [budget_tau_per_row(box, row, t) for row, t in zip(s, t0)]
        for xs in (window, np.sort(s, axis=-1)):
            calls.clear()
            got = box._tau(s, xs, t0)
            fallback += len(calls) > 1
            assert got.shape == (len(s),)
            assert [float(v) for v in got] == want
            assert np.array_equal(box._tau(s[:1], xs[:1], t0[:1]), got[:1])
    if n == 1000:
        # rows with hundreds of components active fall back to their full sort
        assert fallback


def random_rows(rng, m, n, cap, budget):
    """m rows mixing slack, binding, tied and huge-magnitude points, runs the
    search clips to -cap and cap, and rows whose q = floor(budget/cap) largest
    components dominate (h is flat at budget when budget = q cap)."""
    rows = rng.uniform(-0.5, 1.5, (m, n)) * cap
    rows[::4] = rng.uniform(-0.5, 1.0, (len(rows[::4]), n)) * min(cap, budget) / n  # slack
    rows[1::4] = np.round(rows[1::4] * 2.0) / 2.0 * 3.0        # ties, binding
    rows[2::4] = np.sign(rng.standard_normal((len(rows[2::4]), n))) \
        * 10.0 ** rng.uniform(-3, 300, (len(rows[2::4]), n))   # up to 1e300
    rows[3::8] = cap * rng.choice([-5.0, 0.25, 0.5, 5.0], (len(rows[3::8]), n))  # clipped
    for row in rows[7::8]:
        row[:] = rng.uniform(-1.0, 0.5, n) * cap
        row[rng.permutation(n)[:int(budget // cap)]] = cap * rng.choice([1.5, 2.0])
    return rows


def cluster_rows(rng, m, n, cap, budget):
    """m rows like random_rows' dominant ones, with most other components within
    a few ulps of one value: there computed h is not monotone, and a search
    that trusts it without the rounding bound E stops at a different kink."""
    rows = rng.uniform(-1.0, 0.1, (m, n)) * cap
    for row in rows:
        near = int(rng.integers(1, n + 1))
        row[:near] = cap * (rng.uniform(0.2, 0.8) + 4e-16 * rng.standard_normal(near))
        row[rng.permutation(n)[:int(budget // cap)]] = cap * rng.choice([1.0, 2.0])
    return rows


@pytest.mark.parametrize("n", [1, 2, 3, 100, 1000])
def test_stacked_project_equals_rows(rng, n):
    # a stack's binding rows are searched in their windows first, a lone
    # binding row in its full sort: the results agree row by row, bit for bit
    k = max(1, n // 3)
    for cap, budget in ((1.0, 0.7), (1.0, 1.0), (2.5, 0.3 * n + 1.0), (0.5, 0.5 * k)):
        box = CappedBox(n, cap, budget)
        stack = random_rows(rng, 13, n, cap, budget)
        binding = np.clip(stack, 0.0, cap).sum(axis=-1) > budget
        assert (binding.any() or budget >= n * cap) and not binding.all()
        # the stack, one binding row among the slack ones, and near-ties
        for rows in (stack, np.concatenate([stack[~binding], stack[binding][:1]]),
                     cluster_rows(rng, 24, n, cap, budget)):
            got = box.project(rows)
            assert got.shape == rows.shape
            for row, p in zip(rows, got):
                assert np.array_equal(p, box.project(row))
            assert box.contains(got)
        assert box.contains(stack[:1] * 0.0) and not box.contains(stack)
        assert np.array_equal(box.project(stack[3:4]), box.project(stack[3])[None])


def partial_sort_cases(rng):
    """(box, stack) pairs for the stacked search on one partition's window, at
    n = 1000: engine-like rows the window does not hold, q = 100 >= 64, ties
    at L (the smallest value in the window), a stack of four rows, and slack
    rows among binding ones."""
    n = 1000
    unit, wide = CappedBox(n, 1.0, 1.0), CappedBox(n, 1.0, 100.0)
    spread = np.where(rng.random((12, n)) < 0.6, rng.uniform(0.0, 0.01, (12, n)),
                      -rng.random((12, n)))
    ties = rng.uniform(-1.0, 0.0, (12, n))
    ties[:, :64] = rng.uniform(0.2, 2.0, (12, 64))
    ties[:, 64:300] = np.round(rng.uniform(0.0, 0.2, (12, 1)), 1)
    slack = rng.uniform(0.0, 1.0 / n, (12, n))
    return [(unit, spread), (unit, ties), (unit, unit.cap * rng.random((32, n))),
            (wide, rng.uniform(-0.5, 1.5, (12, n))), (wide, ties + 0.05),
            (unit, spread[:4]), (unit, np.concatenate([slack[:5], spread[:2], ties[:3]])),
            (wide, np.concatenate([slack[:1], rng.uniform(-0.5, 1.5, (3, n))]))]


def test_partial_sort_project_equals_full_sort_and_rows(rng, monkeypatch):
    # the stacked search takes its window from one partition; its tau equals
    # the search on the rows sorted in full and the reference search, and each
    # projected row equals the row projected alone, bit for bit
    calls, search = [], CappedBox._tau

    def spy(box, s, xs, t0):
        calls.append((s, xs, t0))
        return search(box, s, xs, t0)

    monkeypatch.setattr(CappedBox, "_tau", spy)
    seen = set()
    for box, stack in partial_sort_cases(rng):
        n, q = box.n, int(box.budget // box.cap)
        calls.clear()
        got = box.project(stack)
        s, xs, t0 = calls[0]
        assert xs.shape[1] == max(64, q) + 1
        assert np.sort(s, axis=-1)[:, n - xs.shape[1]:].tobytes() == xs.tobytes()
        tau = search(box, s, xs, t0)
        assert tau.tobytes() == search(box, s, np.sort(s, axis=-1), t0).tobytes()
        assert [float(v) for v in tau] == [budget_tau_per_row(box, row, t)
                                           for row, t in zip(s, t0)]
        for row, p in zip(stack, got):
            assert p.tobytes() == box.project(row).tobytes()
        assert box.contains(got)
        seen.update({("fallback", len(calls) > 1), ("q >= 64", q >= 64),
                     ("slack", len(s) < len(stack))})
    assert {("fallback", True), ("q >= 64", True), ("slack", True)} <= seen


def nudge_passes(box, s, tau):
    """Per row, the ulp-doubling steps up from tau until clip(s - tau, 0, cap)
    sums to at most the budget: the passes of project's nudge loop."""
    passes = []
    for row, t in zip(s, tau.tolist()):
        k, step = 0, np.spacing(box.cap)
        while np.clip(row - t, 0.0, box.cap).sum() > box.budget:
            k, t, step = k + 1, t + step, 2.0 * step
        passes.append(k)
    return passes


def test_nudge_reclips_rows_as_if_alone(rng, monkeypatch):
    # the rows of an n = 1000 stack leave the search with their first clip
    # within budget or a hair over it; the nudge passes re-clip only the rows
    # still over budget, and each row equals the row projected alone, bit for bit
    box, calls, search = CappedBox(1000, 1.0, 1.0), [], CappedBox._tau

    def spy(box, s, xs, t0):
        tau = search(box, s, xs, t0)
        calls.append((s, tau.copy()))
        return tau

    monkeypatch.setattr(CappedBox, "_tau", spy)
    stack = np.where(rng.random((32, 1000)) < 0.6, rng.uniform(0.0, 0.01, (32, 1000)),
                     -rng.random((32, 1000)))
    stack[::8] = rng.uniform(0.0, 1e-3, (4, 1000))  # slack rows
    got = box.project(stack)
    s, tau = calls[-1]  # the outer search, over every binding row
    passes = nudge_passes(box, s, tau)
    assert len(passes) == 28 and {0, 1} <= set(passes)
    for row, p in zip(stack, got):
        assert p.tobytes() == box.project(row).tobytes()
    assert box.contains(got)


def over_budget_rows(box, m, rng):
    """m points of [0, cap]^n whose sums exceed box.budget by 1 to 5 ulps."""
    rows = []
    while len(rows) < m:
        x = rng.random(box.n) * box.cap
        x *= box.budget / x.sum()
        if x.max() > box.cap:
            continue
        want = int(rng.integers(1, 6))
        for _ in range(200):
            if (x.sum() - box.budget) / np.spacing(box.budget) >= want:
                break
            i = rng.integers(box.n)
            x[i] = np.nextafter(x[i], np.inf)
        if 1 <= (x.sum() - box.budget) / np.spacing(box.budget) <= 5:
            rows.append(x)
    return np.array(rows)


def test_rows_a_few_ulps_over_budget_cross_at_t0():
    # _tau's crossing-at-t0 branch (h(t0) <= budget, so tau = t0) runs only
    # for rows whose clipped sum is a few ulps over budget; a line trace showed
    # that on each box one of these seeds reaches it, alone and stacked
    boxes = [CappedBox(5, 1.0, 2.5), CappedBox(8, 2.0, 3.0), CappedBox(100, 10.0, 10.0),
             CappedBox(3, 1.0, 1.7), CappedBox(50, 1.0, 7.3)]
    for seed in (0, 2):
        rng = np.random.default_rng(seed)
        for box in boxes:
            rows = over_budget_rows(box, 8, rng)
            stacked = box.project(rows)
            assert box.contains(stacked)
            for x, got in zip(rows, stacked):
                p = box.project(x)
                assert p.tobytes() == got.tobytes()
                assert box.contains(p) and box.project(p).tobytes() == p.tobytes()
                assert kkt_residual_capped_box(box.cap, box.budget, x, p) <= 1e-8
            assert box.project(stacked).tobytes() == stacked.tobytes()


def test_stacked_project_rejects_non_finite():
    box = CappedBox(3, 1.0, 1.0)
    stack = np.zeros((4, 3))
    stack[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        box.project(stack)
    stack[2, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        box.project(stack)
    with pytest.raises(ValueError):
        box.project(np.zeros((2, 2, 3)))


@pytest.mark.parametrize("cap, budget", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan),
                                         (1.0, np.inf)])
def test_non_finite_cap_or_budget_is_rejected(cap, budget):
    for n in (1, 2):
        with pytest.raises(ValueError, match=r"must be in \[2\^-60, 2\^60\], got (nan|inf)"):
            CappedBox(n, cap, budget)


@pytest.mark.parametrize("n, cap", [(50, 1e-310), (1, 5e-324), (50, 1e307), (1, 1e308),
                                    (1, math.nextafter(MAGNITUDES[0], 0.0)),
                                    (1000, math.nextafter(MAGNITUDES[1], math.inf))])
def test_cap_outside_the_search_range_is_rejected(n, cap):
    # a cap outside the accepted range MAGNITUDES, which is the search's range,
    # whatever n is; the ends themselves are accepted
    with pytest.raises(ValueError, match="cap must be in"):
        CappedBox(n, cap, 1.0)
    for end in MAGNITUDES:
        CappedBox(n, end, end)
