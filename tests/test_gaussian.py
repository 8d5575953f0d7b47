import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import norm_cdf_interval
from scipy import special
from scipy.integrate import quad

import ssmd
from ssmd import gaussian
from ssmd.gaussian import (
    erfc,
    norm_pdf,
    norm_ppf,
    rng_from_seed,
    standard_normals,
    uniform_open,
)


def _cdf(x):
    # the normal CDF as norm_cells forms it from erfc
    return 0.5 * erfc(-np.asarray(x) / np.sqrt(2.0))


def test_cdf_against_quadrature():
    # integrate the density from far left; checks the erfc route end to end
    for x in (-3.0, -1.0, -0.3, 0.0, 0.7, 2.5):
        val, _ = quad(lambda t: norm_pdf(t), -40.0, x, limit=200)
        assert abs(_cdf(x) - val) < 1e-12


def test_cdf_symmetry_and_range():
    x = np.linspace(-8, 8, 2001)
    c = _cdf(x)
    assert np.all(c >= 0.0) and np.all(c <= 1.0)
    assert np.max(np.abs(c + _cdf(-x) - 1.0)) < 1e-15
    assert np.max(np.abs(c - special.ndtr(x))) < 1e-15
    # scipy's erfc agrees with libm's to about 6e-14 relative down to 1e-307
    x = np.linspace(-8.0, 26.5, 3451)
    want = special.erfc(x)
    assert np.max(np.abs(erfc(x) - want) / want) < 1e-13


def test_interval_matches_difference():
    lo = np.array([-np.inf, -2.0, 0.5])
    hi = np.array([1.0, -1.0, np.inf])
    got = norm_cdf_interval(lo, hi)
    want = special.ndtr(hi) - special.ndtr(lo)
    assert np.max(np.abs(got - want)) < 1e-15


def test_erfc_within_4_ulp_of_mpmath():
    mpmath = pytest.importorskip("mpmath")
    x = np.linspace(-8.0, 26.5, 3451)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.erfc(mpmath.mpf(float(v)))) for v in x])
    got = erfc(x)
    assert np.max(np.abs(got - want) / np.spacing(want)) <= 4
    assert erfc(-np.inf) == 2.0 and erfc(np.inf) == 0.0


def _modules_loaded_by(module: str, prefixes: tuple) -> str:
    """The modules under any of prefixes that a fresh `import module` loads."""
    code = (f"import sys, {module}; print(sorted(m for m in sys.modules "
            f"if any(m == p or m.startswith(p + '.') for p in {prefixes!r})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(Path(ssmd.__file__).parents[1])),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("prefix", ["scipy", "multiprocessing"])
def test_import_cli_loads_no_scipy(prefix):
    # the library needs numpy alone; scipy is a test dependency, and the
    # process pool is imported only by a run with more than one worker
    assert _modules_loaded_by("ssmd.cli", (prefix,)) == "[]"


def test_import_package_loads_no_numpy_and_no_submodule():
    # the package root holds only __version__; each name lives in its module
    assert _modules_loaded_by("ssmd", ("numpy", "ssmd")) == "['ssmd']"


def test_ppf_inverts_cdf():
    x = np.linspace(-5, 5, 4001)
    assert np.max(np.abs(norm_ppf(special.ndtr(x)) - x)) < 1e-9
    p = np.linspace(1e-10, 1 - 1e-10, 9999)
    assert np.max(np.abs(special.ndtr(norm_ppf(p)) - p)) < 1e-13


def test_ppf_known_values():
    assert abs(norm_ppf(0.5)) < 1e-16
    assert abs(norm_ppf(0.975) - 1.959963984540054) < 1e-12
    assert abs(norm_ppf(0.1586552539314571) + 1.0) < 1e-12  # Phi(-1)


def test_uniform_open_strictly_inside():
    rng = rng_from_seed(7)
    u = uniform_open(rng, 100000)
    assert u.min() > 0.0 and u.max() < 1.0


def test_uniform_open_equals_cell_midpoints():
    # random() plus half a cell is (2**53-cell index + 0.5) / 2**53 rounded, bit
    # for bit: the cell's midpoint below 1/2, rounded to even above it, and the
    # top cell's 1.0 clamped to the largest double below 1
    cells = rng_from_seed(19).integers(0, 2**53, size=100_000, dtype=np.int64)
    want = np.minimum((cells + 0.5) / 2**53, 1.0 - 2.0**-53)
    assert np.array_equal(uniform_open(rng_from_seed(19), 100_000), want)


class _Cells:
    """A stand-in generator whose random(size) returns the given cells."""

    def __init__(self, values):
        self.values = values

    def random(self, size):
        assert size == len(self.values)
        return np.array(self.values)


def test_uniform_open_top_cell_stays_below_one():
    # random()'s top value 1 - 2**-53 plus half a cell rounds to 1.0, whose
    # quantile is nan: clamped, it stays inside (0, 1) and its quantile finite
    cells = [0.0, 0.5 - 2.0**-53, 0.5, 1.0 - 2.0**-53]
    u = uniform_open(_Cells(cells), len(cells))
    assert np.array_equal(u, [2.0**-54, 0.5 - 2.0**-54, 0.5, 1.0 - 2.0**-53])
    assert np.all((u > 0.0) & (u < 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(norm_ppf(u)).all()


def test_normal_stream_is_pure_function_of_seed():
    z1 = standard_normals(rng_from_seed(123), 5000)
    z2 = standard_normals(rng_from_seed(123), 5000)
    z3 = standard_normals(rng_from_seed(124), 5000)
    assert np.array_equal(z1, z2)
    assert not np.array_equal(z1, z3)


def test_normal_moments():
    z = standard_normals(rng_from_seed(42), 400000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.01
    assert abs(np.mean(np.abs(z)) - np.sqrt(2 / np.pi)) < 0.01


def norm_ppf_with_temporaries(p):
    """AS 241 as it was written before its Horner steps ran in place."""
    def poly(coeffs, r):
        out = np.full_like(r, coeffs[-1])
        for c in reversed(coeffs[:-1]):
            out = out * r + c
        return out

    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = p - 0.5
    out = np.empty_like(p)
    central = np.abs(q) <= 0.425
    if np.any(central):
        r = 0.180625 - q[central] * q[central]
        out[central] = q[central] * poly(gaussian._A, r) / poly(gaussian._B, r)
    tail = ~central
    if np.any(tail):
        pt = np.where(q[tail] < 0.0, p[tail], 1.0 - p[tail])
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.sqrt(-np.log(pt))
        near = r <= 5.0
        val = np.empty_like(r)
        if np.any(near):
            rn = r[near] - 1.6
            val[near] = poly(gaussian._C, rn) / poly(gaussian._D, rn)
        if np.any(~near):
            rf = r[~near] - 5.0
            val[~near] = poly(gaussian._E, rf) / poly(gaussian._F, rf)
        out[tail] = np.where(q[tail] < 0.0, -val, val)
    out[(p <= 0.0) | (p >= 1.0)] = np.nan
    return out


def test_ppf_equals_formula_with_temporaries():
    u = uniform_open(rng_from_seed(31), 100_000)
    edges = np.array([1e-300, np.nextafter(0.075, 0.0), 0.075, np.nextafter(0.075, 1.0),
                      0.925, 1.0 - 1e-16, 0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (u, edges[:-2], u[np.abs(u - 0.5) <= 0.425], u[np.abs(u - 0.5) > 0.425]):
            assert np.array_equal(norm_ppf(p), norm_ppf_with_temporaries(p))
    with np.errstate(invalid="ignore"):  # the old formula: p = 0 and 1 give inf / inf
        want = norm_ppf_with_temporaries(edges)
    with pytest.warns(RuntimeWarning):  # p = 0 and 1 lie outside (0, 1)
        got = norm_ppf(edges)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got[-2:]).all()
    assert norm_ppf(0.3) == norm_ppf_with_temporaries(0.3)[0]


def test_ppf_outside_unit_interval_is_nan_with_a_warning():
    # nan outside (0, 1), with numpy's RuntimeWarning; nan gives nan without one
    with pytest.warns(RuntimeWarning):
        got = norm_ppf(np.array([0.0, 0.5, 1.0]))
    assert np.array_equal(got, [np.nan, 0.0, np.nan], equal_nan=True)
    with pytest.warns(RuntimeWarning):
        assert np.isnan(norm_ppf([-1.0, 2.0, np.nan, np.inf, -np.inf, 1e300])).all()
    for p in (0.0, 1.0):
        with pytest.warns(RuntimeWarning):
            assert np.isnan(norm_ppf(p))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert norm_ppf(0.5) == 0.0 and np.isnan(norm_ppf(np.nan))


def same_bits(got, want):
    """Equal bit for bit, the sign of a zero included; any nan matches any nan."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return got.shape == want.shape and np.array_equal(np.isnan(got), nan) \
        and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@pytest.mark.parametrize("size", [1, gaussian._BLOCK - 1, gaussian._BLOCK, gaussian._BLOCK + 1,
                                  3 * gaussian._BLOCK + 5])
def test_blocked_ppf_equals_formula_with_temporaries(size):
    # edge values and p outside (0, 1) placed on both sides of every block
    # boundary, in C, strided and Fortran layouts: same bits, a RuntimeWarning
    # from the entries outside (0, 1), and none once they are replaced by 0.5
    block = gaussian._BLOCK
    special = np.array([0.0, 1.0, np.nan, np.inf, -np.inf, 1e300, 5e-324, 0.5,
                        np.nextafter(0.075, 0.0), 0.075, np.nextafter(0.075, 1.0),
                        np.nextafter(0.925, 0.0), 0.925, np.nextafter(0.925, 1.0),
                        1e-300, 1.0 - 1e-16, -1e300, 1.7e308])
    p = uniform_open(rng_from_seed(size), size)
    at = np.concatenate([[0], (np.arange(block, size, block)[:, None] + [-2, -1, 0, 1]).ravel()])
    at = at[at < size]
    p[at] = special[np.arange(at.size) % special.size]
    p[-1] = special[5]

    def check(p):
        with np.errstate(all="ignore"):  # the formula with temporaries overflows and divides inf
            want = norm_ppf_with_temporaries(p)
            strided = norm_ppf_with_temporaries(np.repeat(p, 2)[::2])
            grid = np.asfortranarray(np.resize(p, (7, size)))
            want_grid = norm_ppf_with_temporaries(grid.ravel(order="K")).reshape(grid.shape,
                                                                                 order="F")
        assert same_bits(norm_ppf(p), want)
        assert same_bits(norm_ppf(np.repeat(p, 2)[::2]), strided)
        assert same_bits(norm_ppf(grid), want_grid)
        assert same_bits(norm_ppf(p[::-1]), want[::-1])
        for i in range(min(size, 40)):
            got = norm_ppf(np.array(p[i]))
            assert got.shape == () and same_bits(got, want[i])

    with pytest.warns(RuntimeWarning):
        check(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check(np.where((p > 0.0) & (p < 1.0), p, 0.5))
