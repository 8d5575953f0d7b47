import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import norm_cdf_interval
from scipy.integrate import quad

import ssmd
from ssmd import gaussian
from ssmd.gaussian import (
    erfc,
    norm_cdf,
    norm_pdf,
    norm_ppf,
    rng_from_seed,
    standard_normals,
    uniform_open,
)


def test_cdf_against_quadrature():
    # integrate the density from far left; checks the erfc route end to end
    for x in (-3.0, -1.0, -0.3, 0.0, 0.7, 2.5):
        val, _ = quad(lambda t: norm_pdf(t), -40.0, x, limit=200)
        assert abs(norm_cdf(x) - val) < 1e-12


def test_cdf_symmetry_and_range():
    x = np.linspace(-8, 8, 2001)
    c = norm_cdf(x)
    assert np.all(c >= 0.0) and np.all(c <= 1.0)
    assert np.max(np.abs(c + norm_cdf(-x) - 1.0)) < 1e-15


def test_interval_matches_difference():
    lo = np.array([-np.inf, -2.0, 0.5])
    hi = np.array([1.0, -1.0, np.inf])
    got = norm_cdf_interval(lo, hi)
    want = norm_cdf(hi) - norm_cdf(lo)
    assert np.max(np.abs(got - want)) < 1e-15


def test_erfc_within_4_ulp_of_mpmath():
    mpmath = pytest.importorskip("mpmath")
    x = np.linspace(-8.0, 26.5, 3451)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.erfc(mpmath.mpf(float(v)))) for v in x])
    got = erfc(x)
    assert np.max(np.abs(got - want) / np.spacing(want)) <= 4
    assert erfc(-np.inf) == 2.0 and erfc(np.inf) == 0.0
    assert norm_cdf(-np.inf) == 0.0 and norm_cdf(np.inf) == 1.0


@pytest.mark.parametrize("prefix", ["scipy", "multiprocessing"])
def test_import_cli_loads_no_scipy(prefix):
    # the library needs numpy alone; scipy is a test dependency, and the
    # process pool is imported only by a run with more than one worker
    code = ("import sys, ssmd.cli; "
            f"print([m for m in sys.modules if m.split('.')[0] == {prefix!r}])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(Path(ssmd.__file__).parents[1])),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_ppf_inverts_cdf():
    x = np.linspace(-5, 5, 4001)
    assert np.max(np.abs(norm_ppf(norm_cdf(x)) - x)) < 1e-9
    p = np.linspace(1e-10, 1 - 1e-10, 9999)
    assert np.max(np.abs(norm_cdf(norm_ppf(p)) - p)) < 1e-13


def test_ppf_known_values():
    assert abs(norm_ppf(0.5)) < 1e-16
    assert abs(norm_ppf(0.975) - 1.959963984540054) < 1e-12
    assert abs(norm_ppf(0.1586552539314571) + 1.0) < 1e-12  # Phi(-1)


def test_uniform_open_strictly_inside():
    rng = rng_from_seed(7)
    u = uniform_open(rng, 100000)
    assert u.min() > 0.0 and u.max() < 1.0


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
    for p in (u, edges, u[np.abs(u - 0.5) <= 0.425], u[np.abs(u - 0.5) > 0.425]):
        with np.errstate(invalid="ignore"):  # the old formula: p = 0 and 1 give inf / inf
            want = norm_ppf_with_temporaries(p)
        assert np.array_equal(norm_ppf(p), want, equal_nan=True)
    assert np.isnan(norm_ppf(edges[-2:])).all()
    assert norm_ppf(0.3) == norm_ppf_with_temporaries(0.3)[0]


def test_ppf_outside_unit_interval_is_nan_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = norm_ppf(np.array([0.0, 0.5, 1.0]))
        assert np.array_equal(got, [np.nan, 0.0, np.nan], equal_nan=True)
        assert np.isnan(norm_ppf([-1.0, 2.0, np.nan, np.inf, -np.inf, 1e300])).all()
        assert np.isnan(norm_ppf(0.0)) and np.isnan(norm_ppf(1.0))
