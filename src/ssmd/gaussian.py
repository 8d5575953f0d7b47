"""Standard-normal primitives and the reproducible sampling contract.

The CDF goes through the complementary error function of the platform libm
(``math.erfc``, applied elementwise), which is accurate to a few ulp in
double precision; the quantile function is Wichura's rational approximation
AS 241 (PPND16), accurate to about 1e-15 relative over the full range.

Normal variates are produced by inverse-CDF transform of uniforms drawn
from a Philox counter-based generator.  This makes every normal stream a
pure function of its 64-bit seed: no rejection steps, no state that
depends on how many variates earlier callers consumed from other streams.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = 1.0 / float(np.sqrt(2.0 * np.pi))

# 2**53; uniforms are midpoints of the 2**53 dyadic cells of (0, 1), so the
# inverse CDF never sees 0 or 1 exactly.
_CELLS = 9007199254740992


def erfc(x):
    """Complementary error function, elementwise, from libm's ``math.erfc``."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)


def norm_pdf(x):
    """Standard normal density, elementwise."""
    x = np.asarray(x, dtype=float)
    # x*x may overflow to inf for |x| > ~1e154; exp(-inf) = 0 is the right limit
    with np.errstate(over="ignore"):
        return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def norm_cdf(x):
    """Standard normal CDF via erfc; absolute error below 1e-15."""
    x = np.asarray(x, dtype=float)
    return 0.5 * erfc(-x / _SQRT2)


def norm_cells(z):
    """Mass P(z_{j-1} < Z <= z_j) and pdf(z_{j-1}) - pdf(z_j) of the cells cut
    by sorted points z (last axis), outer ends -inf and +inf.  erfc and the pdf
    are evaluated once per point; the ends take the exact limits, so each mass
    equals 0.5 * (erfc(lo / sqrt 2) - erfc(hi / sqrt 2)) at the cell's ends
    (lo, hi), bit for bit."""
    z = np.asarray(z, dtype=float)
    pad = np.zeros(z.shape[:-1] + (1,))
    e = np.concatenate([pad + 2.0, erfc(z / _SQRT2), pad], axis=-1)
    p = np.concatenate([pad, norm_pdf(z), pad], axis=-1)
    return 0.5 * (e[..., :-1] - e[..., 1:]), p[..., :-1] - p[..., 1:]


# AS 241 (PPND16) rational-function coefficients.
_A = (3.3871328727963666080e0, 1.3314166789178437745e2,
      1.9715909503065514427e3, 1.3731693765509461125e4,
      4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
      5.3941960214247511077e3, 2.1213794301586595867e4,
      3.9307895800092710610e4, 2.8729085735721942674e4,
      5.2264952788528545610e3)
_C = (1.42343711074968357734e0, 4.63033784615654529590e0,
      5.76949722146069140550e0, 3.64784832476320460504e0,
      1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
      6.89767334985100004550e-1, 1.48103976427480074590e-1,
      1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)
_E = (6.65790464350110377720e0, 5.46378491116411436990e0,
      1.78482653991729133580e0, 2.96560571828504891230e-1,
      2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
      1.48753612908506148525e-2, 7.86869131145613259100e-4,
      1.84631831751005468180e-5, 1.42151175831644588870e-7,
      2.04426310338993978564e-15)


def _poly(coeffs, r):
    # Horner in place: out * r, then + c, as the out * r + c expression
    out = np.full_like(r, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        out *= r
        out += c
    return out


def norm_ppf(p):
    """Standard normal quantile function (AS 241, PPND16).

    Requires 0 < p < 1 elementwise; values outside give nan.
    """
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    bad = ~((p > 0.0) & (p < 1.0))
    q = np.where(bad, 0.0, p - 0.5)
    # the central branch on every element, then the tails overwritten
    r = 0.180625 - q * q
    out = q * _poly(_A, r) / _poly(_B, r)
    tail = np.abs(q) > 0.425
    if tail.any():
        qt = q[tail]
        r = np.sqrt(-np.log(np.where(qt < 0.0, p[tail], 1.0 - p[tail])))
        near = r <= 5.0
        if near.all():
            r -= 1.6
            val = _poly(_C, r) / _poly(_D, r)
        else:
            val = np.empty_like(r)
            rn = r[near] - 1.6
            val[near] = _poly(_C, rn) / _poly(_D, rn)
            rf = r[~near] - 5.0
            val[~near] = _poly(_E, rf) / _poly(_F, rf)
        out[tail] = np.where(qt < 0.0, -val, val)
    out[bad] = np.nan
    return float(out[0]) if scalar else out


def rng_from_seed(seed: int) -> np.random.Generator:
    """Philox generator keyed by a 64-bit seed (wraps modulo 2**64)."""
    return np.random.Generator(np.random.Philox(key=int(seed) % (1 << 64)))


def uniform_open(rng: np.random.Generator, size) -> np.ndarray:
    """Uniforms strictly inside (0, 1): midpoints of 2**53 dyadic cells."""
    return (rng.integers(0, _CELLS, size=size, dtype=np.int64) + 0.5) / _CELLS


def uniform_pairs(rng: np.random.Generator, rows: int, n: int):
    """`rows` successive pairs (rng.random(n), uniform_open(rng, n)) in one draw,
    bit for bit: 2**53-cell indices scaled to the cell's lower end or midpoint."""
    cells = rng.integers(0, _CELLS, size=(rows, 2, n), dtype=np.int64)
    return cells[:, 0] / _CELLS, (cells[:, 1] + 0.5) / _CELLS


def standard_normals(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normal variates by inverse CDF of :func:`uniform_open` draws."""
    return norm_ppf(uniform_open(rng, size))
