"""Standard-normal primitives and the reproducible sampling contract.

The CDF goes through the complementary error function of the platform libm
(``math.erfc``, applied elementwise), which is accurate to a few ulp in
double precision; the quantile function is Wichura's rational approximation
AS 241 (PPND16), accurate to about 1e-15 relative over the full range.  Its
central branch runs in place over cache-sized blocks and its tails in one
pass over the rest, with the values of the plain expressions bit for bit.

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


# Values per block of norm_ppf's central pass: its work buffers, 4 of 64 KiB,
# stay in the L2 cache while about 35 in-place passes run over them.
_BLOCK = 8192


def _poly(coeffs, r, out=None):
    # Horner in place, each step out * r + c as in the expression
    out = np.multiply(r, coeffs[-1], out=out)
    for c in coeffs[-2:0:-1]:
        out += c
        out *= r
    out += coeffs[0]
    return out


def norm_ppf(p):
    """Standard normal quantile function (AS 241, PPND16).

    Defined for 0 < p < 1 elementwise; p outside (0, 1) gives nan with a
    RuntimeWarning, and nan gives nan.  The central branch runs over blocks
    of _BLOCK values in place and the tails in one pass over the rest; every
    value is the same as that of the plain expressions, bit for bit.
    """
    p = np.asarray(p, dtype=float)
    flat = p.ravel()
    out = np.empty(flat.shape)
    central = np.empty(flat.shape, dtype=bool)
    q, r, num, den = (np.empty(min(flat.size, _BLOCK)) for _ in range(4))
    for start in range(0, flat.size, _BLOCK):
        stop = min(start + _BLOCK, flat.size)
        k = stop - start
        qk, rk, num_k, den_k = q[:k], r[:k], num[:k], den[:k]
        np.subtract(flat[start:stop], 0.5, out=qk)
        np.abs(qk, out=rk)
        np.less_equal(rk, 0.425, out=central[start:stop])
        np.multiply(qk, qk, out=rk)
        np.subtract(0.180625, rk, out=rk)
        _poly(_A, rk, num_k)
        num_k *= qk
        np.divide(num_k, _poly(_B, rk, den_k), out=out[start:stop])
    tail = np.flatnonzero(~central)
    if tail.size:
        pt = flat[tail]
        lower = pt < 0.5
        r = np.sqrt(-np.log(np.where(lower, pt, 1.0 - pt)))
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
        out[tail] = np.where(lower, -val, val)
    return float(out[0]) if p.ndim == 0 else out.reshape(p.shape)


def rng_from_seed(seed: int) -> np.random.Generator:
    """Philox generator keyed by a 64-bit seed (wraps modulo 2**64)."""
    return np.random.Generator(np.random.Philox(key=int(seed) % (1 << 64)))


def uniform_open(rng: np.random.Generator, size) -> np.ndarray:
    """Uniforms in [2**-54, 1 - 2**-53]: rng.random(), a 2**53-cell index times
    2**-53, plus half a cell.  Below 1/2 that is the cell's midpoint; above, the
    sum rounds to even, and the top cell's 1.0 is clamped to 1 - 2**-53."""
    u = rng.random(size)
    u += 2.0**-54
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    return u


def standard_normals(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normal variates by inverse CDF of :func:`uniform_open` draws."""
    return norm_ppf(uniform_open(rng, size))
