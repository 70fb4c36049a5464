"""The scaled complementary error function erfcx and the exponentially
scaled modified Bessel function i0e.

Self-contained double-precision implementation, vectorized over numpy
arrays. erfcx(x) = exp(x^2) erfc(x) uses two regimes, split at |x| = 2:

* |x| < 2: ``exp(x^2) (1 - erf(x))`` with the Maclaurin series of erf, 48
  terms evaluated by Horner's rule. The largest intermediate term at x = 2
  is ~6, so cancellation costs at most a few ulp.
* |x| >= 2: Laplace continued fraction,
  ``sqrt(pi) * exp(x^2) * erfc(x) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(...))))``,
  evaluated backward from a fixed depth of 72, which is converged to double
  precision for every x >= 2.

Both regimes run once, on |x|, their loops in place; a negative entry is
then reflected, ``erfcx(-a) = 2 exp(a^2) - erfcx(a)``. erfcx is accurate to
~1e-13 relative for x >= 0; for x < 0 it grows like ``2 exp(x^2)`` and
overflows to inf near x = -26.6, which is the honest double-precision answer.

i0e(x) = exp(-|x|) I0(x) is the Cephes Chebyshev expansion in two branches,
split at |x| = 8: a 30-term series in ``x/2 - 2`` below, and a 25-term
series in ``32/x - 2`` times ``1/sqrt(x)`` above. One in-place Clenshaw
recurrence runs over both branches at once: the 25-term series is padded
with leading zeros, which changes no bit of its sum. The scaling keeps it
in (0, 1] for every finite x, so it never overflows; relative error is a
few ulp.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT_PI = math.sqrt(math.pi)
_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI
_SPLIT = 2.0
_CF_DEPTH = 72
_SERIES_TERMS = 48

# Coefficients of erf(x) * sqrt(pi) / (2 x) as a polynomial in x^2:
# (-1)^k / (k! (2k + 1)), highest order first for Horner evaluation.
_SERIES_COEF = np.array(
    [(-1.0) ** k / (math.factorial(k) * (2 * k + 1)) for k in range(_SERIES_TERMS)]
)[::-1].copy()


def _erf_series(x: np.ndarray) -> np.ndarray:
    """Maclaurin series of erf, valid to ~1e-15 absolute for |x| <= 2."""
    z = x * x
    acc = np.full_like(z, _SERIES_COEF[0])
    for c in _SERIES_COEF[1:]:
        acc *= z
        acc += c
    return _TWO_OVER_SQRT_PI * x * acc


def _erfcx_cf(x: np.ndarray) -> np.ndarray:
    """Continued fraction for erfcx, valid for x >= 2."""
    t = np.zeros_like(x)
    for n in range(_CF_DEPTH, 0, -1):
        t += x
        np.divide(0.5 * n, t, out=t)
    return 1.0 / (_SQRT_PI * (x + t))


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr), scalar


def erfcx(x):
    """Scaled complementary error function ``exp(x^2) * erfc(x)``, elementwise."""
    arr, scalar = _as_array(x)
    a = np.abs(arr)
    out = np.empty_like(a)
    hi = a >= _SPLIT
    lo = ~hi  # NaN lands here and stays NaN
    if hi.any():
        out[hi] = _erfcx_cf(a[hi])
    if lo.any():
        out[lo] = np.exp(a[lo] * a[lo]) * (1.0 - _erf_series(a[lo]))
    neg = arr < 0.0
    if neg.any():
        # erfcx(-a) = 2 exp(a^2) - erfcx(a); may overflow to inf for a > ~26.6
        with np.errstate(over="ignore"):
            out[neg] = 2.0 * np.exp(a[neg] * a[neg]) - out[neg]
    return float(out[0]) if scalar else out


# Cephes Chebyshev coefficients (highest order first) of exp(-x) I0(x) in
# x/2 - 2 on [0, 8], and of sqrt(x) exp(-x) I0(x) in 32/x - 2 on (8, inf).
_I0E_A = np.array(
    [
        -4.41534164647933937950e-18,
        3.33079451882223809783e-17,
        -2.43127984654795469359e-16,
        1.71539128555513303061e-15,
        -1.16853328779934516808e-14,
        7.67618549860493561688e-14,
        -4.85644678311192946090e-13,
        2.95505266312963983461e-12,
        -1.72682629144155570723e-11,
        9.67580903537323691224e-11,
        -5.18979560163526290666e-10,
        2.65982372468238665035e-9,
        -1.30002500998624804212e-8,
        6.04699502254191894932e-8,
        -2.67079385394061173391e-7,
        1.11738753912010371815e-6,
        -4.41673835845875056359e-6,
        1.64484480707288970893e-5,
        -5.75419501008210370398e-5,
        1.88502885095841655729e-4,
        -5.76375574538582365885e-4,
        1.63947561694133579842e-3,
        -4.32430999505057594430e-3,
        1.05464603945949983183e-2,
        -2.37374148058994688156e-2,
        4.93052842396707084878e-2,
        -9.49010970480476444210e-2,
        1.71620901522208775349e-1,
        -3.04682672343198398683e-1,
        6.76795274409476084995e-1,
    ]
)
_I0E_B = np.array(
    [
        -7.23318048787475395456e-18,
        -4.83050448594418207126e-18,
        4.46562142029675999901e-17,
        3.46122286769746109310e-17,
        -2.82762398051658348494e-16,
        -3.42548561967721913462e-16,
        1.77256013305652638360e-15,
        3.81168066935262242075e-15,
        -9.55484669882830764870e-15,
        -4.15056934728722208663e-14,
        1.54008621752140982691e-14,
        3.85277838274214270114e-13,
        7.18012445138366623367e-13,
        -1.79417853150680611778e-12,
        -1.32158118404477131188e-11,
        -3.14991652796324136454e-11,
        1.18891471078464383424e-11,
        4.94060238822496958910e-10,
        3.39623202570838634515e-9,
        2.26666899049817806459e-8,
        2.04891858946906374183e-7,
        2.89137052083475648297e-6,
        6.88975834691682398426e-5,
        3.36911647825569408990e-3,
        8.04490411014108831608e-1,
    ]
)
_I0E_SPLIT = 8.0
# Both series as the columns of one table, the shorter padded with leading
# zeros: a zero leading coefficient leaves every bit of the Clenshaw sum as it is.
_I0E_COEF = np.stack([_I0E_A, np.concatenate([np.zeros(_I0E_A.size - _I0E_B.size), _I0E_B])], 1)


def i0e(x):
    """Exponentially scaled modified Bessel function ``exp(-|x|) I0(x)``,
    elementwise; even, 1 at 0, decaying like ``1/sqrt(2 pi |x|)``."""
    arr, scalar = _as_array(x)
    ax = np.abs(arr).ravel()
    big = ~(ax <= _I0E_SPLIT)  # NaN lands here and stays NaN
    y = 0.5 * ax - 2.0
    y[big] = 32.0 / ax[big] - 2.0
    coef = _I0E_COEF[:, big.astype(np.intp)]  # each element's own branch
    b0, b1, b2 = coef[0].copy(), np.zeros_like(y), np.zeros_like(y)
    for c in coef[1:]:  # Clenshaw, in place: b0 <- y b1 - b2 + c
        b0, b1, b2 = b2, b0, b1
        np.multiply(y, b1, b0)
        np.subtract(b0, b2, b0)
        np.add(b0, c, b0)
    out = 0.5 * (b0 - b2)
    out[big] /= np.sqrt(ax[big])
    return float(out[0]) if scalar else out.reshape(arr.shape)
