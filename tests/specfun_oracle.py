"""Reference copies of the specfun array loops as they were written before
they updated in place and stopped by a sentinel, and of the per-piece
dispatch, for tests only.

``installed()`` puts them in place of the package's own, so a public
function evaluated inside it runs the reference loops; every value must
equal the package's bit for bit.
"""

import contextlib
import math

import numpy as np
import pytest

from flockdyn import specfun as sf


def _all(cond):
    return cond.all() if isinstance(cond, np.ndarray) else cond


def _max(a, b):
    return np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b)


def _piecewise(x, pieces, width=0):
    if not isinstance(x, np.ndarray):
        for cond, fn in pieces:
            if cond:
                return fn(x)
        return (math.nan,) * width if width else math.nan
    out = np.full((width,) + x.shape if width else x.shape, np.nan)
    for cond, fn in pieces:
        if cond.any():
            out[..., cond] = fn(x[cond])
    return out


def _series_sum(nu, x, sign, dtype):
    xl = x.astype(dtype) if isinstance(x, np.ndarray) else dtype(x)
    half = 0.5 * xl
    with np.errstate(divide="ignore"):
        lead = np.power(half, dtype(nu))
    if nu < 0.0:
        # x/2 rounds to 0 at x = 5e-324, where (x/2)^nu is x^nu 2^-nu
        lead = np.where(half == 0.0, np.power(xl, dtype(nu)) * dtype(2.0**-nu), lead)
    term = lead / dtype(math.gamma(nu + 1.0))
    if not isinstance(term, np.ndarray):
        term = dtype(term)
    total = term
    q = dtype(sign) * 0.25 * xl * xl
    peak = abs(term)
    stop = 1e-25 if dtype is np.longdouble else 1e-18
    for m in range(1, 400):
        term = term * q / (m * (nu + m))
        total = total + term
        size = abs(term)
        peak = _max(peak, size)
        if _all(size <= stop * (peak + 1e-300)):
            break
    else:
        raise ArithmeticError("power series failed to converge")
    return total.astype(np.float64) if isinstance(total, np.ndarray) else float(total)


def _asym_series(nu, x, sign):
    mu4 = 4.0 * nu * nu
    term = total = 1.0
    for k in range(1, 40):
        term = term * (sign * (mu4 - (2 * k - 1) ** 2)) / (8.0 * k * x)
        total = total + term
        if _all(abs(term) <= 1e-18 * abs(total)):
            break
    return total


def _kve01_series(x):
    i0 = sf._power_series(0.0, x, +1.0)
    i1 = sf._power_series(1.0, x, +1.0)
    half = 0.5 * x
    tiny = half == 0.0
    if sf._any(tiny):
        lg = np.log(np.where(tiny, x, half)) - np.where(tiny, sf._LOG_2, 0.0)
    else:
        lg = np.log(half)
    q = 0.25 * x * x
    term = 1.0
    acc0 = 0.0
    term1 = 1.0
    acc1 = sf._K1_COEFF[0]
    for m in range(1, 60):
        term = term * q / (m * m)
        acc0 = acc0 + sf._HARMONIC[m] * term
        term1 = term1 * q / (m * (m + 1))
        acc1 = acc1 + sf._K1_COEFF[m] * term1
        if _all(term <= 1e-20) and _all(term1 <= 1e-20):
            break
    k0 = -(lg + sf.EULER_GAMMA) * i0 + acc0
    with np.errstate(over="ignore"):
        k1 = 1.0 / x + lg * i1 - 0.25 * x * acc1
    ex = np.exp(x)
    return k0 * ex, k1 * ex


def _kve01_cf2(x):
    mu2 = 0.0
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    delh = h = d
    q1, q2 = 0.0, 1.0
    a1 = 0.25 - mu2
    c = q = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, 600):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q = q + c * qnew
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        dels = q * delh
        s = s + dels
        if _all(abs(dels) <= 1e-17 * abs(s)):
            break
    else:
        raise ArithmeticError("K continued fraction failed to converge")
    h = a1 * h
    kve0 = np.sqrt(math.pi / (2.0 * x)) / s
    kve1 = kve0 * (mu2 + x + 0.5 - h) / x
    return kve0, kve1


@contextlib.contextmanager
def installed():
    """The reference loops and dispatch in place of specfun's.  The
    reference large-x loop warns where 8 k x overflows (x above 2.2e307),
    so overflow is not reported inside."""
    with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore"):
        for name in ("_piecewise", "_series_sum", "_asym_series", "_kve01_series",
                     "_kve01_cf2"):
            patch.setattr(sf, name, globals()[name])
        yield
