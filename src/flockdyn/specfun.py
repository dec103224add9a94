r"""Bessel J and modified Bessel I, K for the fixed orders the flock machinery needs.

Only integer orders -1..3 and half-integer orders -1/2..7/2 are supported;
nothing here pretends to be a general-order library.  Evaluation strategy:

* power series for small arguments (J up to x = 12, I up to x = 30); the J
  series is accumulated in 80-bit ``longdouble`` because its terms alternate
  and cancel,
* Miller's normalized downward recurrence for integer-order J beyond the
  series range,
* closed (hyperbolic) trigonometric forms for half-integer orders outside
  the series range,
* for integer-order K: the log/Euler-gamma series below x = 2, a Steed-type
  continued fraction on [2, 30), the large-x expansion beyond, and stable
  upward recurrence for orders 2 and 3,
* large-x asymptotic expansions for I and K from x = 30 on.

Crossover constants were calibrated against a 200-term extended-precision
series oracle; see the test suite for the regression grids.

Exponentially scaled variants ``e^{-x} I_nu`` and ``e^{x} K_nu`` are the
internal currency (products like ``I(k r / ell) K(k R / ell)`` overflow and
underflow long before their combination does); raw values are reconstructed
at the API boundary.  All functions accept scalars or numpy arrays and are
pure, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, UnsupportedOrderError

# Euler-Mascheroni constant, 20 significant digits.
EULER_GAMMA = 0.57721566490153286061

_SUPPORTED_ORDERS = (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)

_J_SERIES_CUT = 12.0
_I_SERIES_CUT = 30.0
_K_SERIES_CUT = 2.0
_ASYM_CUT = 30.0
_LOG_DBL_MAX = math.log(np.finfo(np.float64).max)

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)


def _check_order(nu) -> float:
    nu = float(nu)
    if nu not in _SUPPORTED_ORDERS:
        raise UnsupportedOrderError(
            f"order {nu} not in supported set {_SUPPORTED_ORDERS}"
        )
    return nu


def _asarray(x):
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr), scalar


def _scalarize(values, scalar):
    return float(values[0]) if scalar else values


def _power_series(nu: float, x, sign: float):
    """sum_m (sign)^m (x/2)^(nu+2m) / (m! Gamma(nu+m+1)).

    sign=-1 gives J_nu, sign=+1 gives I_nu.  Valid for nu >= -1/2 and x > 0
    (x = 0 must be handled by the caller).  The alternating J series starts
    cancelling noticeably beyond x = 4, so 80-bit accumulation is used
    there; elsewhere plain doubles keep the hot vectorized paths fast.
    """
    if sign < 0.0:
        hi = x > 4.0
        if np.any(hi) and not np.all(hi):
            # evaluate each precision regime separately so results do not
            # depend on which other elements share the call
            out = np.empty_like(x)
            out[hi] = _power_series(nu, x[hi], sign)
            out[~hi] = _power_series(nu, x[~hi], sign)
            return out
        needs_extended = bool(np.all(hi))
    else:
        needs_extended = False
    dtype = np.longdouble if needs_extended else np.float64
    xl = x.astype(dtype)
    half = 0.5 * xl
    term = half ** dtype(nu) / dtype(math.gamma(nu + 1.0))
    total = term.copy()
    q = dtype(sign) * 0.25 * xl * xl
    peak = np.abs(term)
    stop = 1e-25 if needs_extended else 1e-18
    for m in range(1, 400):
        term = term * q / dtype(m * (nu + m))
        total += term
        np.maximum(peak, np.abs(term), out=peak)
        if np.all(np.abs(term) <= stop * (peak + 1e-300)):
            break
    else:  # pragma: no cover - series converges long before 400 terms
        raise ArithmeticError("power series failed to converge")
    return total.astype(np.float64)


def _j_half_closed(nu: float, x):
    """Half-integer J via trigonometric closed forms; x well away from 0."""
    s = np.sqrt(_SQRT_2_OVER_PI**2 / x)
    sin, cos = np.sin(x), np.cos(x)
    if nu == 0.5:
        return s * sin
    if nu == -0.5:
        return s * cos
    inv = 1.0 / x
    if nu == 1.5:
        return s * (sin * inv - cos)
    if nu == 2.5:
        return s * ((3.0 * inv * inv - 1.0) * sin - 3.0 * inv * cos)
    if nu == 3.5:
        return s * (
            (15.0 * inv**3 - 6.0 * inv) * sin - (15.0 * inv * inv - 1.0) * cos
        )
    raise UnsupportedOrderError(f"no closed J form for order {nu}")


def _j_int_miller(order: int, x: float) -> float:
    """Integer-order J by Miller's downward recurrence with the
    J_0 + 2 J_2 + 2 J_4 + ... = 1 normalization.  Used for x > 12 where the
    alternating series cancels; accuracy is a few ulp."""
    m_hi = int(x + 18.0 + 14.0 * x ** (1.0 / 3.0))
    m_hi += m_hi % 2  # even start keeps the normalization bookkeeping simple
    jp = 0.0  # unnormalized J_{n+1}
    jc = 1e-300  # unnormalized J_n at n = m_hi (arbitrary tiny seed)
    norm = 0.0
    wanted = [0.0] * (order + 1)
    for n in range(m_hi, 0, -1):
        jm = (2.0 * n / x) * jc - jp
        jp, jc = jc, jm  # jc now holds unnormalized J_{n-1}
        if abs(jc) > 1e250:
            jc *= 1e-250
            jp *= 1e-250
            norm *= 1e-250
            wanted = [w * 1e-250 for w in wanted]
        if (n - 1) % 2 == 0 and (n - 1) > 0:
            norm += 2.0 * jc
        if n - 1 <= order:
            wanted[n - 1] = jc
    norm += wanted[0] if order >= 0 else jc
    return wanted[order] / norm


def bessel_j(nu, x):
    """Bessel function of the first kind J_nu(x).

    Parameters
    ----------
    nu : supported integer or half-integer order
    x : float or ndarray, >= 0 (strictly positive for nu < 0)

    Negative orders resolve through J_{-1} = -J_1 and the closed
    J_{-1/2} form; no other reflection is implemented.
    """
    nu = _check_order(nu)
    if nu == -1.0:
        return -bessel_j(1.0, x)
    arr, scalar = _asarray(x)
    if np.any(arr < 0.0):
        raise DomainError("bessel_j requires x >= 0")
    if nu < 0.0 and np.any(arr == 0.0):
        raise DomainError(f"bessel_j order {nu} diverges at x = 0")

    out = np.empty_like(arr)
    zero = arr == 0.0
    if np.any(zero):
        out[zero] = 1.0 if nu == 0.0 else 0.0
    small = (~zero) & (arr <= _J_SERIES_CUT)
    if np.any(small):
        out[small] = _power_series(nu, arr[small], -1.0)
    big = arr > _J_SERIES_CUT
    if np.any(big):
        if nu != int(nu):
            out[big] = _j_half_closed(nu, arr[big])
        else:
            out[big] = [_j_int_miller(int(nu), float(v)) for v in arr[big]]
    return _scalarize(out, scalar)


def _ive_asym(nu: float, x):
    """e^{-x} I_nu(x) by the large-x expansion; x >= 30."""
    mu4 = 4.0 * nu * nu
    term = np.ones_like(x)
    total = term.copy()
    for k in range(1, 40):
        term = -term * (mu4 - (2 * k - 1) ** 2) / (8.0 * k * x)
        total += term
        if np.all(np.abs(term) <= 1e-18 * np.abs(total)):
            break
    return total / np.sqrt(2.0 * math.pi * x)


def _kve_asym(nu: float, x):
    """e^{x} K_nu(x) by the large-x expansion; x >= 30."""
    mu4 = 4.0 * nu * nu
    term = np.ones_like(x)
    total = term.copy()
    for k in range(1, 40):
        term = term * (mu4 - (2 * k - 1) ** 2) / (8.0 * k * x)
        total += term
        if np.all(np.abs(term) <= 1e-18 * np.abs(total)):
            break
    return np.sqrt(math.pi / (2.0 * x)) * total


def bessel_i(nu, x, scaled=False):
    """Modified Bessel function of the first kind I_nu(x).

    With ``scaled=True`` returns ``e^{-x} I_nu(x)``, which stays
    representable for every x; the raw value raises ``OverflowError``
    once it exceeds double range (x around 714).
    """
    nu = _check_order(nu)
    if nu == -1.0:
        return bessel_i(1.0, x, scaled=scaled)
    arr, scalar = _asarray(x)
    if np.any(arr < 0.0):
        raise DomainError("bessel_i requires x >= 0")
    if nu < 0.0 and np.any(arr == 0.0):
        raise DomainError(f"bessel_i order {nu} diverges at x = 0")

    scaled_out = np.empty_like(arr)
    zero = arr == 0.0
    if np.any(zero):
        scaled_out[zero] = 1.0 if nu == 0.0 else 0.0
    small = (~zero) & (arr < _I_SERIES_CUT)
    if np.any(small):
        xs = arr[small]
        scaled_out[small] = _power_series(nu, xs, +1.0) * np.exp(-xs)
    big = arr >= _I_SERIES_CUT
    if np.any(big):
        scaled_out[big] = _ive_asym(nu, arr[big])
    if scaled:
        return _scalarize(scaled_out, scalar)
    with np.errstate(over="ignore"):
        log_raw = arr + np.log(np.maximum(scaled_out, 1e-300))
    if np.any((scaled_out > 0.0) & (log_raw > _LOG_DBL_MAX)):
        raise OverflowError(
            "raw bessel_i exceeds double range; request scaled=True"
        )
    return _scalarize(scaled_out * np.exp(arr), scalar)


def _harmonic(m: int) -> float:
    return sum(1.0 / j for j in range(1, m + 1))


def _kve01_series(x):
    """Scaled K_0 and K_1 from the log/Euler-gamma series; 0 < x < 2."""
    i0 = _power_series(0.0, x, +1.0)
    i1 = _power_series(1.0, x, +1.0)
    lg = np.log(0.5 * x)
    q = 0.25 * x * x

    # K0 = -(log(x/2) + gamma) I0 + sum_{m>=1} H_m q^m / (m!)^2
    term = np.ones_like(x)
    acc0 = np.zeros_like(x)
    # K1 = 1/x + log(x/2) I1 - (x/4) sum_{m>=0} (H_m + H_{m+1} - 2 gamma) q^m / (m! (m+1)!)
    term1 = np.ones_like(x)
    acc1 = (_harmonic(0) + _harmonic(1) - 2.0 * EULER_GAMMA) * term1
    for m in range(1, 60):
        term = term * q / (m * m)
        acc0 += _harmonic(m) * term
        term1 = term1 * q / (m * (m + 1))
        acc1 += (_harmonic(m) + _harmonic(m + 1) - 2.0 * EULER_GAMMA) * term1
        if np.all(term <= 1e-20) and np.all(term1 <= 1e-20):
            break
    k0 = -(lg + EULER_GAMMA) * i0 + acc0
    k1 = 1.0 / x + lg * i1 - 0.25 * x * acc1
    ex = np.exp(x)
    return k0 * ex, k1 * ex


def _kve01_cf2(x):
    """Scaled K_0 and K_1 by the Steed/Thompson-Barnett continued fraction.

    Solid for x >= 2 (converges in a few dozen iterations); vectorized.
    """
    mu2 = 0.0  # order mu = 0
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    delh = d.copy()
    h = d.copy()
    q1 = np.zeros_like(x)
    q2 = np.ones_like(x)
    a1 = 0.25 - mu2
    c = np.full_like(x, a1)
    q = np.full_like(x, a1)
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
        if np.all(np.abs(dels) <= 1e-17 * np.abs(s)):
            break
    else:  # pragma: no cover
        raise ArithmeticError("K continued fraction failed to converge")
    h = a1 * h
    kve0 = np.sqrt(math.pi / (2.0 * x)) / s
    kve1 = kve0 * (mu2 + x + 0.5 - h) / x
    return kve0, kve1


def _kve_int(order: int, x):
    """Scaled integer-order K for orders 0..3 on x > 0 arrays."""
    k0 = np.empty_like(x)
    k1 = np.empty_like(x)
    lo = x < _K_SERIES_CUT
    mid = (~lo) & (x < _ASYM_CUT)
    hi = x >= _ASYM_CUT
    if np.any(lo):
        k0[lo], k1[lo] = _kve01_series(x[lo])
    if np.any(mid):
        k0[mid], k1[mid] = _kve01_cf2(x[mid])
    if np.any(hi):
        k0[hi] = _kve_asym(0.0, x[hi])
        k1[hi] = _kve_asym(1.0, x[hi])
    if order == 0:
        return k0
    if order == 1:
        return k1
    # upward recurrence K_{m+1} = K_{m-1} + (2m/x) K_m, stable for K
    km, kc = k0, k1
    for m in range(1, order):
        km, kc = kc, km + (2.0 * m / x) * kc
    return kc


def _kve_half(nu: float, x):
    """Scaled half-integer K: sqrt(pi/(2x)) times a polynomial in 1/x."""
    inv = 1.0 / x
    base = np.sqrt(_SQRT_PI_OVER_2**2 * inv)
    if nu == 0.5:
        poly = 1.0
    elif nu == 1.5:
        poly = 1.0 + inv
    elif nu == 2.5:
        poly = 1.0 + 3.0 * inv + 3.0 * inv * inv
    elif nu == 3.5:
        poly = 1.0 + 6.0 * inv + 15.0 * inv * inv + 15.0 * inv**3
    else:
        raise UnsupportedOrderError(f"no closed K form for order {nu}")
    return base * poly


def bessel_k(nu, x, scaled=False):
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    With ``scaled=True`` returns ``e^{x} K_nu(x)``.  K_{-nu} = K_nu.
    """
    nu = abs(_check_order(nu))
    arr, scalar = _asarray(x)
    if np.any(arr <= 0.0):
        raise DomainError("bessel_k requires x > 0")
    if nu == int(nu):
        out = _kve_int(int(nu), arr)
    else:
        out = _kve_half(nu, arr)
    if not scaled:
        out = out * np.exp(-arr)
    return _scalarize(out, scalar)


def _k_pair(name: str, nu, x):
    """Scaled (K_{nu+1}(x), K_nu(x)) for the ratio families, with x as an
    array and its scalar flag; nu >= 0 and x > 0 are checked on behalf of
    ``name``."""
    nu = _check_order(nu)
    if nu < 0.0:
        raise DomainError(f"{name} requires nu >= 0")
    arr, scalar = _asarray(x)
    if np.any(arr <= 0.0):
        raise DomainError(f"{name} requires x > 0")
    upper = bessel_k(nu + 1.0, arr, scaled=True)
    return upper, bessel_k(nu, arr, scaled=True), arr, scalar


def ratio_k_over_xk(nu, x):
    """K_{nu+1}(x) / (x K_nu(x)), computed with shared exponential scaling.

    One of the three strictly decreasing ratio families; nu >= 0.
    """
    upper, lower, arr, scalar = _k_pair("ratio_k_over_xk", nu, x)
    return _scalarize(upper / (arr * lower), scalar)


def ratio_k(nu, x):
    """K_{nu+1}(x) / K_nu(x); strictly decreasing on (0, inf) for nu >= 0."""
    upper, lower, _, scalar = _k_pair("ratio_k", nu, x)
    return _scalarize(upper / lower, scalar)


def ratio_k_inverse(nu, x):
    """K_nu(x) / (x K_{nu+1}(x)), the companion decreasing family."""
    upper, lower, arr, scalar = _k_pair("ratio_k_inverse", nu, x)
    return _scalarize(lower / (arr * upper), scalar)
