r"""Bessel J and modified Bessel I, K for the fixed orders the flock machinery needs.

Only integer orders -1..3 and half-integer orders -1/2..7/2 are supported;
nothing here pretends to be a general-order library.  Evaluation strategy:

* power series for small arguments (J up to x = 12, I up to x = 30); the J
  series is accumulated in 80-bit ``longdouble`` above x = 4 because its
  terms alternate and cancel,
* Miller's normalized downward recurrence for integer-order J beyond the
  series range, and Hankel's large-x expansion from x = 1e3 on,
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
at the API boundary.  All functions are pure, so unrestricted concurrent
use is safe.  Every function of r in the package (these kernels, the
potentials, the flock density and both convolution routes) keeps one
scalar/array contract: a float or a 0-d array gives a float, any other
array an array of its shape.  ``_route`` and ``_restore`` alone turn an
argument into a float or a flat float64 array and the result back.

Each evaluator is written once, as arithmetic that runs on a float or on a
float64 array.  A size-one input (a float, a 0-d array or a one-element
array) takes the float route: the same terms in the same order with the
same stop test, on plain floats (``longdouble`` scalars for the upper J
series), which costs microseconds where one-element array operations cost
a millisecond.  The contract between the routes is one rule: an element
of an array call equals the float call at that element, bit for bit.

Every series loop keeps it by one stop rule (``_Stop``): an element stops
at the iteration where its own stop test passes, as its float call does,
and from then on it adds exact zeros; the loop ends once every element
has stopped.  Array loops update their terms and sums in place, and an
array that falls in one piece of a function's domain goes to that piece's
evaluator whole.

The float route gives the array route's bits because ``exp``, ``log`` and
``power`` come from numpy on both routes: numpy's array loops may use their
own vectorised kernels, and ``math.exp`` has been seen to differ from
``np.exp`` by an ulp on about one argument in twenty (``math.log`` more
rarely); a numpy function on a float runs the same loop as on an array.
``sqrt``, ``sin`` and ``cos`` also come from numpy.
``bessel_k_pair`` returns the scaled K_nu and K_{nu+1} from one evaluation,
for callers that need both.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import DomainError, UnsupportedOrderError

# Euler-Mascheroni constant, 20 significant digits.
EULER_GAMMA = 0.57721566490153286061

_SUPPORTED_ORDERS = (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)

_J_SERIES_CUT = 12.0
# integer-order J from here on by Hankel's expansion: unlike the downward
# recurrence's, its cost does not grow with x, and its error stays below 1e-15
# of the envelope sqrt(2 / (pi x)) (the recurrence's reaches 5e-14 below 1e4)
_J_HANKEL_CUT = 1e3
# terms of each of its two sums: at x >= 1e3 and orders up to 3 the next
# term is below 2e-23 of the sum it would join
_J_HANKEL_TERMS = 4
_J_EXTENDED_CUT = 4.0
_I_SERIES_CUT = 30.0
_K_SERIES_CUT = 2.0
_ASYM_CUT = 30.0
_LOG_DBL_MAX = math.log(np.finfo(np.float64).max)
_MIN_NORMAL = np.finfo(np.float64).tiny
# below it e^x K_nu(x) of some order above 1 overflows (order 3.5 from about 2e-88)
_K_OVERFLOW_X = 1e-80
_LOG_2 = math.log(2.0)

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)
_SQRT_PI = math.sqrt(math.pi)

# the K series coefficients, tabulated once: the harmonic numbers H_m (each
# summed as 1 + 1/2 + ...) and H_m + H_{m+1} - 2 gamma
_HARMONIC = tuple(sum(1.0 / j for j in range(1, m + 1)) for m in range(61))
_K1_COEFF = tuple(_HARMONIC[m] + _HARMONIC[m + 1] - 2.0 * EULER_GAMMA for m in range(60))


def _check_order(nu) -> float:
    nu = float(nu)
    if nu not in _SUPPORTED_ORDERS:
        raise UnsupportedOrderError(
            f"order {nu} not in supported set {_SUPPORTED_ORDERS}"
        )
    return nu


def _route(x):
    """(values, shape): a size-one input as a float, any other as a flat
    float64 array; shape is None for a scalar or 0-d input, else the
    input's shape."""
    if isinstance(x, float):
        return float(x), None
    arr = np.asarray(x, dtype=np.float64)
    shape = None if arr.ndim == 0 else arr.shape
    return (arr.item() if arr.size == 1 else arr.ravel()), shape


def _restore(values, shape):
    """The result in the input's form: a float for a scalar input, else an
    array of the input's shape."""
    if shape is None:
        return float(values)
    return np.full(shape, values) if np.ndim(values) == 0 else values.reshape(shape)


# np.any and an in-place np.maximum for an evaluator that may hold floats
def _any(cond):
    return cond.any() if isinstance(cond, np.ndarray) else cond


def _max(a, b):
    return np.maximum(a, b, out=a) if isinstance(a, np.ndarray) else max(a, b)


class _Stop:
    """The stop rule of every series loop on an array; a float stops where
    its own test passes.  Called once per iteration with that iteration's
    stop test ``done`` and the loop's recurrent terms, it says whether the
    loop ends, which is once every element's test has passed.  Until then
    an element whose test passes has its terms zeroed, so it adds exact
    zeros from there on, and its test, now on zero terms, passes on every
    later iteration.  So the count of passed elements grows exactly when
    an element stops, and terms are zeroed only then."""

    count = 0

    def __call__(self, done, *terms):
        count = np.count_nonzero(done)
        if count == done.size:
            return True
        if count > self.count:
            self.count = count
            for term in terms:
                term[done] = 0.0
        return False


def _piecewise(x, pieces, width=0):
    """Evaluate a function given piece by piece on the domain of x.

    ``pieces`` lists (condition, evaluator) pairs whose conditions do not
    overlap.  A float takes the evaluator whose condition holds (nan where
    none does); an array gets each evaluator on the elements its condition
    selects, or the whole array when one condition selects every element.
    ``width`` is the number of values an evaluator returns when it returns
    a tuple.
    """
    if not isinstance(x, np.ndarray):
        for cond, fn in pieces:
            if cond:
                return fn(x)
        return (math.nan,) * width if width else math.nan
    counts = [np.count_nonzero(cond) for cond, _ in pieces]
    if x.size and x.size in counts:
        return pieces[counts.index(x.size)][1](x)
    out = np.full((width,) + x.shape if width else x.shape, np.nan)
    for (cond, fn), count in zip(pieces, counts):
        if count:
            out[..., cond] = fn(x[cond])
    return out


def _power_series(nu: float, x, sign: float):
    """sum_m (sign)^m (x/2)^(nu+2m) / (m! Gamma(nu+m+1)).

    sign=-1 gives J_nu, sign=+1 gives I_nu.  Valid for nu >= -1/2 and x > 0
    (x = 0 must be handled by the caller).  The alternating J series starts
    cancelling noticeably beyond x = 4, so 80-bit accumulation is used
    there; elsewhere plain doubles keep the hot vectorized paths fast.
    """
    if sign < 0.0:
        # each precision regime is summed on its own, so a value does not
        # depend on which other elements share the call
        return _piecewise(x, [
            (x <= _J_EXTENDED_CUT, lambda v: _series_sum(nu, v, sign, float)),
            (x > _J_EXTENDED_CUT, lambda v: _series_sum(nu, v, sign, np.longdouble)),
        ])
    return _series_sum(nu, x, sign, float)


def _series_sum(nu: float, x, sign: float, dtype):
    """The power series of ``_power_series`` accumulated in ``dtype``."""
    xl = x.astype(dtype) if isinstance(x, np.ndarray) else dtype(x)
    half = 0.5 * xl
    if nu < 0.0 and _any(half == 0.0):
        # x/2 rounds to 0 at x = 5e-324, where (x/2)^nu is x^nu 2^-nu
        lead = np.where(half == 0.0, np.power(xl, dtype(nu)) * dtype(2.0**-nu),
                        np.power(np.where(half == 0.0, 1.0, half), dtype(nu)))
    else:
        lead = np.power(half, dtype(nu))
    term = lead / dtype(math.gamma(nu + 1.0))
    array = isinstance(term, np.ndarray)
    if not array:
        term = dtype(term)  # a float stays a plain float through the loop
    total = +term  # a copy, as term is updated in place
    q = dtype(sign) * 0.25 * xl * xl
    peak = abs(term)
    tol = 1e-25 if dtype is np.longdouble else 1e-18
    stop = _Stop() if array else None
    for m in range(1, 400):
        term *= q
        term /= m * (nu + m)
        total += term
        size = abs(term)
        peak = _max(peak, size)
        done = size <= tol * (peak + 1e-300)
        if stop(done, term) if array else done:
            break
    else:  # pragma: no cover - series converges long before 400 terms
        raise ArithmeticError("power series failed to converge")
    return total.astype(np.float64) if array else float(total)


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
            (15.0 * np.power(inv, 3) - 6.0 * inv) * sin
            - (15.0 * inv * inv - 1.0) * cos
        )
    raise UnsupportedOrderError(f"no closed J form for order {nu}")


def _j_int_miller(order: int, x):
    """Integer-order J by Miller's downward recurrence with the
    J_0 + 2 J_2 + 2 J_4 + ... = 1 normalization.  Used for 12 < x < 1e3,
    where the alternating series cancels; its error grows with x (see
    _J_HANKEL_CUT).  An array is evaluated element by element."""
    if isinstance(x, np.ndarray):
        return np.array([_j_int_miller(order, v) for v in x.tolist()])
    m_hi = int(x + 18.0 + 14.0 * x ** (1.0 / 3.0))
    m_hi += m_hi % 2  # even start keeps the normalization bookkeeping simple
    jp = 0.0  # unnormalized J_{n+1}
    jc = 1e-300  # unnormalized J_n at n = m_hi (arbitrary tiny seed)
    norm = 0.0
    wanted = [0.0] * (order + 1)
    for n in range(m_hi, 0, -1):
        jm = (2.0 * n / x) * jc - jp
        # no rescaling: below _J_HANKEL_CUT, |jc| peaks at 2.4e-263 (x = 12.74)
        jp, jc = jc, jm  # jc now holds unnormalized J_{n-1}
        if (n - 1) % 2 == 0 and (n - 1) > 0:
            norm += 2.0 * jc
        if n - 1 <= order:
            wanted[n - 1] = jc
    norm += wanted[0] if order >= 0 else jc
    return wanted[order] / norm


def _j_int_hankel(order: int, x):
    """Integer-order J by Hankel's expansion; x >= _J_HANKEL_CUT.

    J_n(x) = sqrt(2 / (pi x)) (P cos chi - Q sin chi), chi = x - pi/4 - n pi/2,
    with P = a_0 - a_2 / x^2 + ... and Q = a_1 / x - a_3 / x^3 + ..., and
    a_k = prod_{j <= k} (4 n^2 - (2j - 1)^2) / (8 j).  x - pi/4 would lose
    the phase to rounding once x is large (at 1e20 it rounds to x), so cos
    and sin of chi come from those of x, exactly rotated by a quarter turn
    per order; the eighth turn, pi/4, leaves cos x + sin x and sin x - cos x,
    whose factor 1/sqrt(2) the envelope absorbs.  A fixed number of terms
    keeps each element independent of the others."""
    mu4 = 4.0 * order * order
    term = p = 1.0
    q = 0.0
    for k in range(1, 2 * _J_HANKEL_TERMS):
        term = term * ((mu4 - (2 * k - 1) ** 2) / (8.0 * k)) / x
        if k % 2:
            q = q + term if k % 4 == 1 else q - term
        else:
            p = p + term if k % 4 == 0 else p - term
    cos, sin = np.cos(x), np.sin(x)
    # sqrt(2) cos(x - pi/4) and sqrt(2) sin(x - pi/4)
    cos, sin = cos + sin, sin - cos
    for _ in range(order % 4):
        cos, sin = sin, -cos  # chi decreases by a quarter turn
    return (p * cos - q * sin) / (_SQRT_PI * np.sqrt(x))


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
    x, shape = _route(x)
    if _any(x < 0.0):
        raise DomainError("bessel_j requires x >= 0")
    if nu < 0.0 and _any(x == 0.0):
        raise DomainError(f"bessel_j order {nu} diverges at x = 0")
    if nu == int(nu):
        large = [((x > _J_SERIES_CUT) & (x < _J_HANKEL_CUT), lambda v: _j_int_miller(int(nu), v)),
                 (x >= _J_HANKEL_CUT, lambda v: _j_int_hankel(int(nu), v))]
    else:
        large = [(x > _J_SERIES_CUT, lambda v: _j_half_closed(nu, v))]
    out = _piecewise(x, [
        (x == 0.0, lambda v: 1.0 if nu == 0.0 else 0.0),
        ((x > 0.0) & (x <= _J_SERIES_CUT), lambda v: _power_series(nu, v, -1.0)),
        *large,
    ])
    return _restore(out, shape)


def _asym_series(nu: float, x, sign: float):
    """sum_k sign^k a_k(nu) / x^k, the large-x expansion shared by
    e^{-x} I_nu(x) (sign -1) and e^{x} K_nu(x) (sign +1); x >= 30.  The
    sign multiplies the scalar factor of each term, which rounds like
    negating the term."""
    mu4 = 4.0 * nu * nu
    term = total = 1.0
    array = isinstance(x, np.ndarray)
    # 8 k x overflows to inf above x = 2.2e307, where the term is 0 all the
    # same; an array warns of it, a float does not
    quiet = np.errstate(over="ignore") if array else contextlib.nullcontext()
    stop = _Stop() if array else None
    with quiet:
        for k in range(1, 40):
            term *= sign * (mu4 - (2 * k - 1) ** 2)
            term /= 8.0 * k * x
            total += term
            done = abs(term) <= 1e-18 * abs(total)
            if stop(done, term) if array else done:
                break
    return total


def _ive_asym(nu: float, x):
    """e^{-x} I_nu(x) by the large-x expansion; x >= 30.  Its envelope
    4 sqrt(2 pi (x / 16)) has the bits of sqrt(2 pi x), since the scalings
    by powers of 2 are exact, and stays finite where 2 pi x overflows."""
    return _asym_series(nu, x, -1.0) / (4.0 * np.sqrt(2.0 * math.pi * (0.0625 * x)))


def _kve_asym(nu: float, x):
    """e^{x} K_nu(x) by the large-x expansion; x >= 30.  (pi / 2) / x
    rounds like pi / (2 x) and stays finite where 2 x overflows."""
    return np.sqrt(0.5 * math.pi / x) * _asym_series(nu, x, 1.0)


def bessel_i(nu, x, scaled=False):
    """Modified Bessel function of the first kind I_nu(x).

    With ``scaled=True`` returns ``e^{-x} I_nu(x)``, which stays
    representable for every x; the raw value raises ``OverflowError``
    once it exceeds double range (x around 714).
    """
    nu = _check_order(nu)
    if nu == -1.0:
        return bessel_i(1.0, x, scaled=scaled)
    x, shape = _route(x)
    if _any(x < 0.0):
        raise DomainError("bessel_i requires x >= 0")
    if nu < 0.0 and _any(x == 0.0):
        raise DomainError(f"bessel_i order {nu} diverges at x = 0")
    scaled_out = _piecewise(x, [
        (x == 0.0, lambda v: 1.0 if nu == 0.0 else 0.0),
        ((x > 0.0) & (x < _I_SERIES_CUT),
         lambda v: _power_series(nu, v, +1.0) * np.exp(-v)),
        (x >= _I_SERIES_CUT, lambda v: _ive_asym(nu, v)),
    ])
    if scaled:
        return _restore(scaled_out, shape)
    with np.errstate(over="ignore"):
        log_raw = x + np.log(np.maximum(scaled_out, 1e-300))
    if _any((scaled_out > 0.0) & (log_raw > _LOG_DBL_MAX)):
        raise OverflowError(
            "raw bessel_i exceeds double range; request scaled=True"
        )
    return _restore(scaled_out * np.exp(x), shape)


def _kve01_series(x):
    """Scaled K_0 and K_1 from the log/Euler-gamma series; 0 < x < 2.

    K_1 is inf where its 1/x term overflows (subnormal x); K_0 stays finite
    there, down to the smallest subnormal, and neither route warns.
    """
    i0 = _power_series(0.0, x, +1.0)
    i1 = _power_series(1.0, x, +1.0)
    half = 0.5 * x
    tiny = half == 0.0
    if _any(tiny):
        # 0.5 * x rounds to 0 at the smallest subnormal, x = 5e-324; there
        # log(x/2) is taken as log(x) - log 2
        lg = np.log(np.where(tiny, x, half)) - np.where(tiny, _LOG_2, 0.0)
    else:
        lg = np.log(half)
    q = 0.25 * x * x

    # K0 = -(log(x/2) + gamma) I0 + sum_{m>=1} H_m q^m / (m!)^2
    term = 1.0
    acc0 = 0.0
    # K1 = 1/x + log(x/2) I1 - (x/4) sum_{m>=0} (H_m + H_{m+1} - 2 gamma) q^m / (m! (m+1)!)
    term1 = 1.0
    acc1 = _K1_COEFF[0]
    array = isinstance(x, np.ndarray)
    stop = _Stop() if array else None
    for m in range(1, 60):
        term *= q
        term /= m * m
        acc0 += _HARMONIC[m] * term
        term1 *= q
        term1 /= m * (m + 1)
        acc1 += _K1_COEFF[m] * term1
        done = (term <= 1e-20) & (term1 <= 1e-20)
        if stop(done, term, term1) if array else done:
            break
    k0 = -(lg + EULER_GAMMA) * i0 + acc0
    with np.errstate(over="ignore"):
        k1 = 1.0 / x + lg * i1 - 0.25 * x * acc1
    ex = np.exp(x)
    return k0 * ex, k1 * ex


def _kve01_cf2(x):
    """Scaled K_0 and K_1 by the Steed/Thompson-Barnett continued fraction.

    Solid for x >= 2 (converges in a few dozen iterations).
    """
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    delh, h = +d, +d  # copies, as each is updated in place
    q1, q2 = 0.0, 1.0
    a1 = 0.25  # 1/4 - mu^2 at the order mu = 0
    c = q = a1
    a = -a1
    s = 1.0 + q * delh
    array = isinstance(x, np.ndarray)
    stop = _Stop() if array else None
    for i in range(2, 600):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        # the next q, (q1 - b q2) / a, formed in the place of q1
        q1 -= b * q2
        q1 /= a
        q1, q2 = q2, q1
        q += c * q2
        b += 2.0
        d *= a  # d = 1 / (b + a d)
        d += b
        d = 1.0 / d
        delh *= b * d - 1.0
        h += delh
        dels = q * delh
        s += dels
        done = abs(dels) <= 1e-17 * abs(s)
        if stop(done, delh) if array else done:
            break
    else:  # pragma: no cover
        raise ArithmeticError("K continued fraction failed to converge")
    h = a1 * h
    kve0 = np.sqrt(math.pi / (2.0 * x)) / s
    kve1 = kve0 * (x + 0.5 - h) / x
    return kve0, kve1


def _kve01(x):
    """Scaled (K_0, K_1) on x > 0, both from one evaluation."""
    return _piecewise(x, [
        (x < _K_SERIES_CUT, _kve01_series),
        ((x >= _K_SERIES_CUT) & (x < _ASYM_CUT), _kve01_cf2),
        (x >= _ASYM_CUT, lambda v: (_kve_asym(0.0, v), _kve_asym(1.0, v))),
    ], width=2)


def _kve_half(nu: float, x):
    """Scaled half-integer K: sqrt(pi/(2x)) times a polynomial in 1/x."""
    if nu == 0.5 and _any(x < _MIN_NORMAL):
        # 1/x overflows for subnormal x, where sqrt(pi/(2x)) is still finite
        with np.errstate(over="ignore"):
            base = np.sqrt(_SQRT_PI_OVER_2**2 * (1.0 / x))
        return np.where(np.isinf(base), _SQRT_PI_OVER_2 / np.sqrt(x), base)
    inv = 1.0 / x
    base = np.sqrt(_SQRT_PI_OVER_2**2 * inv)
    if nu == 0.5:
        poly = 1.0
    elif nu == 1.5:
        poly = 1.0 + inv
    elif nu == 2.5:
        poly = 1.0 + 3.0 * inv + 3.0 * inv * inv
    elif nu == 3.5:
        poly = 1.0 + 6.0 * inv + 15.0 * inv * inv + 15.0 * np.power(inv, 3)
    else:
        raise UnsupportedOrderError(f"no closed K form for order {nu}")
    return base * poly


def _kve(orders, x):
    """Scaled K at each of the non-negative ``orders``, x > 0.  The integer
    orders share one K_0, K_1 evaluation and climb from it by the upward
    recurrence K_{m+1} = K_{m-1} + (2m/x) K_m, which is stable for K."""
    # below _K_OVERFLOW_X, e^x K_nu(x) ~ x^-nu of an order above 1 exceeds
    # the double range: the value is inf, on both routes, without a warning
    overflow = max(orders) > 1.0 and _any(x < _K_OVERFLOW_X)
    quiet = np.errstate(over="ignore") if overflow else contextlib.nullcontext()
    with quiet:
        if any(nu == int(nu) for nu in orders):
            k0, k1 = _kve01(x)
        out = []
        for nu in orders:
            if nu != int(nu):
                out.append(_kve_half(nu, x))
                continue
            ladder = [k0, k1]
            for m in range(1, int(nu)):
                ladder.append(ladder[m - 1] + (2.0 * m / x) * ladder[m])
            out.append(ladder[int(nu)])
    return out


def bessel_k(nu, x, scaled=False):
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    With ``scaled=True`` returns ``e^{x} K_nu(x)``.  K_{-nu} = K_nu.
    """
    nu = abs(_check_order(nu))
    x, shape = _route(x)
    if _any(x <= 0.0):
        raise DomainError("bessel_k requires x > 0")
    (out,) = _kve([nu], x)
    if not scaled:
        out = out * np.exp(-x)
    return _restore(out, shape)


def _pair_args(name: str, nu, x):
    """(nu, nu + 1, x routed, its shape), the orders and x > 0 checked on
    behalf of ``name``."""
    nu = _check_order(nu)
    upper = _check_order(nu + 1.0)
    x, shape = _route(x)
    if _any(x <= 0.0):
        raise DomainError(f"{name} requires x > 0")
    return nu, upper, x, shape


def bessel_k_pair(nu, x):
    """Scaled (e^x K_nu(x), e^x K_{nu+1}(x)) from one evaluation, x > 0.

    Each value equals ``bessel_k(..., scaled=True)`` bit for bit; for
    integer orders both come from one K_0, K_1 evaluation, which
    ``bessel_k`` would repeat per order.  nu and nu + 1 must be supported.
    """
    nu, upper, x, shape = _pair_args("bessel_k_pair", nu, x)
    lower, upper = _kve([abs(nu), abs(upper)], x)
    return _restore(lower, shape), _restore(upper, shape)


def _ratio(name: str, nu, x, of_pair, of_lead):
    """One K-ratio family at nu >= 0: ``of_pair(K_nu, K_{nu+1}, x)`` from the
    scaled pair, and below _K_OVERFLOW_X, where K of the upper order may
    leave the double range, ``of_lead(p, q, x)`` from the leading small-x
    term p / q of x K_{nu+1}(x) / K_nu(x): 2 nu, or 1 / (ln 2 - ln x - gamma)
    at nu = 0.  Its relative error there is below 1e-80."""
    if _check_order(nu) < 0.0:
        raise DomainError(f"{name} requires nu >= 0")
    nu, upper, x, shape = _pair_args(name, nu, x)

    def lead(v):
        return of_lead(2.0 * nu or 1.0, 1.0 if nu else _LOG_2 - np.log(v) - EULER_GAMMA, v)

    with np.errstate(over="ignore"):  # a small-x quotient past the double range is inf
        return _restore(_piecewise(x, [
            (x >= _K_OVERFLOW_X, lambda v: of_pair(*_kve([nu, upper], v), v)),
            (x < _K_OVERFLOW_X, lead),
        ]), shape)


def ratio_k_over_xk(nu, x):
    """K_{nu+1}(x) / (x K_nu(x)), computed with shared exponential scaling.

    One of the three strictly decreasing ratio families; nu >= 0.
    """
    return _ratio("ratio_k_over_xk", nu, x, lambda lo, up, v: up / (v * lo),
                  lambda p, q, v: p / q / v / v)


def ratio_k(nu, x):
    """K_{nu+1}(x) / K_nu(x); strictly decreasing on (0, inf) for nu >= 0."""
    return _ratio("ratio_k", nu, x, lambda lo, up, v: up / lo, lambda p, q, v: p / q / v)


def ratio_k_inverse(nu, x):
    """K_nu(x) / (x K_{nu+1}(x)), the companion decreasing family."""
    return _ratio("ratio_k_inverse", nu, x, lambda lo, up, v: lo / (v * up),
                  lambda p, q, v: q / p)
