"""Special-function accuracy and identity tests.

scipy.special serves as the independent high-accuracy oracle for raw
values; every identity test (Wronskian, recurrences, ratio monotonicity,
the ratio ODE) exercises only this package's own routines.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import special as sp

from flockdyn import specfun as sf
from flockdyn.errors import DomainError, UnsupportedOrderError

ALL_ORDERS = [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]


def j1_series_oracle(x: float, terms: int = 64) -> float:
    """Independent 64-term power series for J_1 used to pin its first zero."""
    total = 0.0
    term = 0.5 * x
    for m in range(terms):
        total += term
        term *= -0.25 * x * x / ((m + 1.0) * (m + 2.0))
    return total


def bisect(f, lo, hi, iters=200):
    flo = f(lo)
    assert flo * f(hi) < 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------- bessel_j


def test_j_at_origin():
    assert sf.bessel_j(0.0, 0.0) == 1.0
    assert sf.bessel_j(1.0, 0.0) == 0.0
    assert sf.bessel_j(2.5, 0.0) == 0.0


def test_j_half_closed_form_value():
    # J_{1/2}(pi/2) = sqrt(2/(pi * pi/2)) * sin(pi/2) = 2/pi
    got = sf.bessel_j(0.5, math.pi / 2.0)
    assert got == pytest.approx(2.0 / math.pi, rel=1e-14)


def test_j1_first_zero_matches_series_oracle():
    x1 = bisect(j1_series_oracle, 3.0, 4.5)
    assert x1 == pytest.approx(3.8317059702075123, abs=1e-10)
    assert abs(sf.bessel_j(1.0, x1)) < 5e-13


@pytest.mark.parametrize("nu", ALL_ORDERS)
def test_j_accuracy_vs_scipy(nu):
    x = np.logspace(-6, 4, 320)
    ours = sf.bessel_j(nu, x)
    ref = sp.jv(nu, x)
    # relative accuracy is asserted away from the zeros of J, where any
    # finite-precision evaluation loses relative (not absolute) accuracy
    envelope = np.sqrt(2.0 / (np.pi * x))
    mask = np.abs(ref) > 0.05 * envelope
    assert np.max(np.abs(ours[mask] / ref[mask] - 1.0)) < 1e-12


def test_j_negative_order_reflection():
    for x in (0.1, 1.0, 10.0, 40.0):
        assert sf.bessel_j(-1.0, x) == -sf.bessel_j(1.0, x)
    x = 2.3
    assert sf.bessel_j(-0.5, x) == pytest.approx(
        math.sqrt(2.0 / (math.pi * x)) * math.cos(x), rel=1e-14
    )


def test_j_domain_errors():
    with pytest.raises(DomainError):
        sf.bessel_j(0.0, -1.0)
    with pytest.raises(DomainError):
        sf.bessel_j(-0.5, 0.0)
    with pytest.raises(UnsupportedOrderError):
        sf.bessel_j(4.0, 1.0)
    with pytest.raises(UnsupportedOrderError):
        sf.bessel_j(0.25, 1.0)


# ---------------------------------------------------------------- bessel_i


def test_i_at_origin():
    assert sf.bessel_i(0.0, 0.0) == 1.0
    assert sf.bessel_i(1.0, 0.0) == 0.0


def test_i_half_closed_form_value():
    got = sf.bessel_i(0.5, 1.0)
    assert got == pytest.approx(math.sqrt(2.0 / math.pi) * math.sinh(1.0), rel=1e-14)


def test_i_negative_integer_reflection():
    for x in (0.1, 1.0, 10.0):
        assert sf.bessel_i(-1.0, x) == sf.bessel_i(1.0, x)


@pytest.mark.parametrize("nu", ALL_ORDERS)
def test_i_raw_accuracy_vs_scipy(nu):
    x = np.logspace(-6, math.log10(700.0), 200)
    ours = sf.bessel_i(nu, x)
    ref = sp.iv(nu, x)
    assert np.max(np.abs(ours / ref - 1.0)) < 1e-12


@pytest.mark.parametrize("nu", ALL_ORDERS)
def test_i_scaled_accuracy_vs_scipy(nu):
    x = np.logspace(-6, 6, 300)
    ours = sf.bessel_i(nu, x, scaled=True)
    ref = sp.ive(nu, x)
    assert np.max(np.abs(ours / ref - 1.0)) < 1e-12


def test_i_overflow_raises_distinctly():
    with pytest.raises(OverflowError):
        sf.bessel_i(0.0, 800.0)
    # scaled variant keeps working arbitrarily far out
    assert sf.bessel_i(0.0, 800.0, scaled=True) == pytest.approx(
        sp.ive(0, 800.0), rel=1e-13
    )
    with pytest.raises(DomainError):
        sf.bessel_i(0.0, -0.5)


# ---------------------------------------------------------------- bessel_k


def test_k_half_closed_form_value():
    got = sf.bessel_k(0.5, 1.0)
    assert got == pytest.approx(math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-14)


def test_k_half_at_subnormal_x_is_finite():
    # 1/x overflows here, sqrt(pi / 2x) does not
    for x in (5e-310, 5e-324):
        want = math.sqrt(math.pi / 2.0) / math.sqrt(x)
        assert sf.bessel_k(0.5, x, scaled=True) == pytest.approx(want, rel=1e-15)
        assert sf.bessel_k(0.5, x) == pytest.approx(want, rel=1e-15)
    got = sf.bessel_k(0.5, np.array([5e-310, 1.0]), scaled=True)
    assert got[1] == sf.bessel_k(0.5, 1.0, scaled=True)


def test_k_negative_order_reflection():
    for x in (0.3, 2.0, 40.0):
        assert sf.bessel_k(-1.0, x) == sf.bessel_k(1.0, x)
        assert sf.bessel_k(-0.5, x) == sf.bessel_k(0.5, x)


def test_k0_small_x_log_form():
    # K_0(x) ~ -ln(x/2) - gamma near the origin
    x = 1e-3
    approx = -math.log(0.5 * x) - sf.EULER_GAMMA
    assert sf.bessel_k(0.0, x) == pytest.approx(approx, rel=1e-3)


@pytest.mark.parametrize("nu", ALL_ORDERS)
def test_k_accuracy_vs_scipy(nu):
    x = np.logspace(-6, math.log10(600.0), 250)
    ours = sf.bessel_k(nu, x)
    ref = sp.kv(abs(nu), x)
    assert np.max(np.abs(ours / ref - 1.0)) < 1e-12


@pytest.mark.parametrize("nu", ALL_ORDERS)
def test_k_scaled_accuracy_vs_scipy(nu):
    x = np.logspace(-6, 6, 300)
    ours = sf.bessel_k(nu, x, scaled=True)
    ref = sp.kve(abs(nu), x)
    assert np.max(np.abs(ours / ref - 1.0)) < 1e-12


def test_k_domain_error():
    with pytest.raises(DomainError):
        sf.bessel_k(0.0, 0.0)
    with pytest.raises(DomainError):
        sf.bessel_k(1.0, -2.0)


def test_k_large_x_three_term_expansion():
    # for x >= 50 the three-term large-x expansion holds to 1e-6 relative
    for nu in (0.0, 0.5, 1.0, 2.0):
        for x in (50.0, 120.0, 400.0):
            mu4 = 4.0 * nu * nu
            series = (
                1.0
                + (mu4 - 1.0) / (8.0 * x)
                + (mu4 - 1.0) * (mu4 - 9.0) / (2.0 * (8.0 * x) ** 2)
            )
            expansion = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) * series
            assert sf.bessel_k(nu, x) == pytest.approx(expansion, rel=1e-6)


# ------------------------------------------------------------- identities


def test_wronskian_identity():
    # K_{nu+1} I_nu + K_nu I_{nu+1} = 1/x to 1e-12 relative
    x = np.logspace(-2, 2, 100)
    for nu in (0.0, 0.5, 1.0, 1.5):
        lhs = sf.bessel_k(nu + 1.0, x) * sf.bessel_i(nu, x) + sf.bessel_k(
            nu, x
        ) * sf.bessel_i(nu + 1.0, x)
        assert np.max(np.abs(lhs - 1.0 / x) * x) < 1e-12


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0])
def test_recurrence_derivatives_by_finite_difference(nu):
    xs = np.array([0.4, 1.1, 3.0, 7.5, 16.0])
    h = 1e-6 * xs
    di = (sf.bessel_i(nu, xs + h) - sf.bessel_i(nu, xs - h)) / (2.0 * h)
    dk = (sf.bessel_k(nu, xs + h) - sf.bessel_k(nu, xs - h)) / (2.0 * h)
    # the four recurrences for I' and K'
    forms = [
        (di, sf.bessel_i(nu + 1.0, xs) + (nu / xs) * sf.bessel_i(nu, xs)),
        (dk, (nu / xs) * sf.bessel_k(nu, xs) - sf.bessel_k(nu + 1.0, xs)),
    ]
    if nu >= 0.0 and nu - 1.0 >= -1.0:
        forms.append(
            (di, sf.bessel_i(nu - 1.0, xs) - (nu / xs) * sf.bessel_i(nu, xs))
        )
        forms.append(
            (dk, -sf.bessel_k(nu - 1.0, xs) - (nu / xs) * sf.bessel_k(nu, xs))
        )
    for fd, closed in forms:
        assert np.max(np.abs(fd / closed - 1.0)) < 1e-6


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.0])
def test_integral_identity(nu):
    # int_a^b x^nu I_{nu-1}(x) dx = b^nu I_nu(b) - a^nu I_nu(a)
    a, b = 0.3, 4.0
    grid, weights = np.polynomial.legendre.leggauss(60)
    x = 0.5 * (b - a) * grid + 0.5 * (b + a)
    quad = 0.5 * (b - a) * np.sum(weights * x**nu * sf.bessel_i(nu - 1.0, x))
    closed = b**nu * sf.bessel_i(nu, b) - a**nu * sf.bessel_i(nu, a)
    assert quad == pytest.approx(closed, rel=1e-12)
    quad_k = 0.5 * (b - a) * np.sum(weights * x**nu * sf.bessel_k(nu - 1.0, x))
    closed_k = -(b**nu * sf.bessel_k(nu, b)) + a**nu * sf.bessel_k(nu, a)
    assert quad_k == pytest.approx(closed_k, rel=1e-12)


# ------------------------------------------------------------ ratio family


def test_ratio_identities_half_orders():
    xs = np.array([0.2, 0.9, 2.0, 5.0, 20.0])
    # K_{3/2}/(x K_{1/2}) = (1 + 1/x)/x
    got = sf.ratio_k_over_xk(0.5, xs)
    assert np.allclose(got, (1.0 + 1.0 / xs) / xs, rtol=1e-13)
    # K_{5/2}/(x K_{3/2}) = (x^2 + 3x + 3)/(x^2 (x + 1))
    got = sf.ratio_k_over_xk(1.5, xs)
    assert np.allclose(got, (xs**2 + 3 * xs + 3) / (xs**2 * (xs + 1.0)), rtol=1e-13)
    # K_{3/2}/K_{1/2} at x = 2 is 1.5
    assert sf.ratio_k(0.5, 2.0) == pytest.approx(1.5, rel=1e-14)


def test_ratio_k_over_xk_large_x_asymptote():
    # w(x) = (1/x)(1 + (2 nu + 1)/(2x) + O(x^-2)): the K ratio exceeds one,
    # so the first-order correction is positive
    for nu in (0.0, 1.0):
        x = 200.0
        expect = (1.0 / x) * (1.0 + (2.0 * nu + 1.0) / (2.0 * x))
        assert sf.ratio_k_over_xk(nu, x) == pytest.approx(expect, rel=1e-4)


def test_ratio_k_exceeds_one():
    x = np.logspace(-2, 2, 40)
    assert np.all(sf.ratio_k(0.0, x) > 1.0)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
@pytest.mark.parametrize(
    "fn", [sf.ratio_k_over_xk, sf.ratio_k, sf.ratio_k_inverse]
)
def test_ratio_families_strictly_decreasing(nu, fn):
    x = np.logspace(-3, 3, 120)
    vals = fn(nu, x)
    assert np.all(np.diff(vals) < 0.0)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
def test_ratio_ode_residual(nu):
    # 2(nu+1) w + x w' - x^2 w^2 + 1 = 0 with w' by central difference;
    # residual scaled by the largest participating term
    xs = np.geomspace(0.5, 50.0, 25)
    h = 1e-6 * xs
    w = sf.ratio_k_over_xk(nu, xs)
    wp = (sf.ratio_k_over_xk(nu, xs + h) - sf.ratio_k_over_xk(nu, xs - h)) / (2 * h)
    residual = 2.0 * (nu + 1.0) * w + xs * wp - xs**2 * w**2 + 1.0
    scale = np.maximum(np.abs(xs**2 * w**2), 1.0)
    assert np.max(np.abs(residual) / scale) < 1e-6


def test_ratio_domain_errors():
    with pytest.raises(DomainError):
        sf.ratio_k_over_xk(0.0, 0.0)
    with pytest.raises(DomainError):
        sf.ratio_k_over_xk(-0.5, 1.0)


# --------------------------------------------------- cross-form consistency


def test_half_integer_forms_consistent_with_closed_expressions():
    # sampled away from the zeros of the oscillatory forms
    xs = [0.3, 0.7, 1.9, 2.7, 5.3, 8.1, 14.2]
    for x in xs:
        s = math.sqrt(2.0 / (math.pi * x))
        assert sf.bessel_j(0.5, x) == pytest.approx(s * math.sin(x), rel=1e-14)
        assert sf.bessel_j(-0.5, x) == pytest.approx(s * math.cos(x), rel=1e-14)
        assert sf.bessel_i(0.5, x) == pytest.approx(s * math.sinh(x), rel=1e-14)
        assert sf.bessel_i(-0.5, x) == pytest.approx(s * math.cosh(x), rel=1e-14)
        assert sf.bessel_k(0.5, x) == pytest.approx(
            math.sqrt(math.pi / (2.0 * x)) * math.exp(-x), rel=1e-14
        )


# the log grid, uniform draws across every evaluator's range (dense enough
# to see a one-ulp difference in exp or log), each crossover (K series /
# continued fraction at 2, longdouble J series at 4, J series / Miller at
# 12, I and K expansions at 30) with its two floating-point neighbours, and
# a NaN, which matches no piece and must give NaN on both routes
_CROSSOVERS = [2.0, 4.0, 12.0, 30.0]
AGREEMENT_X = np.append(np.unique(np.concatenate([
    np.logspace(-3, 3, 37),
    np.random.default_rng(8).uniform(0.0, 4.0, 120),
    np.random.default_rng(9).uniform(4.0, 40.0, 120),
    _CROSSOVERS,
    [np.nextafter(c, side) for c in _CROSSOVERS for side in (0.0, math.inf)],
])), np.nan)


def _agreement_cases():
    """(id, evaluator, x) for every public function, order and scaling; a
    K pair is stacked on a leading axis.  Raw I stops short of overflow."""
    cases = []
    below_overflow = AGREEMENT_X[~(AGREEMENT_X >= 700.0)]
    for nu in ALL_ORDERS:
        cases.append((f"J{nu}", lambda x, nu=nu: sf.bessel_j(nu, x), AGREEMENT_X))
        for scaled in (False, True):
            tag = "e" if scaled else ""
            cases.append((
                f"I{tag}{nu}",
                lambda x, nu=nu, s=scaled: sf.bessel_i(nu, x, scaled=s),
                AGREEMENT_X if scaled else below_overflow,
            ))
            cases.append((
                f"K{tag}{nu}",
                lambda x, nu=nu, s=scaled: sf.bessel_k(nu, x, scaled=s),
                AGREEMENT_X,
            ))
        if nu + 1.0 in ALL_ORDERS:
            cases.append((
                f"Kpair{nu}", lambda x, nu=nu: np.array(sf.bessel_k_pair(nu, x)), AGREEMENT_X
            ))
        if nu >= 0.0 and nu + 1.0 in ALL_ORDERS:
            for fn in (sf.ratio_k_over_xk, sf.ratio_k, sf.ratio_k_inverse):
                cases.append((
                    f"{fn.__name__}{nu}", lambda x, nu=nu, fn=fn: fn(nu, x), AGREEMENT_X
                ))
    return cases


def test_array_scalar_agreement():
    # a size-one input takes the float route; its value must equal the
    # array route's bit for bit, whether it comes as a float or as a
    # one-element array, and keep the input's form
    for name, fn, xs in _agreement_cases():
        vector = np.asarray(fn(xs))
        floats = [fn(float(x)) for x in xs]
        singles = [np.asarray(fn(np.array([x]))) for x in xs]
        assert all(np.ndim(v) == vector.ndim - 1 for v in floats), name
        assert all(v.shape == vector.shape[:-1] + (1,) for v in singles), name
        assert np.array_equal(
            vector, np.stack([np.asarray(v) for v in floats], axis=-1), equal_nan=True
        ), name
        assert np.array_equal(vector, np.concatenate(singles, axis=-1), equal_nan=True), name
        assert np.isnan(vector[..., -1]).all(), name


def test_k0_at_subnormal_x_is_finite_and_silent():
    # K_1's 1/x overflows below x ~ 5.6e-309; K_0 is still finite there, and
    # neither route warns (the suite turns RuntimeWarnings into errors)
    for x in (5e-310, 1e-320):
        want = sp.k0e(x)
        assert sf.bessel_k(0.0, x, scaled=True) == pytest.approx(want, rel=1e-14)
        assert sf.bessel_k(0.0, x) == pytest.approx(sp.k0(x), rel=1e-14)
        got = sf.bessel_k(0.0, np.array([x, 1.0]), scaled=True)
        assert got[0] == pytest.approx(want, rel=1e-14)
        assert got[1] == sf.bessel_k(0.0, 1.0, scaled=True)
        k0, _ = sf.bessel_k_pair(0.0, x)
        assert k0 == sf.bessel_k(0.0, x, scaled=True)


def test_k0_at_the_smallest_subnormal_is_finite_and_silent():
    # 0.5 * 5e-324 rounds to 0, so log(x/2) must come from log(x) - log 2;
    # scipy's k0 and k0e return inf here, so the oracle is the leading term
    # -(log(x/2) + gamma), exact at this x (I_0 = 1 and the series is 0)
    x = 5e-324
    want = -(math.log(x) - math.log(2.0) + sf.EULER_GAMMA)
    assert want == pytest.approx(744.5560034370395, rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sf.bessel_k(0.0, x, scaled=True) == pytest.approx(want, rel=1e-15)
        assert sf.bessel_k(0.0, x) == pytest.approx(want, rel=1e-15)
        got = sf.bessel_k(0.0, np.array([x, 1e-300, 1.0]), scaled=True)
        assert got[0] == pytest.approx(want, rel=1e-15)
        # the other elements equal their float-route values
        assert got[1] == sf.bessel_k(0.0, 1e-300, scaled=True)
        assert got[2] == sf.bessel_k(0.0, 1.0, scaled=True)
        k0, k1 = sf.bessel_k_pair(0.0, x)
        assert k0 == pytest.approx(want, rel=1e-15) and k1 == math.inf
        k0s, k1s = sf.bessel_k_pair(0.0, np.array([x, 1.0]))
        assert k0s[0] == k0 and k1s[0] == math.inf
