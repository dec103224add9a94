"""Special-function accuracy and identity tests.

scipy.special serves as the independent high-accuracy oracle for raw
values; every identity test (Wronskian, recurrences, ratio monotonicity,
the ratio ODE) exercises only this package's own routines.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
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


@pytest.mark.parametrize("nu", [0, 1, 2, 3])
def test_j_integer_order_at_large_x_vs_mpmath(nu):
    # Hankel's expansion from x = 1e3 on; relative to the envelope, since
    # near its zeros J itself has no relative accuracy to keep
    import mpmath as mp

    mp.mp.dps = 40
    for x in (1e4, 1e6, 1e10, 1e20, 1e300):
        envelope = mp.sqrt(2 / (mp.pi * mp.mpf(x)))
        ref = mp.besselj(nu, mp.mpf(x))
        assert float(abs(sf.bessel_j(nu, x) - ref) / envelope) < 1e-14, x


@pytest.mark.parametrize("nu", [0, 1, 2, 3])
def test_j_integer_order_between_1e3_and_1e4_vs_mpmath(nu):
    # Hankel's expansion with four terms per sum takes over at 1e3; the
    # downward recurrence it replaced erred by up to 5e-14 of the envelope
    # on [1e3, 1e4), the expansion by about 5e-16
    import mpmath as mp

    assert sf._J_HANKEL_CUT == 1e3
    mp.mp.dps = 40
    xs = np.random.default_rng(52).uniform(1e3, 1e4, 300).tolist()
    xs += [1e3, np.nextafter(1e4, 0.0)]
    worst = 0.0
    for x in xs:
        envelope = mp.sqrt(2 / (mp.pi * mp.mpf(x)))
        ref = mp.besselj(nu, mp.mpf(x))
        worst = max(worst, float(abs(sf.bessel_j(nu, x) - ref) / envelope))
    assert worst < 1e-15


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
    # I_{-1/2}(x) = sqrt(2 / (pi x)) cosh x diverges at 0
    with pytest.raises(DomainError, match="diverges"):
        sf.bessel_i(-0.5, 0.0)
    # the expansions' envelopes stay finite up to the largest double
    big = np.finfo(np.float64).max
    assert sf.bessel_i(0.0, big, scaled=True) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi) / math.sqrt(big), rel=1e-14)
    assert sf.bessel_k(0.0, big, scaled=True) == pytest.approx(
        math.sqrt(math.pi / 2.0) / math.sqrt(big), rel=1e-14)
    with pytest.raises(OverflowError):
        sf.bessel_i(0.0, big)


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


@pytest.mark.parametrize("nu", [1.5, 2.0, 2.5, 3.0, 3.5])
def test_k_beyond_double_range_near_zero_is_a_silent_inf(nu):
    # e^x K_nu(x) ~ x^-nu exceeds the double range near 0 for these orders:
    # the value is inf on both routes, and no overflow warning is raised
    xs = np.concatenate([np.geomspace(5e-324, 1e-40, 300), [1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scaled in (False, True):
            arr = sf.bessel_k(nu, xs, scaled=scaled)
            one = [sf.bessel_k(nu, x, scaled=scaled) for x in xs.tolist()]
            assert np.array_equal(arr, one)
            assert np.isinf(sf.bessel_k(nu, 1e-300, scaled=scaled))
            assert np.isinf(arr[0]) and np.all(np.isfinite(arr[-40:]))
            # the finite values are those of a call without tiny x
            assert np.array_equal(arr[-40:], sf.bessel_k(nu, xs[-40:], scaled=scaled))


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


def test_order_minus_half_at_the_smallest_subnormal_vs_mpmath():
    # x / 2 rounds to 0 at x = 5e-324, where the series starts from
    # x^nu 2^-nu; J and I of order -1/2 are sqrt(2 / (pi x)) = 3.6e161
    # there (this raised ArithmeticError), and every other element keeps its bits
    import mpmath as mp

    mp.mp.dps = 40
    x = 5e-324
    others = np.array([1e-310, 2.2e-308, 1e-300, 0.3, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, ref in ((sf.bessel_j, mp.besselj), (sf.bessel_i, mp.besseli)):
            want = float(ref(-0.5, mp.mpf(x)))
            assert want == pytest.approx(math.sqrt(2.0 / math.pi) / math.sqrt(x), rel=1e-15)
            got = fn(-0.5, x)
            assert type(got) is float and got == pytest.approx(want, rel=1e-15)
            mixed = fn(-0.5, np.concatenate([[x], others, [x]]))
            assert mixed[0] == mixed[-1] == got
            assert np.array_equal(mixed[1:-1], fn(-0.5, others))
        assert sf.bessel_i(-0.5, x, scaled=True) == sf.bessel_i(-0.5, x)


RATIO_ORDERS = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]


@pytest.mark.parametrize("nu", RATIO_ORDERS)
def test_ratio_families_below_the_k_overflow_cut_vs_mpmath(nu):
    # below 1e-80 K of the upper order can leave the double range, and the
    # ratios come from the leading small-x term instead of the scaled pair;
    # a ratio past the double range is inf, silently, on both routes
    import mpmath as mp

    mp.mp.dps = 40
    xs = [1e-81, 1e-100, 1e-200, 1e-300, 2.2e-308, 5e-324]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in xs:
            r = mp.besselk(nu + 1, mp.mpf(x)) / mp.besselk(nu, mp.mpf(x))
            for fn, want in ((sf.ratio_k, r), (sf.ratio_k_inverse, 1 / (x * r)),
                             (sf.ratio_k_over_xk, r / x)):
                got, want = fn(nu, x), float(want)
                assert type(got) is float
                assert fn(nu, np.array([x, 1.0]))[0] == got
                if math.isinf(want):
                    assert got == want, (fn.__name__, x)
                else:
                    assert got == pytest.approx(want, rel=1e-15), (fn.__name__, x)


@pytest.mark.parametrize("nu", RATIO_ORDERS)
def test_ratio_families_at_and_above_the_k_overflow_cut_keep_the_pair_quotient(nu):
    # from 1e-80 on, each family is the quotient of the scaled pair, also
    # where the call holds x below the cut
    xs = np.array([sf._K_OVERFLOW_X, np.nextafter(sf._K_OVERFLOW_X, 1.0), 1e-20, 0.5, 3.0, 40.0])
    lower, upper = sf.bessel_k_pair(nu, xs)
    mixed = np.concatenate([[1e-100], xs])
    for fn, want in ((sf.ratio_k, upper / lower), (sf.ratio_k_inverse, lower / (xs * upper)),
                     (sf.ratio_k_over_xk, upper / (xs * lower))):
        assert np.array_equal(fn(nu, xs), want)
        assert np.array_equal(fn(nu, mixed)[1:], want)
        assert [fn(nu, x) for x in xs.tolist()] == want.tolist()


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


# the log grid, a few points far out up to the largest double (where the
# large-x expansion's 8 k x overflows), uniform draws across every
# evaluator's range (dense enough to see a one-ulp difference in exp or
# log), each crossover (K series / continued fraction at 2, longdouble J
# series at 4, J series / Miller at 12, I and K expansions at 30, Miller /
# Hankel's J expansion at 1e3) with its two floating-point neighbours, and
# a NaN, which matches no piece and must give NaN on both routes
_CROSSOVERS = [2.0, 4.0, 12.0, 30.0, sf._J_HANKEL_CUT]
_CROSSOVER_X = [*_CROSSOVERS,
                *[np.nextafter(c, side) for c in _CROSSOVERS for side in (0.0, math.inf)]]
AGREEMENT_X = np.append(np.unique(np.concatenate([
    np.logspace(-3, 3, 37),
    [1e6, 1e20, 1e300, np.finfo(np.float64).max],
    np.random.default_rng(8).uniform(0.0, 4.0, 120),
    np.random.default_rng(9).uniform(4.0, 40.0, 120),
    _CROSSOVER_X,
])), np.nan)


def _quiet(fn):
    """fn with overflow and invalid operations unreported: below x = 1e-300
    a ratio of K may divide inf by inf or overflow."""
    def call(nu, x):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(nu, x)
    return call


def _public_calls():
    """(id, evaluator, zero) for every public function, order and scaling;
    zero says whether x = 0 is in the domain.  A K pair is stacked on a
    leading axis.  Raw I is called below its overflow."""
    calls = []
    for nu in ALL_ORDERS:
        zero = nu >= 0.0
        calls += [
            (f"J{nu}", lambda x, nu=nu: sf.bessel_j(nu, x), zero),
            (f"I{nu}", lambda x, nu=nu: sf.bessel_i(nu, np.minimum(x, 700.0)), zero),
            (f"Ie{nu}", lambda x, nu=nu: sf.bessel_i(nu, x, scaled=True), zero),
            (f"K{nu}", lambda x, nu=nu: sf.bessel_k(nu, x), False),
            (f"Ke{nu}", lambda x, nu=nu: sf.bessel_k(nu, x, scaled=True), False),
        ]
        if nu + 1.0 in ALL_ORDERS:
            calls.append((f"Kpair{nu}", lambda x, nu=nu: np.array(sf.bessel_k_pair(nu, x)),
                          False))
        if nu >= 0.0 and nu + 1.0 in ALL_ORDERS:
            for fn in (sf.ratio_k_over_xk, sf.ratio_k, sf.ratio_k_inverse):
                calls.append((f"{fn.__name__}{nu}", lambda x, nu=nu, fn=_quiet(fn): fn(nu, x),
                              False))
    return calls


_PUBLIC_CALLS = _public_calls()


def test_array_scalar_agreement():
    # a size-one input takes the float route; its value must equal the
    # array route's bit for bit, whether it comes as a float or as a
    # one-element array, and keep the input's form
    xs = AGREEMENT_X
    for name, fn, _ in _PUBLIC_CALLS:
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


# ------------------------------------------- every array element against its float call

# points within 1e-6 of the zeros of J_0, J_1 and J_2 and within 1e-9 of
# the zero of the K_1 series sum near 0.9308, where an element's bits depend
# on how many terms are summed, each crossover with its floating-point
# neighbours, points within 1e-6 of K's crossovers at 2 and 30, subnormals
# and uniform draws
_ZEROS_TO_45 = sorted(z for n in (0, 1, 2) for z in sp.jn_zeros(n, 15).tolist() if z <= 45.0)
# sum_m (H_m + H_{m+1} - 2 gamma) (x^2/4)^m / (m! (m+1)!) = 0, by mpmath
_K1_SUM_ZERO = 0.930778009682853
_ELEMENT_X = st.one_of(
    st.builds(lambda z, d: z + d, st.sampled_from(_ZEROS_TO_45), st.floats(-1e-6, 1e-6)),
    st.builds(lambda d: _K1_SUM_ZERO + d, st.floats(-1e-9, 1e-9)),
    st.builds(lambda c, d: c + d, st.sampled_from([2.0, 30.0]), st.floats(-1e-6, 1e-6)),
    st.sampled_from(_CROSSOVER_X),
    st.floats(min_value=5e-324, max_value=2.2e-308),  # subnormals
    st.floats(min_value=0.0, max_value=45.0, exclude_min=True),
)


def _with_zero(x):
    """x after a 0, for the calls whose domain holds 0."""
    return np.append(0.0, x)


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, st.integers(2, 16), elements=_ELEMENT_X))
@example(np.array([2.404825, 3.99]))  # 2.404825 was 3 ulp below its float call
# the last element of each call is the slowest of a loop: of the K series
# just below 2, of the continued fraction at 2, of the large-x expansion at 30
@example(np.array([_K1_SUM_ZERO, 1e-3, np.nextafter(2.0, 0.0)]))
@example(np.array([np.nextafter(30.0, 0.0), 2.0 + 1e-9, 2.0]))
@example(np.array([1e6, 30.0 + 1e-9, 30.0]))
def test_every_array_element_equals_its_float_call(x):
    with_zero = _with_zero(x)
    for name, fn, zero in _PUBLIC_CALLS:
        at = with_zero if zero else x
        vector = np.asarray(fn(at))
        floats = np.stack([np.asarray(fn(v)) for v in at.tolist()], axis=-1)
        assert np.array_equal(vector, floats, equal_nan=True), name


# 2001 points about the zero of J_0 at 2.404825, the last on it, and 201
# about the zero of the K_1 series sum
_NEAR_J0_ZERO = np.append(np.linspace(2.404825 - 1e-6, 2.404825 + 1e-6, 2000), 2.404825)
_NEAR_K1_SUM_ZERO = np.linspace(_K1_SUM_ZERO - 1e-9, _K1_SUM_ZERO + 1e-9, 201)


@settings(max_examples=10, deadline=None)
@given(hnp.arrays(np.float64, st.integers(2, 32), elements=_ELEMENT_X), _ELEMENT_X)
@example(_NEAR_J0_ZERO, 3.99)  # 3.99 once moved the element at 2.404825 by 3 ulp
@example(_NEAR_K1_SUM_ZERO, np.nextafter(2.0, 0.0))  # the K series's slowest element
@example(np.array([np.nextafter(30.0, 0.0), 2.5]), 2.0)  # the continued fraction's
def test_appending_an_element_moves_no_other(x, extra):
    longer = np.append(x, extra)
    with_zero, longer_with_zero = _with_zero(x), _with_zero(longer)
    for name, fn, zero in _PUBLIC_CALLS:
        got = np.asarray(fn(longer_with_zero if zero else longer))
        want = np.asarray(fn(with_zero if zero else x))
        assert np.array_equal(got[..., :-1], want, equal_nan=True), name
