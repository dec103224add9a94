"""Convolution tests: the closed form against the quadrature route, both
against brute-force integration oracles, and the flock verification gate."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import ive as scipy_ive, k0 as scipy_k0, k1 as scipy_k1
from scipy.special import kv as scipy_kv, kve as scipy_kve

from flockdyn import specfun as sf
from flockdyn.convolution import (
    _MAX_SPLITS,
    ConvolutionReport,
    convolution_closed,
    convolution_closed_at,
    convolution_quadrature,
    verify_flock,
)
from flockdyn.errors import (
    OutOfSupportError,
    QuadratureNonConvergenceError,
    VerificationFailureError,
)
from flockdyn.potentials import ModelParams, QuasiMorse, Sign, aggregate_param
from flockdyn.solver import _radial_j, density_eval, solve_profile

REF3D = ModelParams(3, 1.255, 0.8, 0.2)
REF2D = ModelParams(2, 10.0 / 9.0, 0.75, 0.5)


def oscillatory_density(params, mu1, mu2):
    _, a = aggregate_param(params)

    def rho(s):
        s = np.asarray(s, dtype=np.float64)
        return mu1 * _radial_j(params.n, a, s) + mu2

    return rho


# ----------------------------------------------------------- basic contract


def test_zero_density_gives_zero():
    rho = lambda s: np.zeros_like(np.asarray(s, dtype=np.float64))
    assert convolution_quadrature(rho, QuasiMorse(REF3D), 1.0, 0.7) == 0.0


def test_closed_form_raises_outside_support():
    with pytest.raises(OutOfSupportError):
        convolution_closed_at(REF3D, 1.0, 0.1, 0.5, 1.5)
    prof = solve_profile(REF3D)
    with pytest.raises(OutOfSupportError):
        convolution_closed(prof, prof.R_star * 1.01)


def test_quadrature_valid_outside_support():
    rho = lambda s: np.ones_like(np.asarray(s, dtype=np.float64))
    inside = convolution_quadrature(rho, QuasiMorse(REF3D), 1.0, 0.5)
    outside = convolution_quadrature(rho, QuasiMorse(REF3D), 1.0, 2.5)
    assert np.isfinite(outside)
    assert abs(outside) < abs(inside)  # interaction decays with distance


def test_quadrature_radius_edge_values():
    rho = lambda s: np.ones_like(np.asarray(s, dtype=np.float64))
    for params in (REF3D, REF2D):
        pot = QuasiMorse(params)
        # a NaN radius once stalled the adaptive pass on [0, nan]
        with pytest.raises(OutOfSupportError):
            convolution_quadrature(rho, pot, 1.0, math.nan)
        with pytest.raises(OutOfSupportError):
            convolution_quadrature(rho, pot, 1.0, [0.5, math.nan])
        assert convolution_quadrature(rho, pot, 1.0, math.inf) == 0.0
        # subnormal radii once overflowed K_{1/2} at the nodes inside (0, r)
        at_zero = convolution_quadrature(rho, pot, 1.0, 0.0)
        assert convolution_quadrature(rho, pot, 1.0, 1e-313) == at_zero


def counted(rho):
    """rho and a one-element list holding the number of points it was given."""
    points = [0]

    def wrapped(s):
        points[0] += np.size(s)
        return rho(s)

    return wrapped, points


def test_nonfinite_density_raises_on_the_first_pass():
    rho, points = counted(lambda s: np.where(s > 0.6, math.nan, 1.0))
    radii = np.linspace(0.0, 1.0, 5)
    match = r"not finite on \[0\.5, 0\.75\] \(depth 0, 4 active panels\)"
    with pytest.raises(QuadratureNonConvergenceError, match=match):
        convolution_quadrature(rho, QuasiMorse(REF2D), 1.0, radii)
    assert points[0] == 15 * 4  # one Gauss rule on each of the 4 panels


@pytest.mark.parametrize("params", [REF3D, REF2D])
def test_nonintegrable_density_raises_within_the_split_budget(params):
    # without a budget, rounding noise near the pole doubles the active
    # panels at every level down to the depth limit
    rho, points = counted(lambda s: 1.0 / np.abs(s - 0.3))
    with pytest.raises(QuadratureNonConvergenceError, match="active panels"):
        convolution_quadrature(rho, QuasiMorse(params), 1.0, 0.5)
    # 2 starting panels: a first pass, then both halves of every active panel
    assert points[0] <= 15 * 2 + 30 * (2 + 2 * _MAX_SPLITS)


def test_large_decay_rate_raises_within_the_split_budget():
    # the documented limit of the quadrature route: a constant density on
    # R = 1 at r = 0.5 converges at k / ell = 3000 and stops at 4000
    params = ModelParams(3, 4.0, 0.5, 1500.0)
    closed = convolution_closed_at(params, 1.0, 0.0, 1.0, 0.5, case=Sign.ZERO)
    quad = convolution_quadrature(np.ones_like, QuasiMorse(params), 1.0, 0.5)
    assert quad == pytest.approx(closed, rel=1e-8)
    rho, points = counted(np.ones_like)
    with pytest.raises(QuadratureNonConvergenceError, match="active panels"):
        convolution_quadrature(rho, QuasiMorse(ModelParams(3, 4.0, 0.5, 2000.0)), 1.0, 0.5)
    assert points[0] <= 15 * 2 + 30 * (2 + 2 * _MAX_SPLITS)


# ------------------------------------------------- solved-profile behaviour


@pytest.mark.parametrize("params", [REF3D, REF2D])
def test_closed_form_collapses_to_d_at_solution(params):
    prof = solve_profile(params)
    grid = np.linspace(0.0, prof.R_star, 64)
    vals = convolution_closed(prof, grid)
    assert np.max(np.abs(vals - prof.D)) <= 1e-9 * abs(prof.D)


@pytest.mark.parametrize("params", [REF3D, REF2D])
def test_quadrature_matches_d_at_solution(params):
    prof = solve_profile(params)
    rho = lambda s: density_eval(prof, s)
    pot = QuasiMorse(params)
    for r in (0.0, 0.5 * prof.R_star, prof.R_star):
        got = convolution_quadrature(rho, pot, prof.R_star, r)
        assert got == pytest.approx(prof.D, rel=1e-6)


@pytest.mark.parametrize("params", [REF3D, REF2D])
def test_verify_flock_passes_for_paper_parameters(params):
    report = verify_flock(solve_profile(params), grid_size=256)
    scale = abs(report.D)
    assert report.sup_dev_closed <= 1e-9 * scale
    assert report.sup_dev_quad <= 1e-6 * scale
    assert report.cross_dev <= 1e-6 * scale


def test_verify_flock_rejects_perturbed_radius():
    prof = solve_profile(REF3D)
    from flockdyn.solver import FlockProfile, boundary_coeff, _mass_closed

    # shift R by 1% of the bracket width and recompute mu from one row only
    from flockdyn.solver import find_support_radius

    _, bracket = find_support_radius(REF3D)
    bad_r = prof.R_star + 0.01 * (bracket.hi - bracket.lo)
    b1 = boundary_coeff(REF3D, Sign.POSITIVE, 1.0, bad_r)
    mu1, mu2 = 1.0, -b1
    total = _mass_closed(REF3D.n, prof.a, bad_r, mu1, mu2)
    bad = FlockProfile(
        params=REF3D, A=prof.A, a=prof.a, R_star=bad_r, mu1=mu1 / total,
        mu2=mu2 / total, D=(mu2 / total) * (REF3D.C * REF3D.ell**3 - 1.0) / REF3D.k**2,
    )
    with pytest.raises(VerificationFailureError) as err:
        verify_flock(bad, grid_size=64)
    assert err.value.report.sup_dev_closed > 0.0


# --------------------------------------------- closed vs quadrature oracles


@pytest.mark.parametrize("params", [REF3D, REF2D])
def test_constant_density_closed_vs_quadrature(params):
    rho = lambda s: 0.7 * np.ones_like(np.asarray(s, dtype=np.float64))
    R = 1.7
    for r in (0.0, 0.4, 1.0, 0.999 * R):
        closed = convolution_closed_at(params, R, 0.0, 0.7, r, case=Sign.ZERO)
        quad = convolution_quadrature(rho, QuasiMorse(params), R, r)
        assert closed == pytest.approx(quad, rel=1e-8)


@pytest.mark.parametrize("params", [REF3D, REF2D])
def test_quadratic_density_closed_vs_quadrature(params):
    m1, m2 = 0.35, 0.9
    rho = lambda s: m1 * np.asarray(s, dtype=np.float64) ** 2 + m2
    R = 1.3
    for r in (0.0, 0.5, 1.0, 1.29):
        closed = convolution_closed_at(params, R, m1, m2, r, case=Sign.ZERO)
        quad = convolution_quadrature(rho, QuasiMorse(params), R, r)
        assert closed == pytest.approx(quad, rel=1e-8)


@pytest.mark.parametrize("params", [REF3D, REF2D])
def test_oscillatory_density_closed_vs_quadrature(params):
    rho = oscillatory_density(params, 0.8, 0.25)
    R = 0.9
    for r in (0.0, 0.3, 0.7, 0.89):
        closed = convolution_closed_at(params, R, 0.8, 0.25, r)
        quad = convolution_quadrature(rho, QuasiMorse(params), R, r)
        assert closed == pytest.approx(quad, rel=1e-8)


@pytest.mark.parametrize(
    "params", [ModelParams(3, 3.0, 0.9, 0.5), ModelParams(2, 3.0, 0.8, 0.5)]
)
def test_exponential_density_closed_vs_quadrature(params):
    _, a = aggregate_param(params)
    nu = 0.5 * params.n - 1.0
    m1, m2 = 0.4, 0.6

    def rho(s):
        s = np.asarray(s, dtype=np.float64)
        out = np.empty_like(s)
        zero = s == 0.0
        out[zero] = (0.5 * a) ** nu / math.gamma(0.5 * params.n)
        nz = ~zero
        if np.any(nz):
            out[nz] = s[nz] ** (1.0 - 0.5 * params.n) * sf.bessel_i(nu, a * s[nz])
        return m1 * out + m2

    R = 1.2
    for r in (0.0, 0.5, 1.19):
        closed = convolution_closed_at(params, R, m1, m2, r)
        quad = convolution_quadrature(rho, QuasiMorse(params), R, r)
        assert closed == pytest.approx(quad, rel=1e-8)


def outside_reference(params, rho, R, r):
    """W * rho at r > R by scipy quadrature and scipy Bessel functions: only
    the inner integral of each screened convolution survives there."""
    n, C, ell, k = params.n, params.C, params.ell, params.k
    nu = 0.5 * n - 1.0

    def screened(kk):
        inner, _ = scipy_quad(
            lambda s: s ** (0.5 * n) * scipy_ive(nu, kk * s) * np.exp(-kk * (r - s))
            * float(rho(s)),
            0.0, R, epsabs=0.0, epsrel=1e-13, limit=200,
        )
        return r ** (1.0 - 0.5 * n) * scipy_kve(nu, kk * r) * inner

    return -screened(k) + C * ell ** (n - 2.0) * screened(k / ell)


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    C=st.floats(1.05, 6.0),
    t=st.floats(0.03, 0.97),
    k=st.floats(0.05, 2.0),
    fracs=st.lists(st.floats(0.0, 2.5), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_quadrature_on_unsorted_radii_with_duplicates(n, C, t, k, fracs, seed):
    # region I: ell strictly between its two boundary curves
    lo, hi = (C**-1.0, C ** (-1.0 / 3.0)) if n == 3 else (0.05, C**-0.5)
    params = ModelParams(n, C, lo + t * (hi - lo), k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # MultipleRootsWarning
        prof = solve_profile(params)
    R = prof.R_star
    rho = lambda s: density_eval(prof, s)
    shares = np.array(fracs + [0.0, 1.0, 1.6] + fracs[:2] + [1.0, 1.6, 0.0])
    r = np.random.default_rng(seed).permutation(shares * R)
    got = convolution_quadrature(rho, QuasiMorse(params), R, r)

    order = np.argsort(r, kind="stable")
    sorted_got = convolution_quadrature(rho, QuasiMorse(params), R, r[order])
    assert np.array_equal(got[order], sorted_got)
    for value in np.unique(r):
        same = got[r == value]
        assert np.all(same == same[0])
    inside = r <= R
    closed = convolution_closed(prof, r[inside])
    assert got[inside] == pytest.approx(closed, rel=1e-8)
    for ri, qi in zip(r[~inside], got[~inside]):
        assert qi == pytest.approx(outside_reference(params, rho, R, ri), rel=1e-8)


def test_wrhosol_mode_identity():
    # closed form == D + lambda1 r^{1-n/2} I(kr/ell) + lambda2 r^{1-n/2} I(kr)
    # at arbitrary non-root (R, mu): ties mode_coeffs to convolution_closed
    from flockdyn.solver import mode_coeffs

    for params in (REF3D, REF2D):
        R, m1, m2 = 1.1, 0.33, 0.77
        mc = mode_coeffs(params, R, m1, m2)
        n, C, ell, k = params.n, params.C, params.ell, params.k
        d0 = m2 * (C * ell**n - 1.0) / k**2
        for r in (0.2, 0.6, 1.0):
            mode_l = r ** (1 - 0.5 * n) * sf.bessel_i(0.5 * n - 1.0, k * r / ell)
            mode_1 = r ** (1 - 0.5 * n) * sf.bessel_i(0.5 * n - 1.0, k * r)
            lhs = convolution_closed_at(params, R, m1, m2, r)
            rhs = d0 + mc.lambda1 * mode_l + mc.lambda2 * mode_1
            assert lhs == pytest.approx(rhs, rel=1e-11)


# --------------------------------------------------------- brute-force rigs


def test_angular_reduction_3d_against_brute_force():
    # the sphere average of the rescaled screened kernel reduces to
    # -C ell^{n-2} (rs)^{1-n/2} I(k min / ell) K(k max / ell)
    from scipy.integrate import simpson

    rng = np.random.default_rng(8)
    C, ell, k = 1.3, 0.7, 0.9
    theta = np.linspace(0.0, math.pi, 20001)
    for _ in range(6):
        r, s = rng.uniform(0.1, 3.0, size=2)
        d = np.sqrt(r * r + s * s - 2 * r * s * np.cos(theta))
        v_ell = -C * ell * np.exp(-k * d / ell) / (4.0 * math.pi * d)
        brute = float(simpson(v_ell * 2.0 * math.pi * np.sin(theta), x=theta))
        lo, hi = min(r, s), max(r, s)
        closed = (
            -C
            * ell
            * (r * s) ** -0.5
            * sf.bessel_i(0.5, k * lo / ell)
            * sf.bessel_k(0.5, k * hi / ell)
        )
        assert brute == pytest.approx(closed, rel=1e-8)


def test_quadrature_3d_against_spherical_grid_oracle():
    # uniform density on a small ball, full spherical-coordinate double
    # integral of U(|x - y|) on a product grid
    params = ModelParams(3, 1.4, 0.6, 0.8)
    R = 0.8
    r = 0.35
    s_grid = np.linspace(1e-6, R, 1000)
    theta = np.linspace(0.0, math.pi, 1001)
    ss, tt = np.meshgrid(s_grid, theta, indexing="ij")
    d = np.sqrt(r * r + ss * ss - 2 * r * ss * np.cos(tt))
    u = (1.0 / (4 * math.pi * d)) * (
        params.C * params.ell * np.exp(-params.k * d / params.ell)
        - np.exp(-params.k * d)
    )
    integrand = u * 2.0 * math.pi * np.sin(tt) * ss * ss
    inner = np.trapezoid(integrand, theta, axis=1)
    brute = float(np.trapezoid(inner, s_grid))
    rho = lambda s: np.ones_like(np.asarray(s, dtype=np.float64))
    quad = convolution_quadrature(rho, QuasiMorse(params), R, r)
    assert quad == pytest.approx(brute, rel=1e-4)


def test_quadrature_2d_against_polar_grid_oracle():
    params = ModelParams(2, 1.5, 0.6, 0.9)
    R = 0.9
    r = 0.4
    s_grid = np.linspace(1e-9, R, 1200)
    phi = np.linspace(0.0, 2.0 * math.pi, 1201)
    ss, pp = np.meshgrid(s_grid, phi, indexing="ij")
    d = np.sqrt(r * r + ss * ss - 2 * r * ss * np.cos(pp))
    d = np.maximum(d, 1e-12)
    u = (1.0 / (2 * math.pi)) * (
        params.C * scipy_k0(params.k * d / params.ell) - scipy_k0(params.k * d)
    )
    inner = np.trapezoid(u, phi, axis=1)
    brute = float(np.trapezoid(inner * s_grid, s_grid))
    rho = lambda s: np.ones_like(np.asarray(s, dtype=np.float64))
    quad = convolution_quadrature(rho, QuasiMorse(params), R, r)
    assert quad == pytest.approx(brute, rel=1e-4)


# -------------------------------------------------------- branch continuity


@pytest.mark.parametrize("n", [2, 3])
def test_branch_continuity_across_zero(n):
    # the oscillatory and exponential branches converge to the quadratic
    # branch as A -> 0 when evaluated on matched densities
    ell, k = 0.6, 0.7
    m1, m2 = 0.45, 0.85
    R, r = 1.4, 0.8
    for sign in (+1.0, -1.0):
        C = (1.0 + 5e-5 * sign) * ell**-n
        params = ModelParams(n, C, ell, k)
        A, a = aggregate_param(params)
        assert 0.0 < abs(A) <= 1e-4
        c0 = (0.5 * a) ** (0.5 * n - 1.0) / math.gamma(0.5 * n)
        mu1 = (-1.0 if A > 0 else 1.0) * 2.0 * n * m1 / (c0 * a * a)
        mu2 = m2 - c0 * mu1
        case = Sign.POSITIVE if A > 0 else Sign.NEGATIVE
        matched = convolution_closed_at(params, R, mu1, mu2, r, case=case)
        quadratic = convolution_closed_at(params, R, m1, m2, r, case=Sign.ZERO)
        assert matched == pytest.approx(quadratic, rel=1e-6)


# ------------------------------------------------------------ report format


def test_report_serialization():
    prof = solve_profile(REF3D)
    report = verify_flock(prof, grid_size=16)
    doc = json.loads(report.to_json())
    assert set(doc) == {
        "r_grid", "closed_form", "quadrature", "D",
        "sup_dev_closed", "sup_dev_quad", "cross_dev",
    }
    assert len(doc["r_grid"]) == 16
