"""Solver tests: boundary coefficients, determinant structure, root
bracketing, profile recovery, and support-radius asymptotics."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import jn_zeros

from flockdyn.errors import (
    BracketFailureError,
    CaseMismatchError,
    LimitMismatchWarning,
    MultipleRootsWarning,
    NoRootError,
    RegimeError,
)
from flockdyn.potentials import ModelParams, Sign, aggregate_param
from flockdyn import solver as sv
from flockdyn import specfun
from flockdyn._roots import XTOL, bracketed_root
from flockdyn.solver import (
    EllLimit,
    FlockProfile,
    TAN_FIXPOINT,
    TOL_ROOT,
    asymptotic_radius,
    boundary_coeff,
    density_eval,
    enumerate_roots,
    find_support_radius,
    flock_determinant,
    mass,
    mode_coeffs,
    solve_profile,
    tangent_offset,
)

REF3D = ModelParams(3, 1.255, 0.8, 0.2)
REF2D = ModelParams(2, 10.0 / 9.0, 0.75, 0.5)


def region_i_draw(rng, n):
    """Random parameters strictly inside region I."""
    C = float(rng.uniform(1.05, 6.0))
    if n == 3:
        lo, hi = C**-1.0, C ** (-1.0 / 3.0)
    else:
        lo, hi = 0.05, C**-0.5
    ell = float(rng.uniform(lo + 0.03 * (hi - lo), hi - 0.03 * (hi - lo)))
    k = float(rng.uniform(0.05, 2.0))
    return ModelParams(n, C, ell, k)


def a_negative_draw(rng, n):
    """Biologically relevant parameters with A < 0 (region II interior)."""
    ell = float(rng.uniform(0.3, 0.95))
    C = float(rng.uniform(1.05, 3.0)) * ell**-n
    k = float(rng.uniform(0.05, 2.0))
    return ModelParams(n, C, ell, k)


# ------------------------------------------------------ boundary coefficient


def test_boundary_positive_r_to_zero_limit():
    A, a = aggregate_param(REF3D)
    for xi in (REF3D.ell, 1.0):
        limit = math.sqrt(2.0 * a / math.pi) / (1.0 + (a * xi / REF3D.k) ** 2)
        got = boundary_coeff(REF3D, Sign.POSITIVE, xi, 1e-9)
        assert got == pytest.approx(limit, rel=1e-7)


def test_boundary_zero_branch_example_value():
    # n = 3, k = 1, xi = 1, R = 1: R^2 + 2 (1 + 3 + 3)/(1 + 1) = 8
    params = ModelParams(3, 8.0, 0.5, 1.0)  # C ell^3 = 1 exactly
    assert boundary_coeff(params, Sign.ZERO, 1.0, 1.0) == pytest.approx(8.0, rel=1e-13)


def test_boundary_2d_at_j0_zero():
    # at a R = first zero of J_0 only the J_1 K-ratio term survives, with a
    # definite negative sign
    params = region_i_draw(np.random.default_rng(0), 2)
    A, a = aggregate_param(params)
    from flockdyn import specfun as sf

    j0_zero = 2.4048255576957728
    R = j0_zero / a
    got = boundary_coeff(params, Sign.POSITIVE, 1.0, R)
    kratio = sf.bessel_k(0.0, params.k * R) / sf.bessel_k(1.0, params.k * R)
    expect = (
        -1.0
        / (1.0 + (a / params.k) ** 2)
        * (a / params.k)
        * sf.bessel_j(1.0, a * R)
        * kratio
    )
    assert got == pytest.approx(expect, rel=1e-10)
    assert got < 0.0


def _boundary_general(n, k, a, case, xi, R):
    """Btilde(xi) by the dimension-independent formula, the reference of the
    per-dimension closed forms; times e^{-aR} on the negative branch (exact:
    the formula is linear in I)."""
    half = 0.5 * n
    y = k * R / xi
    k_mid, k_top = specfun.bessel_k_pair(half - 1.0, y)
    # K_{half-2} = K_{2-half}: K_1 at n = 2, K_{1/2} at n = 3
    k_low = k_top if n == 2 else k_mid
    if case is Sign.POSITIVE:
        gain = 1.0 / (1.0 + (a * xi / k) ** 2)
        f_hi = specfun.bessel_j(half - 1.0, a * R)
        f_lo = specfun.bessel_j(half - 2.0, a * R)
    else:
        gain = 1.0 / (1.0 - (a * xi / k) ** 2)
        f_hi = specfun.bessel_i(half - 1.0, a * R, scaled=True)
        f_lo = specfun.bessel_i(half - 2.0, a * R, scaled=True)
    return (
        R ** (1.0 - half)
        * gain
        * (f_hi * k_low / k_top + (a * xi / k) * f_lo * k_mid / k_top)
    )


@pytest.mark.parametrize("n", [2, 3])
def test_boundary_general_formula_cross_check(n):
    # the negative branch compares the scaled values Btilde e^{-aR}
    rng = np.random.default_rng(5 + n)
    for _ in range(6):
        params = region_i_draw(rng, n)
        _, a = aggregate_param(params)
        for xi in (params.ell, 1.0):
            for R in (0.3 / a, 2.0 / a, 8.0 / a):
                s = boundary_coeff(params, Sign.POSITIVE, xi, R)
                g = _boundary_general(n, params.k, a, Sign.POSITIVE, xi, R)
                assert s == pytest.approx(g, rel=1e-10)
        params = a_negative_draw(rng, n)
        _, a = aggregate_param(params)
        for xi in (params.ell, 1.0):
            for R in (0.5 / a, 3.0 / a):
                s = sv._boundary_eval(params, Sign.NEGATIVE, xi, R)
                g = _boundary_general(n, params.k, a, Sign.NEGATIVE, xi, R)
                assert s == pytest.approx(g, rel=1e-10)


def test_boundary_case_mismatch():
    with pytest.raises(CaseMismatchError):
        boundary_coeff(REF3D, Sign.NEGATIVE, 1.0, 1.0)
    with pytest.raises(CaseMismatchError):
        boundary_coeff(REF3D, Sign.ZERO, 1.0, 1.0)  # |A| = 5.585 >> tolerance
    # A = -0.0175 < 0 here
    with pytest.raises(CaseMismatchError, match="positive branch requested"):
        boundary_coeff(ModelParams(3, 1.255, 0.95, 0.2), Sign.POSITIVE, 1.0, 1.0)


def test_boundary_refuses_a_radius_of_zero():
    with pytest.raises(BracketFailureError, match="R > 0"):
        boundary_coeff(REF3D, Sign.POSITIVE, 1.0, 0.0)


# ------------------------------------------------------------- determinant


def test_det_positive_limit_at_origin():
    A, a = aggregate_param(REF3D)
    k, ell = REF3D.k, REF3D.ell
    expect = math.sqrt(2.0 * a / math.pi) * (
        1.0 / (1.0 + (a * ell / k) ** 2) - 1.0 / (1.0 + (a / k) ** 2)
    )
    assert flock_determinant(REF3D, 1e-10) == pytest.approx(expect, rel=1e-8)
    assert expect > 0.0


def test_det_alternating_signs_at_cosine_zeros():
    _, a = aggregate_param(REF3D)
    signs = []
    for j in (1, 2, 3, 4):
        signs.append(math.copysign(1.0, flock_determinant(REF3D, (j - 0.5) * math.pi / a)))
    assert signs == [1.0, -1.0, 1.0, -1.0]


def test_det_3d_sin_cos_coefficient_form():
    # det M_+ = c_sin sin(aR) + c_cos cos(aR) agrees with the direct
    # boundary-coefficient difference
    _, a = aggregate_param(REF3D)
    R = np.linspace(0.05, 12.0, 200)
    direct = boundary_coeff(REF3D, Sign.POSITIVE, REF3D.ell, R) - boundary_coeff(
        REF3D, Sign.POSITIVE, 1.0, R
    )
    assert np.allclose(flock_determinant(REF3D, R), direct, rtol=0, atol=5e-16)


@pytest.mark.parametrize("n", [2, 3])
def test_det_negative_branch_always_negative(n):
    rng = np.random.default_rng(17 + n)
    for _ in range(10):
        params = a_negative_draw(rng, n)
        _, a = aggregate_param(params)
        grid = np.geomspace(1e-3 / a, 1e3 / a, 500)
        vals = flock_determinant(params, grid)
        assert np.all(vals < 0.0)


@pytest.mark.parametrize("n", [2, 3])
def test_det_negative_scaled_matches_direct_difference(n):
    rng = np.random.default_rng(23 + n)
    params = a_negative_draw(rng, n)
    _, a = aggregate_param(params)
    R = np.linspace(0.1 / a, 20.0 / a, 60)
    direct = boundary_coeff(params, Sign.NEGATIVE, params.ell, R) - boundary_coeff(
        params, Sign.NEGATIVE, 1.0, R
    )
    assert np.allclose(flock_determinant(params, R), direct, rtol=1e-11)


def test_det_zero_branch_always_negative_any_dimension():
    # A = 0: det M_0 = 2 R^2 [w(kR/ell) - w(kR)] < 0 by ratio monotonicity
    for n, ell in ((2, 0.8), (3, 0.5)):
        params = ModelParams(n, ell**-n, ell, 0.7)
        grid = np.geomspace(1e-3, 1e3, 400)
        vals = flock_determinant(params, grid)
        assert np.all(vals < 0.0)


def test_f_minus_sign_controls_negative_det():
    params = ModelParams(3, 3.0, 0.9, 0.5)
    R = np.linspace(0.1, 30.0, 50)
    assert np.all(sv.f_minus(params, R) < 0.0)
    with pytest.raises(CaseMismatchError):
        sv.f_minus(REF3D, 1.0)


def test_det_scale_covariance():
    # k -> lam k maps the zero set R* -> R*/lam (aR and kR invariant)
    lam = 3.7
    r1, _ = find_support_radius(REF3D)
    r2, _ = find_support_radius(ModelParams(3, REF3D.C, REF3D.ell, lam * REF3D.k))
    assert r2 * lam == pytest.approx(r1, rel=1e-12)


# --------------------------------------------------------- tangent offset


def test_tangent_offset_value_at_origin():
    A, a = aggregate_param(REF3D)
    k, ell = REF3D.k, REF3D.ell
    expect = (a / k) * a**2 * ell * (ell + 1.0) / (k**2 + a**2 * (ell**2 + ell + 1.0))
    assert tangent_offset(REF3D, 1e-14) == pytest.approx(expect, rel=1e-10)


def test_tangent_offset_upper_limit_is_minus_ar():
    # deep in the ell -> C^(-1/3) limit, g(R) ~ -aR within 5% on aR in [.1, 3]
    C = 1.255
    params = ModelParams(3, C, (1.0 - 1e-6) * C ** (-1.0 / 3.0), 0.2)
    _, a = aggregate_param(params)
    R = np.linspace(0.1 / a, 3.0 / a, 50)
    g = tangent_offset(params, R)
    assert np.max(np.abs(g / (-a * R) - 1.0)) < 0.05


def test_tangent_offset_lower_limit_constant():
    C = 1.255
    params = ModelParams(3, C, (1.0 + 1e-3) / C, 0.2)
    _, a = aggregate_param(params)
    expect = (a / params.k) * (C + 1.0) / (C**2 + C + 1.0)
    assert tangent_offset(params, 1e-12) == pytest.approx(expect, rel=2e-3)


def test_tangent_offset_case_mismatch():
    with pytest.raises(CaseMismatchError):
        tangent_offset(REF2D, 1.0)  # 2-D
    with pytest.raises(CaseMismatchError):
        tangent_offset(ModelParams(3, 3.0, 0.9, 0.5), 1.0)  # A < 0


# ------------------------------------------------------------ root finding


def test_bracketed_root_known_root():
    calls = []

    def f(x):
        calls.append(x)
        return math.cos(x)

    root = bracketed_root(f, 0.0, 2.0)
    assert abs(root - 0.5 * math.pi) <= XTOL * 0.5 * math.pi
    assert calls.count(0.0) == 1 and calls.count(2.0) == 1
    assert len(calls) < 15


def test_bracketed_root_exact_zero_at_endpoint():
    assert bracketed_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0
    assert bracketed_root(lambda x: x - 3.0, 1.0, 3.0) == 3.0


def test_bracketed_root_same_sign_bracket():
    with pytest.raises(BracketFailureError):
        bracketed_root(math.cos, 2.0, 4.0)
    with pytest.raises(BracketFailureError):
        bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]))
def test_roots_match_brentq_inside_brackets(seed, n):
    params = region_i_draw(np.random.default_rng(seed), n)
    _, a = aggregate_param(params)
    if n == 3:
        edges = [(j - 0.5) * math.pi / a for j in range(1, 5)]
    else:
        edges = [1e-8 / a] + [z / a for z in jn_zeros(1, 3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # MultipleRootsWarning
        roots = enumerate_roots(params, 3)
    for r, j in roots:
        lo, hi = edges[j - 1], edges[j]
        assert lo < r < hi
        ref = brentq(lambda x: flock_determinant(params, x), lo, hi, xtol=1e-300)
        assert abs(r - ref) <= TOL_ROOT * ref


def _assert_scans_equal_scalar_calls(params):
    # Brent refines the 2-D root from the scan cell where det M changes
    # sign, evaluating det M at scalar R; a scalar value that differs from
    # the scan's in the last bit can lose that sign change.  A refinement of
    # many brackets at once would take its values from array calls too.
    _, a = aggregate_param(params)
    edges = sv._bracket_edges(params, a, 3)
    for lo, hi in zip(edges[:-1], edges[1:]):
        # in 2-D the first is the grid of _first_sign_change_2d
        grid = np.linspace(lo, hi, 512)
        scan = flock_determinant(params, grid)
        scalar = np.array([flock_determinant(params, R) for R in grid.tolist()])
        assert np.array_equal(scan, scalar)
        flips = np.flatnonzero(np.sign(scan[:-1]) != np.sign(scan[1:]))
        for i in [*flips.tolist(), *(flips + 1).tolist()]:
            assert np.array_equal(flock_determinant(params, grid[i : i + 1]), scan[i : i + 1])


@pytest.mark.parametrize("params", [REF2D, REF3D], ids=["REF2D", "REF3D"])
def test_determinant_scan_equals_scalar_calls(params):
    _assert_scans_equal_scalar_calls(params)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]))
def test_scalar_determinant_equals_scan_entry(seed, n):
    _assert_scans_equal_scalar_calls(region_i_draw(np.random.default_rng(seed), n))


def test_find_support_radius_ref3d():
    _, a = aggregate_param(REF3D)
    root, bracket = find_support_radius(REF3D)
    assert bracket.lo == pytest.approx(0.5 * math.pi / a)
    assert bracket.hi == pytest.approx(1.5 * math.pi / a)
    assert bracket.lo < root < bracket.hi
    scale = abs(boundary_coeff(REF3D, Sign.POSITIVE, REF3D.ell, root)) + abs(
        boundary_coeff(REF3D, Sign.POSITIVE, 1.0, root)
    )
    assert abs(flock_determinant(REF3D, root)) <= 1e-12 * max(scale, 1e-30)


def test_find_support_radius_ref2d():
    _, a = aggregate_param(REF2D)
    root, bracket = find_support_radius(REF2D)
    assert 0.0 < root < 3.8317059702075123 / a
    assert abs(flock_determinant(REF2D, root)) < 1e-14


def test_no_root_for_nonpositive_a():
    with pytest.raises(NoRootError):
        find_support_radius(ModelParams(3, 3.0, 0.9, 0.5))  # A < 0
    with pytest.raises(NoRootError):
        find_support_radius(ModelParams(2, 2.0, 0.8, 0.5))  # A < 0
    with pytest.raises(NoRootError):
        find_support_radius(ModelParams(3, 8.0, 0.5, 1.0))  # separatrix


def test_nonbiological_region_needs_opt_in():
    # ell > 1 with C ell^(n-2) < 1 < C ell^n: both factors of A flip sign,
    # so A > 0 outside the biological regime (the reversed-potential family)
    params = ModelParams(3, 0.8, 1.1, 0.5)
    assert aggregate_param(params)[0] > 0.0
    with pytest.raises(RegimeError):
        find_support_radius(params)
    root, _ = find_support_radius(params, allow_nonbiological=True)
    assert root > 0.0
    prof = solve_profile(params, allow_nonbiological=True)
    assert mass(prof) == pytest.approx(1.0, abs=1e-10)
    grid = np.linspace(0.0, prof.R_star, 500)
    assert np.all(density_eval(prof, grid) > 0.0)


def test_upper_limit_root_approaches_tan_fixpoint():
    C = 1.255
    prev = math.inf
    for d in (1e-3, 1e-5, 1e-7):
        params = ModelParams(3, C, (1.0 - d) * C ** (-1.0 / 3.0), 0.2)
        _, a = aggregate_param(params)
        root, _ = find_support_radius(params)
        err = abs(a * root - TAN_FIXPOINT)
        assert err < prev
        prev = err
    assert prev < 5e-3


def test_lower_limit_root_approaches_half_pi_from_above():
    C = 1.255
    prev = math.inf
    for d in (1e-2, 1e-4, 1e-6):
        params = ModelParams(3, C, (1.0 + d) / C, 0.2)
        _, a = aggregate_param(params)
        root, _ = find_support_radius(params)
        assert a * root > 0.5 * math.pi
        err = a * root - 0.5 * math.pi
        assert err < prev
        prev = err
    assert prev < 5e-3


@pytest.mark.parametrize("n", [2, 3])
def test_enumerate_roots_structure(n):
    rng = np.random.default_rng(29 + n)
    params = region_i_draw(rng, n)
    _, a = aggregate_param(params)
    roots = enumerate_roots(params, 4)
    radii = [r for r, _ in roots]
    assert all(x < y for x, y in zip(radii, radii[1:]))
    assert [j for _, j in roots] == [1, 2, 3, 4]
    # every enumerated radius is a genuine determinant root
    scale = abs(flock_determinant(params, radii[0] * 0.5)) + abs(
        flock_determinant(params, radii[0] * 1.5)
    )
    for r in radii:
        assert abs(flock_determinant(params, r)) <= 1e-10 * scale
    # count=1 equals find_support_radius
    assert enumerate_roots(params, 1)[0][0] == find_support_radius(params)[0]


def test_enumerate_roots_refuses_a_count_below_one():
    with pytest.raises(ValueError, match="count"):
        enumerate_roots(REF3D, 0)


def test_first_2d_sign_change_warns_on_several_and_returns_a_bracket_without_one():
    _, a = aggregate_param(REF2D)
    # the scan up to the third zero of J_1 crosses the first three roots
    with pytest.warns(MultipleRootsWarning):
        lo, hi = sv._first_sign_change_2d(REF2D, 1e-8 / a, sv._j1_zero(3) / a)
    assert lo < find_support_radius(REF2D)[0] < hi
    # below the first root det M keeps its sign: the bracket comes back whole
    edges = (1e-8 / a, 0.5 * find_support_radius(REF2D)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sv._first_sign_change_2d(REF2D, *edges) == edges


def test_enumerate_roots_interlace_3d():
    rng = np.random.default_rng(31)
    for _ in range(8):
        params = region_i_draw(rng, 3)
        _, a = aggregate_param(params)
        tildes = [(j - 0.5) * math.pi / a for j in range(1, 6)]
        for r, j in enumerate_roots(params, 4):
            assert tildes[j - 1] < r < tildes[j]
        # no root below the first bracket: det stays positive there
        grid = np.linspace(1e-9 / a, tildes[0] * 0.9999999, 400)
        assert np.all(flock_determinant(params, grid) > 0.0)


# ------------------------------------------------------------ solve_profile


@pytest.mark.parametrize("params", [REF3D, REF2D])
def test_solved_profile_contracts(params):
    prof = solve_profile(params)
    assert prof.root_index == 1
    assert prof.mu1 > 0.0 and prof.mu2 > 0.0
    assert mass(prof) == pytest.approx(1.0, abs=1e-10)
    # homogeneous system residuals
    b_l = boundary_coeff(params, Sign.POSITIVE, params.ell, prof.R_star)
    b_1 = boundary_coeff(params, Sign.POSITIVE, 1.0, prof.R_star)
    assert abs(b_l * prof.mu1 + prof.mu2) <= 1e-9
    assert abs(b_1 * prof.mu1 + prof.mu2) <= 1e-9
    # D convention
    expected_d = prof.mu2 * (params.C * params.ell**params.n - 1.0) / params.k**2
    assert prof.D == expected_d
    assert prof.D < 0.0
    # numerical rank one of the 2x2 system
    m = np.array([[b_l, 1.0], [b_1, 1.0]])
    svals = np.linalg.svd(m, compute_uv=False)
    assert svals[1] / svals[0] <= 1e-8


@pytest.mark.parametrize("params", [REF3D, REF2D])
def test_first_root_density_positive_and_decreasing(params):
    prof = solve_profile(params)
    grid = np.linspace(0.0, prof.R_star, 1000)
    rho = density_eval(prof, grid)
    assert np.all(rho > 0.0)
    assert np.all(np.diff(rho) <= 1e-12 * rho[0])


def test_density_limits_and_support():
    prof = solve_profile(REF3D)
    assert density_eval(prof, prof.R_star * 1.000001) == 0.0
    assert density_eval(prof, 10.0 * prof.R_star) == 0.0
    expect0 = math.sqrt(2.0 * prof.a / math.pi) * prof.mu1 + prof.mu2
    assert density_eval(prof, 0.0) == pytest.approx(expect0, rel=1e-14)
    assert density_eval(prof, prof.R_star) > 0.0

    prof5 = solve_profile(REF2D)
    assert density_eval(prof5, 0.0) == pytest.approx(
        prof5.mu1 + prof5.mu2, rel=1e-14
    )


def _solve_each_root_equals_the_enumeration(params, count=40):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # MultipleRootsWarning
        roots = enumerate_roots(params, count)
        assert enumerate_roots(params, 7) == roots[:7]
        for k in range(1, count + 1):
            assert _bits(solve_profile(params, root_index=k).R_star) == _bits(roots[k - 1][0])


@pytest.mark.parametrize("params", [REF3D, REF2D])
def test_solve_at_each_root_index_equals_the_enumeration(params):
    # solve_profile refines bracket k alone; enumerate_roots refines 1..k
    _solve_each_root_equals_the_enumeration(params)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]))
def test_solve_at_each_root_index_equals_the_enumeration_on_draws(seed, n):
    _solve_each_root_equals_the_enumeration(region_i_draw(np.random.default_rng(seed), n))


def test_solve_at_a_high_2d_root_refines_one_bracket(monkeypatch):
    _, a = aggregate_param(REF2D)
    zeros = {m: sv._j1_zero(m) for m in (49, 50)}
    asked, brackets = [], []
    refine = sv.bracketed_root
    monkeypatch.setattr(sv, "_j1_zero", lambda m: asked.append(m) or zeros[m])
    monkeypatch.setattr(
        sv, "bracketed_root", lambda f, lo, hi: brackets.append((lo, hi)) or refine(f, lo, hi)
    )
    R_star = solve_profile(REF2D, root_index=50).R_star
    assert asked == [49, 50]
    assert brackets == [(zeros[49] / a, zeros[50] / a)]
    assert brackets[0][0] < R_star < brackets[0][1]
    monkeypatch.undo()
    assert R_star == enumerate_roots(REF2D, 50)[49][0]


def test_solve_at_the_millionth_3d_root():
    # once ran for over a minute, refining every root below it
    _, a = aggregate_param(REF3D)
    j = 10**6
    R_star = solve_profile(REF3D, root_index=j).R_star
    assert (j - 0.5) * math.pi / a < R_star < (j + 0.5) * math.pi / a


def test_solve_rejects_a_root_index_below_one():
    with pytest.raises(ValueError):
        solve_profile(REF3D, root_index=0)


def test_second_root_density_changes_sign():
    prof2 = solve_profile(REF3D, root_index=2)
    _, a = aggregate_param(REF3D)
    r_tilde2 = 1.5 * math.pi / a
    assert density_eval(prof2, 0.0) * density_eval(prof2, r_tilde2) < 0.0


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_scalar_radius_gives_a_float_equal_to_the_one_element_call(n):
    # a scalar R stays a float from the solver down to specfun, and the
    # value has the bits of the one-element array call
    pos, neg = (REF3D if n == 3 else REF2D), ModelParams(n, 3.0, 0.9, 1.0)
    cases = [
        lambda R: flock_determinant(pos, R),
        lambda R: flock_determinant(neg, R),
        lambda R: boundary_coeff(pos, Sign.POSITIVE, pos.ell, R),
        lambda R: boundary_coeff(neg, Sign.NEGATIVE, neg.ell, R),
        lambda R: boundary_coeff(neg, Sign.NEGATIVE, 1.0, R),
    ]
    if n == 3:
        cases += [lambda R: sv.f_minus(neg, R), lambda R: tangent_offset(pos, R)]
    for fn in cases:
        for R in (1e-9, 0.3, 1.3, 7.0, 715.0):
            got = fn(R)
            assert type(got) is float and type(fn(np.float64(R))) is float
            assert type(fn(np.array(R))) is float
            one = fn(np.array([R]))
            assert one.shape == (1,) and _bits(one) == _bits(got)


def test_mass_special_cases():
    # mu1 = 0: mass is mu2 times the ball volume
    prof = FlockProfile(
        params=REF3D, A=5.585, a=math.sqrt(5.585), R_star=1.2, mu1=0.0, mu2=0.7,
        D=0.0,
    )
    vol = 4.0 * math.pi / 3.0 * 1.2**3
    assert mass(prof) == pytest.approx(0.7 * vol, rel=1e-14)
    # 2-D with mu2 = 0 and aR at the first J_1 zero: zero mass
    _, a5 = aggregate_param(REF2D)
    prof5 = FlockProfile(
        params=REF2D, A=1.5, a=a5, R_star=3.8317059702075123 / a5, mu1=1.0,
        mu2=0.0, D=0.0,
    )
    assert abs(mass(prof5)) < 1e-13
    # closed form matches quadrature
    prof = solve_profile(REF3D)
    grid, weights = np.polynomial.legendre.leggauss(200)
    r = 0.5 * prof.R_star * (grid + 1.0)
    rho = density_eval(prof, r)
    quad = 0.5 * prof.R_star * np.sum(weights * 4.0 * math.pi * r**2 * rho)
    assert quad == pytest.approx(mass(prof), abs=1e-10)


def test_profile_json_round_trip():
    prof = solve_profile(REF3D)
    encoded = prof.to_dict()
    assert set(encoded) == {
        "n", "C", "ell", "k", "A", "a", "R_star", "mu1", "mu2", "D", "root_index",
    }
    decoded = FlockProfile.from_dict(encoded)
    assert decoded == prof


# ------------------------------------------------------------- mode coeffs


def test_mode_coeffs_vanish_at_solution():
    for params in (REF3D, REF2D):
        prof = solve_profile(params)
        mc = mode_coeffs(params, prof.R_star, prof.mu1, prof.mu2)
        assert abs(mc.lambda1) <= 1e-9
        assert abs(mc.lambda2) <= 1e-9
        assert mc.lambda3 == 0.0 and mc.lambda4 == 0.0


def test_mode_coeffs_on_the_separatrix_take_the_quadratic_branch():
    # C ell^3 = 1 exactly, so A = 0.0: the oscillatory and the exponential
    # branches would divide by a = 0
    params = ModelParams(3, 8.0, 0.5, 1.0)
    assert aggregate_param(params) == (0.0, 0.0)
    assert sv._case_of(0.0) is Sign.ZERO
    mc = mode_coeffs(params, 1.0, 1.0, 0.5)
    ones, consts = mode_coeffs(params, 1.0, 1.0, 0.0), mode_coeffs(params, 1.0, 0.0, 1.0)
    for got, one, const in ((mc.lambda1, ones.lambda1, consts.lambda1),
                            (mc.lambda2, ones.lambda2, consts.lambda2)):
        assert math.isfinite(got) and got != 0.0
        assert got == pytest.approx(one + 0.5 * const, rel=1e-12)


def test_mode_coeffs_linear_in_mu():
    mc = mode_coeffs(REF3D, 1.0, 0.0, 0.0)
    assert mc.lambda1 == 0.0 and mc.lambda2 == 0.0


def test_mode_coeffs_nonzero_off_root():
    prof = solve_profile(REF3D)
    _, bracket = find_support_radius(REF3D)
    mid = 0.5 * (bracket.lo + prof.R_star)
    mc = mode_coeffs(REF3D, mid, prof.mu1, prof.mu2)
    assert max(abs(mc.lambda1), abs(mc.lambda2)) > 1e-4


def _exponential_branch_mpmath(params, a, R, mu1, mu2):
    """(Btilde(ell), Btilde(1), lambda1, lambda2) on the exponential branch,
    with mpmath's sinh, cosh, I and K at 50 digits, from the float a and R."""
    import mpmath as mp

    mp.mp.dps = 50
    n, C, ell, k = params.n, mp.mpf(params.C), mp.mpf(params.ell), mp.mpf(params.k)
    a, R = mp.mpf(a), mp.mpf(R)
    half = mp.mpf(n) / 2

    def btilde(xi):
        gain = 1 / (1 - (a * xi / k) ** 2)
        if n == 3:
            pref = mp.sqrt(2 / (a * mp.pi)) * k / (k * R + xi)
            return pref * gain * (mp.sinh(a * R) + (a * xi / k) * mp.cosh(a * R))
        ratio = mp.besselk(0, k * R / xi) / mp.besselk(1, k * R / xi)
        return gain * (mp.besseli(0, a * R) + (a * xi / k) * mp.besseli(1, a * R) * ratio)

    b_l, b_1 = btilde(ell), btilde(1)
    lam1 = -C * R**half / k * ell ** (n - 1) * (b_l * mu1 + mu2) * mp.besselk(half, k * R / ell)
    lam2 = R**half / k * (b_1 * mu1 + mu2) * mp.besselk(half, k * R)
    return b_l, b_1, lam1, lam2


def _exponential_point(n, aR):
    """C = 3, ell = 0.9, k = 1 with R set so that a R = aR."""
    params = ModelParams(n, 3.0, 0.9, 1.0)
    _, a = aggregate_param(params)
    return params, a, aR / a


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("aR", [5.0, 300.0, 705.0, 710.0, 715.0])
def test_mode_coeffs_match_mpmath_on_the_exponential_branch(n, aR):
    # the raw Btilde grows as e^{aR} and K_{n/2}(kR/xi) decays: their
    # product once gave nan from aR = 705 on, and overflowed past 710
    params, a, R = _exponential_point(n, aR)
    mc = mode_coeffs(params, R, 1.0, 0.5)
    *_, lam1, lam2 = _exponential_branch_mpmath(params, a, R, 1.0, 0.5)
    for got, want in ((mc.lambda1, float(lam1)), (mc.lambda2, float(lam2))):
        assert math.isfinite(got)
        assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("aR", [5.0, 300.0, 705.0, 710.0, 715.0])
def test_boundary_coeff_negative_branch_matches_mpmath(n, aR):
    # finite wherever the value fits in a double, +inf past it, and never a
    # warning (the suite turns RuntimeWarning into an error)
    params, a, R = _exponential_point(n, aR)
    b_l, b_1, *_ = _exponential_branch_mpmath(params, a, R, 1.0, 0.5)
    for xi, want in ((params.ell, float(b_l)), (1.0, float(b_1))):
        got = boundary_coeff(params, Sign.NEGATIVE, xi, R)
        if math.isinf(want):
            assert got == want
        else:
            assert abs(got - want) <= 1e-12 * abs(want)
        assert np.array_equal(boundary_coeff(params, Sign.NEGATIVE, xi, np.array([R])), [got])
    if aR == 710.0:
        assert float(b_1) == pytest.approx(5.5285e307 if n == 2 else 1.6882e306, rel=1e-4)
    if aR == 715.0:
        assert boundary_coeff(params, Sign.NEGATIVE, 1.0, R) == math.inf


# -------------------------------------------------------------- asymptotics


def test_asymptotic_radius_3d_converges_monotonically():
    C, k = 1.255, 0.2
    for limit, ells in (
        (EllLimit.UPPER, [(1.0 - 0.02 * 5.0**-m) * C ** (-1 / 3.0) for m in range(5)]),
        (EllLimit.LOWER, [(1.0 + 0.02 * 5.0**-m) / C for m in range(5)]),
    ):
        errs = []
        for ell in ells:
            params = ModelParams(3, C, ell, k)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LimitMismatchWarning)
                r_formula = asymptotic_radius(params, limit)
            r_solver, _ = find_support_radius(params)
            errs.append(abs(r_formula / r_solver - 1.0))
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 0.02


def test_asymptotic_radius_2d_upper_limit():
    # R* converges to the first positive zero of J_1(a r)
    C = 2.0
    errs = []
    for d in (0.05, 0.01, 0.002):
        params = ModelParams(2, C, (1.0 - d) * C**-0.5, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LimitMismatchWarning)
            r_formula = asymptotic_radius(params, EllLimit.UPPER)
        r_solver, _ = find_support_radius(params)
        errs.append(abs(r_formula / r_solver - 1.0))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.05


def test_asymptotic_radius_2d_lower_limit():
    errs = []
    for ell in (0.1, 0.05, 0.02):
        params = ModelParams(2, 2.0, ell, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LimitMismatchWarning)
            r_formula = asymptotic_radius(params, EllLimit.LOWER)
        r_solver, _ = find_support_radius(params)
        errs.append(abs(r_formula / r_solver - 1.0))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.02


@pytest.mark.parametrize("params, limit, error", [
    (ModelParams(3, 1.255, 1.255 ** (-1 / 3.0), 0.2), EllLimit.UPPER, NoRootError),
    (ModelParams(3, 1.255, 0.5, 0.2), EllLimit.LOWER, NoRootError),
    (ModelParams(2, 0.9, 0.5, 0.2), EllLimit.LOWER, NoRootError),
    (ModelParams(3, 0.3, 2.0, 0.2), EllLimit.UPPER, RegimeError),
], ids=["3d_at_upper_end", "3d_below_lower_end", "2d_C_below_1", "3d_A_positive_ell_2"])
def test_asymptotic_radius_rejects_parameters_outside_region_i(params, limit, error):
    # the first once divided by zero, the next two raised "math domain error"
    with pytest.raises(error):
        asymptotic_radius(params, limit)


def test_asymptotic_radius_warns_far_from_limit():
    with pytest.warns(LimitMismatchWarning):
        asymptotic_radius(REF3D, EllLimit.UPPER)  # the 3-D reference point sits mid-region
