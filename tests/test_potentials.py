"""Potential evaluation, aggregate parameter, and phase-diagram tests.

Frozen constants marked "oracle" were computed with 50-digit mpmath
exponentials from the dimension-specific closed forms.
"""

import math

import numpy as np
import pytest
from scipy.special import k0 as scipy_k0

from flockdyn.errors import DegenerateDenominatorError, DomainError, ParameterOverflowError
from flockdyn.potentials import (
    EPS_A,
    ModelParams,
    Morse,
    MorseLike,
    QuasiMorse,
    Region,
    Sign,
    aggregate_param,
    classify,
    minimum_radius,
    morse_like_regime,
    phase_grid,
    potential_force_magnitude,
    potential_from_dict,
    potential_to_dict,
    potential_value,
    quasi_morse_u,
)

REF3D = ModelParams(3, 1.255, 0.8, 0.2)
REF2D = ModelParams(2, 10.0 / 9.0, 0.75, 0.5)


def test_params_validation():
    with pytest.raises(DomainError):
        ModelParams(1, 1.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        ModelParams(3, -1.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        ModelParams(3, 1.0, 0.5, 0.0)


# ------------------------------------------------------------ quasi-morse U


def test_u_vanishes_when_repulsion_equals_attraction():
    p = ModelParams(3, 1.0, 1.0, 1.0)
    for r in (0.2, 1.0, 7.0):
        assert quasi_morse_u(p, r) == pytest.approx(0.0, abs=1e-18)


def test_u_3d_frozen_oracle_value():
    # (1/(8 pi)) (1.255 * 0.8 * e^{-1/2} - e^{-2/5}), 50-digit oracle
    assert quasi_morse_u(REF3D, 2.0) == pytest.approx(
        -0.0024415666848961778524, rel=1e-12
    )


def test_u_3d_matches_exponential_closed_form():
    r = np.geomspace(0.01, 50.0, 300)
    u = quasi_morse_u(REF3D, r)
    rep = (1.0 / (4 * np.pi * r)) * REF3D.C * REF3D.ell * np.exp(-REF3D.k * r / REF3D.ell)
    att = (1.0 / (4 * np.pi * r)) * np.exp(-REF3D.k * r)
    # relative to the term scale: U crosses zero where the terms cancel
    assert np.max(np.abs(u - (rep - att)) / (rep + att)) < 1e-12


def test_u_2d_matches_k0_closed_form():
    p = ModelParams(2, 2.0, 0.5, 1.0)
    r = np.geomspace(0.01, 30.0, 200)
    u = quasi_morse_u(p, r)
    closed = (1.0 / (2 * np.pi)) * (p.C * scipy_k0(p.k * r / p.ell) - scipy_k0(p.k * r))
    scale = (1.0 / (2 * np.pi)) * (p.C * scipy_k0(p.k * r / p.ell) + scipy_k0(p.k * r))
    assert np.max(np.abs(u - closed) / scale) < 1e-12


def test_u_2d_long_range_attraction_dominates():
    # ell < 1 makes repulsion decay faster, so U < 0 at long range
    p = ModelParams(2, 2.0, 0.5, 1.0)
    assert quasi_morse_u(p, 30.0) < 0.0


def test_u_1d_reduction_is_conventional_morse():
    # the n = 1 member of the family, built directly from K_{-1/2}, equals
    # (1/2k)(C e^{-k r/ell} - e^{-k r}); checked here as a cross-validation
    # of the unified Bessel form (the public API is 2-D/3-D only)
    from flockdyn import specfun as sf

    C, ell, k = 1.4, 0.6, 0.8
    for r in (0.1, 1.0, 4.0):
        pref = (2 * math.pi) ** -0.5 * r**0.5 * k**-0.5
        u1 = pref * (
            C * ell**-0.5 * sf.bessel_k(-0.5, k * r / ell)
            - sf.bessel_k(-0.5, k * r)
        )
        morse = (1.0 / (2 * k)) * (C * math.exp(-k * r / ell) - math.exp(-k * r))
        assert u1 == pytest.approx(morse, rel=1e-13)


def test_u_domain_error_at_origin():
    with pytest.raises(DomainError):
        quasi_morse_u(REF3D, 0.0)
    with pytest.raises(DomainError):
        quasi_morse_u(REF3D, -1.0)


@pytest.mark.parametrize("params, r", [
    (ModelParams(2, 1.1, 0.75, 1e-200), 1e-200),  # k r underflows to 0
    (ModelParams(3, 1.1, 1e200, 1e-100), 1e-100),  # k r / ell does
])
def test_a_k_argument_that_underflows_names_the_parameters(params, r):
    # K at an argument of 0 gave a ZeroDivisionError for a float and NaN
    # with RuntimeWarnings for an array
    for arg in (r, np.array([r, 1.0])):
        with pytest.raises(ParameterOverflowError) as info:
            potential_value(QuasiMorse(params), arg)
        assert (ModelParams, "k") in info.value.fields


# ------------------------------------------------------------------- forces


def _fd_slope(spec, r, h_rel=1e-6):
    h = h_rel * r
    return (potential_value(spec, r + h) - potential_value(spec, r - h)) / (2 * h)


@pytest.mark.parametrize(
    "spec",
    [
        QuasiMorse(REF3D),
        QuasiMorse(REF2D),
        QuasiMorse(ModelParams(2, 2.0, 0.5, 1.0)),
        Morse(2.0, 1.0, 0.5, 1.0),
        MorseLike(0.5, 0.6, 0.2),
        MorseLike(1.5, 0.6, 0.676),
    ],
)
def test_force_matches_finite_difference(spec):
    r = np.geomspace(0.05, 20.0, 80)
    fd = _fd_slope(spec, r)
    fm = potential_force_magnitude(spec, r)
    scale = np.maximum(np.abs(fd), 1e-10 * np.max(np.abs(fd)))
    assert np.max(np.abs(fm - fd) / scale) < 1e-6


def test_force_zero_for_balanced_morse():
    spec = Morse(1.3, 1.3, 0.7, 0.7)
    for r in (0.1, 1.0, 5.0):
        assert potential_force_magnitude(spec, r) == pytest.approx(0.0, abs=1e-18)


def test_morse_like_p1_derivative_matches_symbolic_oracle():
    import sympy

    r, C, ell = sympy.symbols("r C ell", positive=True)
    U = -sympy.exp(-r) + C * sympy.exp(-(r / ell))
    dU = sympy.lambdify((r, C, ell), sympy.diff(U, r), "numpy")
    spec = MorseLike(1.0, 0.8, 0.4)
    rr = np.geomspace(0.05, 10.0, 50)
    assert np.allclose(
        potential_force_magnitude(spec, rr), dU(rr, 0.8, 0.4), rtol=1e-12
    )


def test_quasi_morse_force_vanishes_at_minimum():
    spec = QuasiMorse(REF3D)
    r_min = minimum_radius(spec)
    assert abs(potential_force_magnitude(spec, r_min)) < 1e-12
    assert quasi_morse_u(REF3D, r_min) < 0.0
    # bisection on the finite-difference slope agrees
    lo, hi = 0.5 * r_min, 2.0 * r_min
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _fd_slope(spec, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(r_min, rel=1e-6)


def test_minimum_radius_without_a_minimum_is_refused():
    # C_R = C_A and ell_R = ell_A: U' = 0 everywhere
    with pytest.raises(DomainError, match="no minimum"):
        minimum_radius(Morse(1.0, 1.0, 1.0, 1.0))


def test_minimum_exists_across_relevant_regime():
    # region I and II: U has a strictly negative minimum at positive radius
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        ell = rng.uniform(0.25, 0.95)
        c_min = ell ** -(n - 2.0)
        C = rng.uniform(1.02 * max(c_min, 1.0), 4.0 * max(c_min, 1.0))
        k = rng.uniform(0.1, 2.0)
        params = ModelParams(n, C, ell, k)
        assert classify(params).biologically_relevant
        r_min = minimum_radius(QuasiMorse(params))
        assert r_min > 0.0
        assert quasi_morse_u(params, r_min) < 0.0


# -------------------------------------------------------- aggregate + phase


def test_aggregate_ref3d_values():
    A, a = aggregate_param(REF3D)
    assert A == pytest.approx(5.585, abs=1e-12)
    assert a == pytest.approx(math.sqrt(5.585), rel=1e-15)


def test_aggregate_ref2d_value():
    A, _ = aggregate_param(REF2D)
    assert A == pytest.approx(1.5, abs=1e-12)


def test_aggregate_zero_on_separatrix():
    A, a = aggregate_param(ModelParams(3, 8.0, 0.5, 0.7))  # C ell^3 = 1 exactly
    assert A == 0.0
    assert a == 0.0


def test_aggregate_degeneracy_is_free_of_k():
    # the k-scaled threshold once called REF3D degenerate at k = 1e5
    for k in (1e-5, 1.0, 1e5):
        A, _ = aggregate_param(ModelParams(3, 1.255, 0.8, k))
        assert A / k**2 == pytest.approx(139.625, rel=1e-13)
        assert phase_grid(3, [1.255], [0.8], k).A[0, 0] == A


def test_aggregate_degenerate_denominator():
    # C ell^n = ell^2 exactly (n = 3, C = 1/ell)
    with pytest.raises(DegenerateDenominatorError):
        aggregate_param(ModelParams(3, 2.0, 0.5, 1.0))


def test_classify_ref3d_region_i():
    regime = classify(REF3D)
    assert regime.biologically_relevant
    assert regime.region is Region.REGION_I
    assert regime.a_sign is Sign.POSITIVE
    assert not regime.h_stable


def test_classify_outside_regime():
    regime = classify(ModelParams(2, 0.5, 0.5, 1.0))
    assert not regime.biologically_relevant
    assert regime.region is Region.OUTSIDE


def test_classify_separatrix():
    regime = classify(ModelParams(3, 8.0, 0.5, 1.0))
    assert regime.biologically_relevant
    assert regime.region is Region.SEPARATRIX
    assert regime.a_sign is Sign.ZERO


def test_classify_region_ii():
    regime = classify(ModelParams(3, 3.0, 0.9, 0.5))
    assert regime.region is Region.REGION_II
    assert regime.a_sign is Sign.NEGATIVE
    assert regime.h_stable


def test_classify_sign_matches_aggregate_on_random_draws():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 4))
        params = ModelParams(
            n, float(rng.uniform(0.1, 6.0)), float(rng.uniform(0.05, 1.4)),
            float(rng.uniform(0.05, 3.0)),
        )
        try:
            A, _ = aggregate_param(params)
        except DegenerateDenominatorError:
            continue
        sign = classify(params).a_sign
        if abs(1.0 - params.C * params.ell**params.n) <= EPS_A:
            assert sign is Sign.ZERO
        else:
            assert sign is (Sign.POSITIVE if A > 0 else Sign.NEGATIVE)
        checked += 1
    assert checked > 9000


def test_zero_denominator_is_degenerate_when_k_squared_underflows():
    # C ell^3 = ell^2 exactly; aggregate_param once raised ZeroDivisionError
    params = ModelParams(3, 2.0, 0.5, 1e-170)
    assert classify(params).a_sign is Sign.POSITIVE
    with pytest.raises(DegenerateDenominatorError):
        aggregate_param(params)


def test_phase_grid_marks_invalid_cells_and_rejects_bad_n_and_k():
    grid = phase_grid(3, [-1.0, math.inf, 8.0], [0.0, 0.5], 1.0)
    assert grid.invalid.tolist() == [[True, True], [True, True], [True, False]]
    assert grid.region.tolist() == [[-1, -1], [-1, -1], [-1, 2]]  # separatrix
    assert not grid.biologically_relevant[1].any() and not grid.h_stable[1].any()
    assert grid.A[2, 1] == aggregate_param(ModelParams(3, 8.0, 0.5, 1.0))[0]
    for n, k in ((4, 1.0), (3, 0.0), (3, math.inf), (3, math.nan)):
        with pytest.raises(DomainError):
            phase_grid(n, [1.0], [0.5], k)


def test_morse_like_regime_inequalities():
    spec = MorseLike(0.5, 0.6, 0.2)
    relevant, h_stable = morse_like_regime(spec, n=2)
    assert relevant  # ell < 1 and C > ell^p (0.6 > 0.447)
    assert not h_stable  # C ell^2 = 0.024 < 1
    assert not morse_like_regime(MorseLike(0.5, 0.3, 0.5), n=2)[0]  # C < ell^p


# -------------------------------------------------------------------- JSON


def test_potential_spec_json_round_trip():
    specs = [
        QuasiMorse(REF3D),
        Morse(2.0, 1.0, 0.5, 1.0),
        MorseLike(1.5, 0.6, 0.7114),
    ]
    for spec in specs:
        encoded = potential_to_dict(spec)
        assert encoded["kind"] in ("quasi_morse", "morse", "morse_like")
        assert potential_from_dict(encoded) == spec
    with pytest.raises(ValueError):
        potential_from_dict({"kind": "unknown"})
