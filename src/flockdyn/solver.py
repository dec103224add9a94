r"""Flock-profile solver.

Computes the boundary-coefficient functions, the scalar determinant whose
first positive root is the support radius, brackets and refines that root,
recovers the density direction from the null space of the homogeneous 2x2
system, normalizes to unit mass, and evaluates the support-radius
asymptotics near both ends of region I.

The determinant is ``det M = Btilde(ell) - Btilde(1)``, where Btilde is the
boundary coefficient at the repulsive (xi = ell) and attractive (xi = 1)
scales.  Every root is refined on ``det M`` itself by the package's one
bracketed Brent solver (``_roots``), which refines the brackets of several
roots together, with one array call of ``det M`` per round.  In 3-D the positive
branch collapses to ``c_sin sin(aR) + c_cos cos(aR)``, which equals
``+-c_sin`` with alternating signs at the poles ``(j - 1/2) pi / a`` of
tan(aR); consecutive poles bracket exactly one root, and the j-th root
lies between the j-th and (j+1)-th pole.  In 2-D the brackets end at the
zeros of J_1(aR), and the first one is narrowed to the cell of a 512-point
scan where det M first changes sign.  A call refines only the brackets of
the roots it returns: ``solve_profile(root_index=k)`` refines bracket k alone.
Functions of R or r keep ``specfun``'s scalar/array contract, and a scalar
stays a float down to the Bessel kernels (``specfun``'s float route).

On the exponential branch (A < 0) Btilde grows as e^{aR}: ``_boundary_eval``
gives Btilde e^{-aR}, and ``_mode_weights`` the scaled growing-mode weights
that feed both the closed form of W * rho and ``mode_coeffs``.  Raw values
are formed only at the public edges, ``boundary_coeff`` and ``mode_coeffs``.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from . import specfun
from ._codec import Finite, Positive, Record, at_least, check
from ._roots import bracketed_roots
from .errors import (
    BracketFailureError,
    CaseMismatchError,
    LimitMismatchWarning,
    MultipleRootsWarning,
    NoRootError,
    ParameterOverflowError,
    PositivityFailureError,
    RegimeError,
)
from .potentials import EPS_A, ModelParams, Sign, aggregate_param, classify

TOL_POS = 1e-10

#: first positive root of tan x = x (often quoted rounded to 4.49)
TAN_FIXPOINT = 4.493409457909064

#: |A| below which the quadratic (A = 0) branch may be selected explicitly
A_ZERO_TOL = 1e-4


#: the positive zeros of J_1 refined so far, by index
_J1_ZERO_CACHE: dict[int, float] = {}


def _j1_zeros(indices) -> list[float]:
    """The m-th positive zero of J_1 for each m of ``indices``, those not
    refined before refined together, each inside its McMahon bracket."""
    new = sorted(set(indices) - _J1_ZERO_CACHE.keys())
    brackets = [((m + 0.25) * math.pi - 0.6, (m + 0.25) * math.pi + 0.6) for m in new]
    _J1_ZERO_CACHE.update(zip(new, bracketed_roots(lambda x: specfun.bessel_j(1.0, x), brackets)))
    return [_J1_ZERO_CACHE[m] for m in indices]


@dataclass(frozen=True)
class FlockProfile(Record):
    """A solved analytic flock: parameters plus (mu1, mu2, R_star) and
    the derived aggregate values and convolution constant D."""

    params: ModelParams
    A: Finite
    a: Finite
    R_star: Positive
    mu1: Finite
    mu2: Finite
    D: Finite
    root_index: Annotated[int, at_least(1)] = 1


@dataclass(frozen=True)
class RootBracket:
    lo: float
    hi: float
    index: int


@dataclass(frozen=True)
class ModeCoefficients:
    """Weights of the growing I-modes in the convolution ansatz.

    lambda3 and lambda4 multiply the K-modes and vanish identically for
    solutions bounded at the origin; a flock additionally requires
    lambda1 = lambda2 = 0.
    """

    lambda1: float
    lambda2: float
    lambda3: float = 0.0
    lambda4: float = 0.0


class EllLimit(enum.Enum):
    UPPER = "upper"  # ell -> C^{-1/3} (3-D) or C^{-1/2} (2-D)
    LOWER = "lower"  # ell -> C^{-1} (3-D) or 0 (2-D)


def _case_of(A: float) -> Sign:
    if A > 0.0:
        return Sign.POSITIVE
    if A < 0.0:
        return Sign.NEGATIVE
    return Sign.ZERO


def _check_case(params: ModelParams, case: Sign) -> tuple[float, float]:
    A, a = aggregate_param(params)
    if case is Sign.ZERO:
        if abs(A) > A_ZERO_TOL:
            raise CaseMismatchError(
                f"A = {A:.3e} is too far from zero for the quadratic branch"
            )
    elif case is Sign.POSITIVE and A <= 0.0:
        raise CaseMismatchError(f"positive branch requested but A = {A:.3e}")
    elif case is Sign.NEGATIVE and A >= 0.0:
        raise CaseMismatchError(f"negative branch requested but A = {A:.3e}")
    return A, a


def boundary_coeff(params: ModelParams, case: Sign, xi: float, R):
    """Boundary coefficient Btilde(xi) at support radius R.

    ``case`` selects the branch by the sign of the aggregate parameter; it
    must not contradict the parameters (the quadratic branch tolerates
    |A| <= 1e-4 so near-separatrix limits can be probed).  A value that
    fits in a double is finite, one past it +-inf.  R may be a scalar or an array.
    """
    _, a = _check_case(params, case)
    R, shape = specfun._route(R)
    out = _boundary_eval(params, case, xi, R)
    if case is Sign.NEGATIVE:
        out = _times_exp(out, a * R)
    return specfun._restore(out, shape)


def _times_exp(x, e):
    """x e^e, with e^e applied in two halves: finite wherever x e^e fits a double."""
    with np.errstate(over="ignore"):
        half = np.exp(0.5 * e)
        return x * half * half


def _boundary_eval(params: ModelParams, case: Sign, xi: float, R):
    """Branch dispatch without the case gate (the quadratic branch is exact
    for parabola densities at any parameters; the convolution module relies
    on that).  On the exponential branch (A < 0) it gives Btilde(xi) e^{-aR},
    which stays finite for any aR.  R is a float or a flat array, as
    ``specfun._route`` gives it."""
    A, a = aggregate_param(params)
    if specfun._any(R <= 0.0):
        raise BracketFailureError("boundary_coeff requires R > 0")
    n, k = params.n, params.k
    if case is Sign.ZERO:
        return _boundary_zero(n, k, xi, R)
    if n == 3:
        return _boundary_3d(k, a, case, xi, R)
    return _boundary_2d(k, a, case, xi, *_radial_2d(a, case, R), _k_ratio(k * R / xi))


def _boundary_3d(k, a, case, xi, R):
    pref = math.sqrt(2.0 / (a * math.pi)) * k / (k * R + xi)
    if case is Sign.POSITIVE:
        gain = 1.0 / (1.0 + (a * xi / k) ** 2)
        return pref * gain * (np.sin(a * R) + (a * xi / k) * np.cos(a * R))
    gain = 1.0 / (1.0 - (a * xi / k) ** 2)
    # sinh(aR) e^{-aR} and cosh(aR) e^{-aR}
    sinh, cosh = -0.5 * np.expm1(-2.0 * a * R), 0.5 + 0.5 * np.exp(-2.0 * a * R)
    return pref * gain * (sinh + (a * xi / k) * cosh)


def _radial_2d(a, case, R):
    """(J_0(aR), J_1(aR)) on the positive branch, e^{-aR} (I_0(aR), I_1(aR))
    on the negative one: the R-dependence of Btilde(xi) shared by every xi."""
    aR = a * R
    if case is Sign.POSITIVE:
        return specfun.bessel_j_pair(0.0, aR)
    return specfun.bessel_i(0.0, aR, scaled=True), specfun.bessel_i(1.0, aR, scaled=True)


def _k_ratio(y):
    """K_0(y) / K_1(y) from one scaled K pair."""
    k0, k1 = specfun.bessel_k_pair(0.0, y)
    return k0 / k1


def _at_both_scales(fn, k, ell, R):
    """(fn(k R / ell), fn(k R)): for an array R from one call of fn on both
    length scales' arguments, for a float from two float calls."""
    if isinstance(R, np.ndarray):
        both = fn(np.concatenate([k * R / ell, k * R]))
        return both[:R.size], both[R.size:]
    return fn(k * R / ell), fn(k * R)


def _boundary_2d(k, a, case, xi, f0, f1, kratio):
    """Btilde(xi) in 2-D from (f0, f1) = ``_radial_2d(a, case, R)`` and
    kratio = K_0(kR/xi) / K_1(kR/xi)."""
    if case is Sign.POSITIVE:
        gain = 1.0 / (1.0 + (a * xi / k) ** 2)
        return gain * (f0 - (a * xi / k) * f1 * kratio)
    gain = 1.0 / (1.0 - (a * xi / k) ** 2)
    return gain * (f0 + (a * xi / k) * f1 * kratio)


def _boundary_zero(n, k, xi, R):
    # R^2 + (2 xi / k) R K_{n/2+1}(kR/xi) / K_{n/2}(kR/xi).  The additive
    # constant cancels in the determinant difference, but it must be R^2
    # (not 1) for the quadratic-density convolution to close; the quadrature
    # cross-checks pin this down.
    half = 0.5 * n
    ratio = specfun.ratio_k(half, k * R / xi)
    return R * R + (2.0 * xi / k) * R * ratio


def _det_pos_coeffs(params: ModelParams, a: float, R):
    """(c_sin, c_cos) with det M_+ = c_sin sin(aR) + c_cos cos(aR) in 3-D."""
    k, ell = params.k, params.ell
    g_l = 1.0 / ((1.0 + (a * ell / k) ** 2) * (k * R + ell))
    g_1 = 1.0 / ((1.0 + (a / k) ** 2) * (k * R + 1.0))
    c_sin = k * math.sqrt(2.0 / (a * math.pi)) * (g_l - g_1)
    c_cos = math.sqrt(2.0 * a / math.pi) * (ell * g_l - g_1)
    return c_sin, c_cos


def f_minus(params: ModelParams, R):
    """3-D auxiliary f_-(R); its sign is the sign of det M_- when A < 0."""
    A, a = aggregate_param(params)
    if params.n != 3 or A >= 0.0:
        raise CaseMismatchError("f_minus is defined for n = 3 with A < 0")
    C, ell, k = params.C, params.ell, params.k
    R, shape = specfun._route(R)
    th = np.tanh(a * R)
    cl3 = C * ell**3
    return specfun._restore(
        (a * ell / k) * (1.0 - cl3)
        + k * R * (1.0 - cl3) * th
        + (ell - cl3) * a * R
        + (1.0 - C * ell**4) * th,
        shape,
    )


def flock_determinant(params: ModelParams, R):
    """det M = Btilde(ell) - Btilde(1), branch selected by sign(A).

    Stable for any aR: the A < 0 branches are assembled from exponentially
    scaled pieces, so very large aR yields -inf with the correct sign
    rather than NaN.  R may be a scalar or an array.
    """
    A, a = aggregate_param(params)
    arr, shape = specfun._route(R)
    if specfun._any(arr <= 0.0):
        raise BracketFailureError("flock_determinant requires R > 0")
    n, C, ell, k = params.n, params.C, params.ell, params.k

    if A == 0.0 or abs(1.0 - C * ell**n) <= 1e-15:
        half = 0.5 * n
        w_l, w_1 = _at_both_scales(lambda y: specfun.ratio_k_over_xk(half, y), k, ell, arr)
        out = 2.0 * arr * arr * (w_l - w_1)
    elif A > 0.0:
        if n == 3:
            c_sin, c_cos = _det_pos_coeffs(params, a, arr)
            out = c_sin * np.sin(a * arr) + c_cos * np.cos(a * arr)
        else:
            f = _radial_2d(a, Sign.POSITIVE, arr)
            kr_l, kr_1 = _at_both_scales(_k_ratio, k, ell, arr)
            out = (_boundary_2d(k, a, Sign.POSITIVE, ell, *f, kr_l)
                   - _boundary_2d(k, a, Sign.POSITIVE, 1.0, *f, kr_1))
    else:
        if n == 3:
            pref = math.sqrt(2.0 / (math.pi * a)) * k * ell**2 * (C * ell - 1.0) / (1.0 - ell**2)
            with np.errstate(over="ignore"):
                out = (
                    pref
                    * np.cosh(a * arr)
                    * f_minus(params, arr)
                    / (C * ell**3 * (k * arr + ell) * (k * arr + 1.0))
                )
        else:
            kr_l, kr_1 = _at_both_scales(_k_ratio, k, ell, arr)
            c0 = (C - 1.0) * (1.0 - C * ell**2) / (C * (1.0 - ell**2))
            c1 = (C - 1.0) * a * ell**2 / (k * (1.0 - ell**2)) * (
                kr_l / (C * ell) - kr_1
            )
            f0, f1 = _radial_2d(a, Sign.NEGATIVE, arr)
            out = _times_exp(c0 * f0 + c1 * f1, a * arr)
    return specfun._restore(out, shape)


def tangent_offset(params: ModelParams, R):
    """3-D auxiliary g(R); roots of tan(aR) + g(R) coincide with the roots
    of det M_+ and the combination is strictly increasing between poles."""
    A, a = aggregate_param(params)
    if params.n != 3 or A <= 0.0:
        raise CaseMismatchError("tangent_offset is defined for n = 3 with A > 0")
    ell, k = params.ell, params.k
    R, shape = specfun._route(R)
    a2 = a * a
    num = (a2 * ell - k * k) * k * R + a2 * ell * (ell + 1.0)
    den = a2 * (ell + 1.0) * k * R + k * k + a2 * (ell * ell + ell + 1.0)
    return specfun._restore((a / k) * num / den, shape)


def _require_positive_A(params: ModelParams, allow_nonbiological: bool):
    A, a = aggregate_param(params)
    regime = classify(params)
    if A <= 0.0 or regime.a_sign is not Sign.POSITIVE:
        where = (f"on the separatrix |1 - C ell^n| <= EPS_A = {EPS_A:g}"
                 if regime.a_sign is Sign.ZERO else f"for A = {A:.6g} <= 0")
        raise NoRootError(f"no flock profile exists {where} (existence requires A > 0)")
    if not regime.biologically_relevant and not allow_nonbiological:
        raise RegimeError(
            "parameters lie outside the biologically relevant regime "
            "(needs C ell^(n-2) > 1 and ell < 1); pass allow_nonbiological=True "
            "to solve there anyway"
        )
    return A, a


def _bracket_edges(params: ModelParams, a: float, last: int, first: int = 1) -> list[float]:
    """Edges of root brackets ``first..last`` of det M: the poles
    (j - 1/2) pi / a of tan(aR) in 3-D, where det M_+ = +-c_sin alternates in
    sign; in 2-D a point near the origin, then the zeros of J_1(aR)."""
    if params.n == 3:
        return [(j - 0.5) * math.pi / a for j in range(first, last + 2)]
    zeros = [zero / a for zero in _j1_zeros(range(max(first - 1, 1), last + 1))]
    return [1e-8 / a, *zeros] if first == 1 else zeros


def _first_sign_change_2d(params: ModelParams, lo: float, hi: float) -> tuple[float, float]:
    """Grid cell of the first sign change of det M on a fine scan of the
    first 2-D bracket; warns when the scan sees more than one."""
    grid = np.linspace(lo, hi, 512)
    vals = flock_determinant(params, grid)
    flips = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
    if len(flips) > 1:
        warnings.warn(
            f"{len(flips)} sign changes of det M in the first bracket; "
            "returning the first root (2-D uniqueness is not proven)",
            MultipleRootsWarning,
        )
    if len(flips) == 0:
        return lo, hi  # the refinement reports the failed bracket
    return float(grid[flips[0]]), float(grid[flips[0] + 1])


def _refined_roots(params: ModelParams, a: float, last: int, first: int = 1):
    """The edges of brackets ``first..last`` and the root of det M refined on
    each, all together; a 2-D first bracket is narrowed to its first sign
    change before."""
    edges = _bracket_edges(params, a, last, first)
    brackets = list(zip(edges[:-1], edges[1:]))
    if params.n == 2 and first == 1:
        brackets[0] = _first_sign_change_2d(params, *brackets[0])
    return edges, bracketed_roots(functools.partial(flock_determinant, params), brackets)


def find_support_radius(
    params: ModelParams, allow_nonbiological: bool = False
) -> tuple[float, RootBracket]:
    """First positive root of det M, with its proven bracket.

    Raises NoRootError when A <= 0 (the non-existence halves of the
    theorems) and RegimeError outside the biologically relevant regime
    unless explicitly allowed.
    """
    A, a = _require_positive_A(params, allow_nonbiological)
    edges, (root,) = _refined_roots(params, a, 1)
    return root, RootBracket(lo=edges[0], hi=edges[1], index=1)


def enumerate_roots(
    params: ModelParams, count: int, allow_nonbiological: bool = False
) -> list[tuple[float, int]]:
    """First ``count`` roots of det M as (radius, root_index) pairs,
    strictly increasing; the j-th 3-D root interlaces ((j-1/2)pi/a, (j+1/2)pi/a)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    A, a = _require_positive_A(params, allow_nonbiological)
    _, roots = _refined_roots(params, a, count)
    return [(r, j) for j, r in enumerate(roots, start=1)]


def _radial_j(n: int, a: float, r, case: Sign = Sign.POSITIVE):
    """r^{1-n/2} J_{n/2-1}(a r) on the positive branch and
    r^{1-n/2} e^{-a r} I_{n/2-1}(a r) on the negative one, with the finite
    r -> 0 limit (a/2)^{n/2-1} / Gamma(n/2) that both share.  r is a float
    or a float64 array."""
    nu = 0.5 * n - 1.0
    limit = (0.5 * a) ** nu / math.gamma(0.5 * n)
    pos = case is Sign.POSITIVE
    bessel = specfun.bessel_j if pos else functools.partial(specfun.bessel_i, scaled=True)
    return specfun._piecewise(r, [
        (r == 0.0, lambda v: np.full_like(v, limit)),
        (r != 0.0, lambda v: np.power(v, 1.0 - 0.5 * n) * bessel(nu, a * v)),
    ])


def density_eval(profile: FlockProfile, r):
    """Flock density rho(r); zero outside the support (also at nan and
    +-inf), finite at r = 0."""
    arr, shape = specfun._route(r)
    inside = (arr >= 0.0) & (arr <= profile.R_star)
    out = specfun._piecewise(arr, [
        (inside, lambda v: profile.mu1 * _radial_j(profile.params.n, profile.a, v) + profile.mu2),
        (np.logical_not(inside), np.zeros_like),
    ])
    return specfun._restore(out, shape)


def _sphere_area(n: int) -> float:
    """Area of the unit sphere in n dimensions."""
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)


def _mass_closed(n: int, a: float, R, mu1: float, mu2: float):
    # integral of x^{n/2} J_{n/2-1}(a x) over [0, R] is R^{n/2} J_{n/2}(a R)/a;
    # R may be a float or an array of radii
    surface = _sphere_area(n)
    term1 = mu1 * R ** (0.5 * n) * specfun.bessel_j(0.5 * n, a * R) / a
    term2 = mu2 * R**n / n
    return surface * (term1 + term2)


def mass(profile: FlockProfile) -> float:
    """Closed-form n-dimensional mass of the profile over its support."""
    return _mass_closed(
        profile.params.n, profile.a, profile.R_star, profile.mu1, profile.mu2
    )


def solve_profile(params: ModelParams, root_index: int = 1,
                  allow_nonbiological: bool = False) -> FlockProfile:
    """Solve for the flock profile at the given determinant root.

    The null-space direction is fixed by mu2 = -Btilde(1)|_{R*} mu1 and the
    pair is scaled to unit mass.  For root_index = 1 the density is verified
    to be strictly positive (up to TOL_POS) on a fine support grid; higher
    roots are returned unchecked for the sign-structure experiments.
    """
    A, a = _require_positive_A(params, allow_nonbiological)
    check(FlockProfile, "root_index", root_index)
    _, (R_star,) = _refined_roots(params, a, root_index, root_index)
    b1 = boundary_coeff(params, Sign.POSITIVE, 1.0, R_star)
    mu1, mu2 = 1.0, -b1
    try:
        total = _mass_closed(params.n, a, R_star, mu1, mu2)
    except OverflowError:  # R*^n past the double range
        total = math.inf
    if not math.isfinite(total):
        # k R* does not depend on k, so it is k that puts R* out of range
        raise ParameterOverflowError(
            f"the mass on the support R* = {R_star:.6g} overflows the double range "
            f"at k = {params.k!r}", ((ModelParams, "k"),))
    if total == 0.0:
        raise PositivityFailureError("profile has zero mass; cannot normalize")
    mu1, mu2 = mu1 / total, mu2 / total
    D = mu2 * (params.C * params.ell**params.n - 1.0) / params.k**2
    profile = FlockProfile(
        params=params, A=A, a=a, R_star=R_star, mu1=mu1, mu2=mu2, D=D,
        root_index=root_index,
    )
    if root_index == 1:
        if mu1 <= 0.0:
            raise PositivityFailureError(
                "first-root profile has mu1 <= 0, contradicting the theory"
            )
        grid = np.linspace(0.0, R_star, 1001)
        rho = density_eval(profile, grid)
        floor = -TOL_POS * max(abs(rho[0]), 1.0)
        if np.min(rho) < floor:
            raise PositivityFailureError(
                f"first-root density dips to {np.min(rho):.3e}"
            )
    return profile


def _mode_weights(params: ModelParams, case: Sign, R: float, mu1: float, mu2: float):
    """Scaled growing-mode weights (w_l, w_1) and their shift s: lambda_1 =
    -(R^{n/2}/k) w_l e^{s - kR/ell} and lambda_2 = (R^{n/2}/k) w_1 e^{s - kR}.
    The caps Btilde(xi) mu1 + mu2 are formed times e^{-s}, with s = aR on the
    exponential branch, where they grow as e^{aR}, and 0 on the others."""
    A, a = aggregate_param(params)
    n, C, ell, k = params.n, params.C, params.ell, params.k
    half = 0.5 * n
    shift = a * R if case is Sign.NEGATIVE else 0.0
    cap_l = _boundary_eval(params, case, ell, R) * mu1 + mu2 * math.exp(-shift)
    cap_1 = _boundary_eval(params, case, 1.0, R) * mu1 + mu2 * math.exp(-shift)
    w_l = C * ell ** (n - 1.0) * cap_l * specfun.bessel_k(half, k * R / ell, scaled=True)
    w_1 = cap_1 * specfun.bessel_k(half, k * R, scaled=True)
    return w_l, w_1, shift


def mode_coeffs(
    params: ModelParams, R: float, mu1: float, mu2: float
) -> ModeCoefficients:
    """Growing-mode weights lambda_1, lambda_2 for the density direction
    (mu1, mu2) at support radius R; both vanish exactly at a solved profile.
    Each is finite wherever its value fits in a double."""
    A, _ = aggregate_param(params)
    w_l, w_1, shift = _mode_weights(params, _case_of(A), R, mu1, mu2)
    ell, k = params.ell, params.k
    scale = R ** (0.5 * params.n) / k
    lam1 = -_times_exp(scale * w_l, shift - k * R / ell)
    lam2 = _times_exp(scale * w_1, shift - k * R)
    return ModeCoefficients(lambda1=float(lam1), lambda2=float(lam2))


def _warn_if_far(condition: bool, message: str) -> None:
    if not condition:
        warnings.warn(message, LimitMismatchWarning)


def asymptotic_radius(params: ModelParams, limit: EllLimit) -> float:
    """Leading-order support radius near the ends of region I.

    3-D: the closed expansions in sqrt(1 - C ell^3) (upper) and
    sqrt(C ell - 1) (lower), with the refined tan x = x constant.
    2-D: the first zero of J_1(a r)/a (upper) and ell * R0 with R0 from the
    leading-order balance equation, refined by the bracketed Brent solver
    below the first zero of J_0 (lower).
    Far from the requested limit a LimitMismatchWarning is emitted but the
    formula value is still returned.  Raises NoRootError where A <= 0 and
    RegimeError outside the biologically relevant regime, as the solver does.
    """
    A, a = _require_positive_A(params, allow_nonbiological=False)
    n, C, ell, k = params.n, params.C, params.ell, params.k
    if n == 3:
        cl3 = C * ell**3
        # region I spans C ell^3 in (C^-2, 1); "near" = inside the outer
        # quarter of that range on the relevant side
        span = 1.0 - C**-2.0
        if limit is EllLimit.UPPER:
            _warn_if_far(
                0.0 < 1.0 - cl3 < 0.25 * span,
                f"ell = {ell} is not close to C^(-1/3) = {C ** (-1 / 3.0):.6g}",
            )
            return (
                TAN_FIXPOINT
                * math.sqrt(1.0 - C ** (-2.0 / 3.0))
                / (k * math.sqrt(1.0 - cl3))
            )
        _warn_if_far(
            0.0 < cl3 - C**-2.0 < 0.25 * span,
            f"ell = {ell} is not close to C^(-1) = {1.0 / C:.6g}",
        )
        return math.pi * math.sqrt(C * ell - 1.0) / (2.0 * k * math.sqrt(C * C - 1.0))
    # n == 2
    if limit is EllLimit.UPPER:
        _warn_if_far(
            0.0 < 1.0 - C * ell**2 < 0.25,
            f"ell = {ell} is not close to C^(-1/2) = {C ** -0.5:.6g}",
        )
        return _j1_zeros([1])[0] / a
    _warn_if_far(ell < 0.2 * C**-0.5, f"ell = {ell} is not close to 0")
    s = math.sqrt(C - 1.0)

    def balance(r0: float) -> float:
        j0, j1 = specfun.bessel_j_pair(0.0, k * r0 / s)
        return j0 - j1 * _k_ratio(k * r0) / s

    # root in t = k R0 / sqrt(C-1) below the first zero of J_0
    bracket = (1e-9 * s / k, 0.999999 * 2.4048255576957728 * s / k)
    return ell * bracketed_roots(balance, [bracket])[0]
