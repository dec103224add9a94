r"""Flock-profile solver.

Computes the boundary-coefficient functions, the scalar determinant whose
first positive root is the support radius, brackets and refines that root,
recovers the density direction from the null space of the homogeneous 2x2
system, normalizes to unit mass, and evaluates the support-radius
asymptotics near both ends of region I.

The determinant is ``det M = Btilde(ell) - Btilde(1)``, where Btilde is the
boundary coefficient at the repulsive (xi = ell) and attractive (xi = 1)
scales.  Every root is refined on ``det M`` itself by the package's one
bracketed Brent solver (``_roots.bracketed_root``).  In 3-D the positive
branch collapses to ``c_sin sin(aR) + c_cos cos(aR)``, which equals
``+-c_sin`` with alternating signs at the poles ``(j - 1/2) pi / a`` of
tan(aR); consecutive poles bracket exactly one root, and the j-th root
lies between the j-th and (j+1)-th pole.  In 2-D the brackets end at the
zeros of J_1(aR), and the first one is narrowed to the cell of a 512-point
scan where det M first changes sign.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import specfun
from ._codec import Record
from ._roots import bracketed_root
from .errors import (
    BracketFailureError,
    CaseMismatchError,
    DomainError,
    LimitMismatchWarning,
    MultipleRootsWarning,
    NoRootError,
    PositivityFailureError,
    RegimeError,
)
from .potentials import ModelParams, Sign, aggregate_param, classify

TOL_ROOT = 1e-12
TOL_NULL = 1e-9
TOL_POS = 1e-10

#: first positive root of tan x = x (often quoted rounded to 4.49)
TAN_FIXPOINT = 4.493409457909064

#: |A| below which the quadratic (A = 0) branch may be selected explicitly
A_ZERO_TOL = 1e-4

_J1_ZERO_CACHE: dict[int, float] = {}


def _j1_zero(m: int) -> float:
    """m-th positive zero of J_1, refined inside its McMahon bracket."""
    if m not in _J1_ZERO_CACHE:
        approx = (m + 0.25) * math.pi
        _J1_ZERO_CACHE[m] = bracketed_root(
            lambda x: specfun.bessel_j(1.0, x), approx - 0.6, approx + 0.6
        )
    return _J1_ZERO_CACHE[m]


@dataclass(frozen=True)
class FlockProfile(Record):
    """A solved analytic flock: parameters plus (mu1, mu2, R_star) and
    the derived aggregate values and convolution constant D."""

    params: ModelParams
    A: float
    a: float
    R_star: float
    mu1: float
    mu2: float
    D: float
    root_index: int = 1

    def __post_init__(self):
        finite = all(map(math.isfinite, (self.A, self.a, self.mu1, self.mu2, self.D)))
        if not (finite and 0.0 < self.R_star < math.inf and self.root_index >= 1):
            raise DomainError(
                "a profile needs finite A, a, mu1, mu2 and D, a finite R_star > 0 "
                f"and root_index >= 1, got {self}"
            )


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


def boundary_coeff(params: ModelParams, case: Sign, xi: float, R, general: bool = False):
    """Boundary coefficient Btilde(xi) at support radius R.

    ``case`` selects the branch by the sign of the aggregate parameter; it
    must not contradict the parameters (the quadratic branch tolerates
    |A| <= 1e-4 so near-separatrix limits can be probed).  With
    ``general=True`` the dimension-independent formula is used as a
    cross-check path; the dimension-specialized forms are authoritative.
    R may be a scalar or an array.
    """
    _check_case(params, case)
    return _boundary_eval(params, case, xi, R, general=general)


def _boundary_eval(params: ModelParams, case: Sign, xi: float, R, general: bool = False):
    """Branch dispatch without the case gate (the quadratic branch is exact
    for parabola densities at any parameters; the convolution module relies
    on that)."""
    A, a = aggregate_param(params)
    arr = np.atleast_1d(np.asarray(R, dtype=np.float64))
    scalar = np.asarray(R).ndim == 0
    if np.any(arr <= 0.0):
        raise BracketFailureError("boundary_coeff requires R > 0")
    n, k = params.n, params.k
    if general:
        out = _boundary_general(n, k, a, case, xi, arr)
    elif case is Sign.ZERO:
        out = _boundary_zero(n, k, xi, arr)
    elif n == 3:
        out = _boundary_3d(k, a, case, xi, arr)
    else:
        out = _boundary_2d(k, a, case, xi, arr)
    return float(out[0]) if scalar else out


def _boundary_3d(k, a, case, xi, R):
    pref = math.sqrt(2.0 / (a * math.pi)) * k / (k * R + xi)
    if case is Sign.POSITIVE:
        gain = 1.0 / (1.0 + (a * xi / k) ** 2)
        return pref * gain * (np.sin(a * R) + (a * xi / k) * np.cos(a * R))
    gain = 1.0 / (1.0 - (a * xi / k) ** 2)
    return pref * gain * (np.sinh(a * R) + (a * xi / k) * np.cosh(a * R))


def _boundary_2d(k, a, case, xi, R):
    kratio = specfun.bessel_k(0.0, k * R / xi, scaled=True) / specfun.bessel_k(
        1.0, k * R / xi, scaled=True
    )
    if case is Sign.POSITIVE:
        gain = 1.0 / (1.0 + (a * xi / k) ** 2)
        return gain * (
            specfun.bessel_j(0.0, a * R)
            - (a * xi / k) * specfun.bessel_j(1.0, a * R) * kratio
        )
    gain = 1.0 / (1.0 - (a * xi / k) ** 2)
    return gain * (
        specfun.bessel_i(0.0, a * R)
        + (a * xi / k) * specfun.bessel_i(1.0, a * R) * kratio
    )


def _boundary_zero(n, k, xi, R):
    # R^2 + (2 xi / k) R K_{n/2+1}(kR/xi) / K_{n/2}(kR/xi).  The additive
    # constant cancels in the determinant difference, but it must be R^2
    # (not 1) for the quadratic-density convolution to close; the quadrature
    # cross-checks pin this down.
    half = 0.5 * n
    ratio = specfun.bessel_k(half + 1.0, k * R / xi, scaled=True) / specfun.bessel_k(
        half, k * R / xi, scaled=True
    )
    return R * R + (2.0 * xi / k) * R * ratio


def _boundary_general(n, k, a, case, xi, R):
    half = 0.5 * n
    if case is Sign.ZERO:
        return _boundary_zero(n, k, xi, R)
    y = k * R / xi
    k_low = specfun.bessel_k(half - 2.0, y, scaled=True)  # K_{-1} = K_1 at n = 2
    k_mid = specfun.bessel_k(half - 1.0, y, scaled=True)
    k_top = specfun.bessel_k(half, y, scaled=True)
    if case is Sign.POSITIVE:
        gain = 1.0 / (1.0 + (a * xi / k) ** 2)
        f_hi = specfun.bessel_j(half - 1.0, a * R)
        f_lo = specfun.bessel_j(half - 2.0, a * R)
    else:
        gain = 1.0 / (1.0 - (a * xi / k) ** 2)
        f_hi = specfun.bessel_i(half - 1.0, a * R)
        f_lo = specfun.bessel_i(half - 2.0, a * R)
    return (
        R ** (1.0 - half)
        * gain
        * (f_hi * k_low / k_top + (a * xi / k) * f_lo * k_mid / k_top)
    )


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
    R = np.asarray(R, dtype=np.float64)
    th = np.tanh(a * R)
    cl3 = C * ell**3
    return (
        (a * ell / k) * (1.0 - cl3)
        + k * R * (1.0 - cl3) * th
        + (ell - cl3) * a * R
        + (1.0 - C * ell**4) * th
    )


def flock_determinant(params: ModelParams, R):
    """det M = Btilde(ell) - Btilde(1), branch selected by sign(A).

    Stable for any aR: the A < 0 branches are assembled from exponentially
    scaled pieces, so very large aR yields -inf with the correct sign
    rather than NaN.  R may be a scalar or an array.
    """
    A, a = aggregate_param(params)
    arr = np.atleast_1d(np.asarray(R, dtype=np.float64))
    scalar = np.asarray(R).ndim == 0
    if np.any(arr <= 0.0):
        raise BracketFailureError("flock_determinant requires R > 0")
    n, C, ell, k = params.n, params.C, params.ell, params.k

    if A == 0.0 or abs(1.0 - C * ell**n) <= 1e-15:
        half = 0.5 * n
        w_l = specfun.ratio_k_over_xk(half, k * arr / ell)
        w_1 = specfun.ratio_k_over_xk(half, k * arr)
        out = 2.0 * arr * arr * (w_l - w_1)
    elif A > 0.0:
        if n == 3:
            c_sin, c_cos = _det_pos_coeffs(params, a, arr)
            out = c_sin * np.sin(a * arr) + c_cos * np.cos(a * arr)
        else:
            out = _boundary_2d(k, a, Sign.POSITIVE, ell, arr) - _boundary_2d(
                k, a, Sign.POSITIVE, 1.0, arr
            )
    else:
        if n == 3:
            pref = (
                math.sqrt(2.0 / (math.pi * a))
                * k
                * ell**2
                * (C * ell - 1.0)
                / (1.0 - ell**2)
            )
            with np.errstate(over="ignore"):
                out = (
                    pref
                    * np.cosh(a * arr)
                    * f_minus(params, arr)
                    / (C * ell**3 * (k * arr + ell) * (k * arr + 1.0))
                )
        else:
            kr_l = specfun.bessel_k(0.0, k * arr / ell, scaled=True) / specfun.bessel_k(
                1.0, k * arr / ell, scaled=True
            )
            kr_1 = specfun.bessel_k(0.0, k * arr, scaled=True) / specfun.bessel_k(
                1.0, k * arr, scaled=True
            )
            c0 = (C - 1.0) * (1.0 - C * ell**2) / (C * (1.0 - ell**2))
            c1 = (C - 1.0) * a * ell**2 / (k * (1.0 - ell**2)) * (
                kr_l / (C * ell) - kr_1
            )
            scaled = c0 * specfun.bessel_i(0.0, a * arr, scaled=True) + c1 * specfun.bessel_i(
                1.0, a * arr, scaled=True
            )
            with np.errstate(over="ignore"):
                out = scaled * np.exp(a * arr)
    return float(out[0]) if scalar else out


def tangent_offset(params: ModelParams, R):
    """3-D auxiliary g(R); roots of tan(aR) + g(R) coincide with the roots
    of det M_+ and the combination is strictly increasing between poles."""
    A, a = aggregate_param(params)
    if params.n != 3 or A <= 0.0:
        raise CaseMismatchError("tangent_offset is defined for n = 3 with A > 0")
    ell, k = params.ell, params.k
    R = np.asarray(R, dtype=np.float64)
    a2 = a * a
    num = (a2 * ell - k * k) * k * R + a2 * ell * (ell + 1.0)
    den = a2 * (ell + 1.0) * k * R + k * k + a2 * (ell * ell + ell + 1.0)
    return (a / k) * num / den


def _require_positive_A(params: ModelParams, allow_nonbiological: bool):
    A, a = aggregate_param(params)
    regime = classify(params)
    if A <= 0.0 or regime.a_sign is not Sign.POSITIVE:
        raise NoRootError(
            f"no flock profile exists for A = {A:.6g} <= 0 "
            "(existence requires A > 0)"
        )
    if not regime.biologically_relevant and not allow_nonbiological:
        raise RegimeError(
            "parameters lie outside the biologically relevant regime "
            "(needs C ell^(n-2) > 1 and ell < 1); pass allow_nonbiological=True "
            "to solve there anyway"
        )
    return A, a


def _bracket_edges(params: ModelParams, a: float, count: int) -> list[float]:
    """Edges of the first ``count`` root brackets of det M: the poles
    (j - 1/2) pi / a of tan(aR) in 3-D, where det M_+ = +-c_sin alternates in
    sign; in 2-D a point near the origin, then the zeros of J_1(aR)."""
    if params.n == 3:
        return [(j - 0.5) * math.pi / a for j in range(1, count + 2)]
    return [1e-8 / a] + [_j1_zero(m) / a for m in range(1, count + 1)]


def _first_sign_change_2d(
    params: ModelParams, lo: float, hi: float
) -> tuple[float, float]:
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
        return lo, hi  # bracketed_root reports the failed bracket
    return float(grid[flips[0]]), float(grid[flips[0] + 1])


def _refined_roots(params: ModelParams, edges: list[float]) -> list[float]:
    """det M refined on each bracket (edges[j-1], edges[j]); a 2-D first
    bracket is narrowed to its first sign change before refinement."""
    brackets = list(zip(edges[:-1], edges[1:]))
    if params.n == 2:
        brackets[0] = _first_sign_change_2d(params, *brackets[0])
    return [
        bracketed_root(lambda R: flock_determinant(params, R), lo, hi)
        for lo, hi in brackets
    ]


def find_support_radius(
    params: ModelParams, allow_nonbiological: bool = False
) -> tuple[float, RootBracket]:
    """First positive root of det M, with its proven bracket.

    Raises NoRootError when A <= 0 (the non-existence halves of the
    theorems) and RegimeError outside the biologically relevant regime
    unless explicitly allowed.
    """
    A, a = _require_positive_A(params, allow_nonbiological)
    edges = _bracket_edges(params, a, 1)
    root = _refined_roots(params, edges)[0]
    return root, RootBracket(lo=edges[0], hi=edges[1], index=1)


def enumerate_roots(
    params: ModelParams, count: int, allow_nonbiological: bool = False
) -> list[tuple[float, int]]:
    """First ``count`` roots of det M as (radius, root_index) pairs,
    strictly increasing; the j-th 3-D root interlaces ((j-1/2)pi/a, (j+1/2)pi/a)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    A, a = _require_positive_A(params, allow_nonbiological)
    roots = _refined_roots(params, _bracket_edges(params, a, count))
    return [(r, j) for j, r in enumerate(roots, start=1)]


def _radial_j(n: int, a: float, r):
    """r^{1-n/2} J_{n/2-1}(a r) with its finite r -> 0 limit."""
    r = np.asarray(r, dtype=np.float64)
    out = np.empty_like(r)
    zero = r == 0.0
    out[zero] = (0.5 * a) ** (0.5 * n - 1.0) / math.gamma(0.5 * n)
    nz = ~zero
    if np.any(nz):
        if n == 2:
            out[nz] = specfun.bessel_j(0.0, a * r[nz])
        else:
            out[nz] = r[nz] ** -0.5 * specfun.bessel_j(0.5, a * r[nz])
    return out


def density_eval(profile: FlockProfile, r):
    """Flock density rho(r); zero outside the support, finite at r = 0."""
    arr = np.atleast_1d(np.asarray(r, dtype=np.float64))
    scalar = np.asarray(r).ndim == 0
    out = np.zeros_like(arr)
    inside = (arr >= 0.0) & (arr <= profile.R_star)
    if np.any(inside):
        out[inside] = profile.mu1 * _radial_j(
            profile.params.n, profile.a, arr[inside]
        ) + profile.mu2
    return float(out[0]) if scalar else out


def _mass_closed(n: int, a: float, R: float, mu1: float, mu2: float) -> float:
    # integral of x^{n/2} J_{n/2-1}(a x) over [0, R] is R^{n/2} J_{n/2}(a R)/a
    surface = 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)
    term1 = mu1 * R ** (0.5 * n) * specfun.bessel_j(0.5 * n, a * R) / a
    term2 = mu2 * R**n / n
    return surface * (term1 + term2)


def mass(profile: FlockProfile) -> float:
    """Closed-form n-dimensional mass of the profile over its support."""
    return _mass_closed(
        profile.params.n, profile.a, profile.R_star, profile.mu1, profile.mu2
    )


def solve_profile(
    params: ModelParams,
    root_index: int = 1,
    allow_nonbiological: bool = False,
) -> FlockProfile:
    """Solve for the flock profile at the given determinant root.

    The null-space direction is fixed by mu2 = -Btilde(1)|_{R*} mu1 and the
    pair is scaled to unit mass.  For root_index = 1 the density is verified
    to be strictly positive (up to TOL_POS) on a fine support grid; higher
    roots are returned unchecked for the sign-structure experiments.
    """
    A, a = _require_positive_A(params, allow_nonbiological)
    roots = enumerate_roots(params, root_index, allow_nonbiological=allow_nonbiological)
    R_star = roots[root_index - 1][0]
    b1 = boundary_coeff(params, Sign.POSITIVE, 1.0, R_star)
    mu1, mu2 = 1.0, -b1
    total = _mass_closed(params.n, a, R_star, mu1, mu2)
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


def mode_coeffs(
    params: ModelParams, R: float, mu1: float, mu2: float
) -> ModeCoefficients:
    """Growing-mode weights lambda_1, lambda_2 for the density direction
    (mu1, mu2) at support radius R; both vanish exactly at a solved profile."""
    A, a = aggregate_param(params)
    case = _case_of(A)
    n, C, ell, k = params.n, params.C, params.ell, params.k
    b_l = boundary_coeff(params, case, ell, R)
    b_1 = boundary_coeff(params, case, 1.0, R)
    cap_l = b_l * mu1 + mu2
    cap_1 = b_1 * mu1 + mu2
    half = 0.5 * n
    lam1 = (
        -C
        * (R**half / k)
        * ell ** (n - 1.0)
        * cap_l
        * specfun.bessel_k(half, k * R / ell)
    )
    lam2 = (R**half / k) * cap_1 * specfun.bessel_k(half, k * R)
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
    formula value is still returned.
    """
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
    A, a = aggregate_param(params)
    if limit is EllLimit.UPPER:
        _warn_if_far(
            0.0 < 1.0 - C * ell**2 < 0.25,
            f"ell = {ell} is not close to C^(-1/2) = {C ** -0.5:.6g}",
        )
        if A <= 0.0:
            raise NoRootError("2-D upper-limit asymptotics require A > 0")
        return _j1_zero(1) / a
    _warn_if_far(ell < 0.2 * C**-0.5, f"ell = {ell} is not close to 0")
    s = math.sqrt(C - 1.0)

    def balance(r0: float) -> float:
        t = k * r0 / s
        kratio = specfun.bessel_k(0.0, k * r0, scaled=True) / specfun.bessel_k(
            1.0, k * r0, scaled=True
        )
        return specfun.bessel_j(0.0, t) - specfun.bessel_j(1.0, t) * kratio / s

    # root in t = k R0 / sqrt(C-1) below the first zero of J_0
    lo = 1e-9 * s / k
    hi = 0.999999 * 2.4048255576957728 * s / k
    return ell * bracketed_root(balance, lo, hi)
