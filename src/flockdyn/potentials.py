r"""Quasi-Morse, Morse, and generalized Morse-like interaction potentials.

The Quasi-Morse potential is built from the fundamental solution of the
screened Laplacian ``Delta - k^2 Id`` and its C-weighted, ell-rescaled copy:

    U(r) = (2 pi)^{-n/2} r^{1-n/2} k^{n/2-1}
           [ C ell^{n/2-1} K_{n/2-1}(k r / ell) - K_{n/2-1}(k r) ]

which reduces to ``(1/(4 pi r)) (C ell e^{-k r/ell} - e^{-k r})`` in 3-D and
to ``(1/(2 pi)) (C K_0(k r/ell) - K_0(k r))`` in 2-D.  Attraction strength
and length scale are normalized to one, so the model is the tuple
(n, C, ell, k).

This module alone knows the potential kinds.  One private evaluator,
``_evaluate``, holds each kind's formulas for U and the radial force
magnitude U' once, and the public evaluators are its projections (r > 0,
under ``specfun``'s scalar/array contract); ``_length_scale`` holds each
kind's length scale.  The module also gives the aggregate parameter
``A = k^2 (1 - C ell^n) / (C ell^n - ell^2)``, whose sign decides flock
existence, and the (C, ell) phase diagram.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Annotated, Union

import numpy as np

from . import specfun
from ._codec import Positive, Record, check, decode_tagged, domains, encode_tagged
from ._codec import one_of, tag_table
from ._roots import bracketed_root
from .errors import DegenerateDenominatorError, DomainError, ParameterOverflowError

#: tolerance on |C ell^n - 1| for separatrix / zero-sign classification
EPS_A = 1e-10

_TWO_PI = 2.0 * math.pi


class Sign(enum.Enum):
    POSITIVE = "positive"
    ZERO = "zero"
    NEGATIVE = "negative"


class Region(enum.Enum):
    REGION_I = "region_i"
    REGION_II = "region_ii"
    SEPARATRIX = "separatrix"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class ModelParams(Record):
    """Quasi-Morse parameter tuple: dimension, repulsion strength/scale, decay."""

    n: Annotated[int, one_of(2, 3)]
    C: Positive
    ell: Positive
    k: Positive


@dataclass(frozen=True)
class QuasiMorse(Record):
    params: ModelParams


@dataclass(frozen=True)
class Morse(Record):
    """Conventional Morse potential C_R e^{-r/ell_R} - C_A e^{-r/ell_A}."""

    C_R: Positive
    C_A: Positive
    ell_R: Positive
    ell_A: Positive


@dataclass(frozen=True)
class MorseLike(Record):
    """U = V - C V(./ell) with V(r) = -exp(-r^p / p); interpolates in p."""

    p: Positive
    C: Positive
    ell: Positive


PotentialSpec = Union[QuasiMorse, Morse, MorseLike]


def potential_to_dict(spec: PotentialSpec) -> dict:
    """Canonical JSON-friendly encoding with a ``kind`` tag."""
    return encode_tagged(tag_table(PotentialSpec), spec)


def potential_from_dict(d: dict) -> PotentialSpec:
    return decode_tagged(tag_table(PotentialSpec), d, "potential")


@dataclass(frozen=True)
class RegimeClass:
    """Phase-diagram classification of one (C, ell) point."""

    biologically_relevant: bool
    h_stable: bool
    region: Region
    a_sign: Sign


def _raw_k(nu: float, x, lower: bool, upper: bool):
    """(K_nu(x), K_{nu+1}(x)), each None unless asked for (one at least),
    with ``bessel_k``'s bits: one scaled ``specfun._kve`` call times e^{-x}.
    nu = n/2 - 1 and x is a float or flat array > 0."""
    asked = [abs(order) for order, want in ((nu, lower), (nu + 1.0, upper)) if want]
    scaled = iter(specfun._kve(asked, x))
    decay = np.exp(-x)  # after _kve, whose temporaries would otherwise meet it
    return tuple(next(scaled) * decay if want else None for want in (lower, upper))


def _evaluate(spec: PotentialSpec, arr, value: bool = True, force: bool = True):
    """(U(r), U'(r)) of any supported kind at the radii ``arr`` > 0 (a float
    or a float64 array), each None unless asked for; every kind's formulas
    are written here once, with ``np.power``, which gives a float an array's bits.

    Each Bessel pair or exponential that U and U' share is computed once.
    For Quasi-Morse, with nu = n/2 - 1, U carries K_nu and, since
    d/dr [r^{-nu} K_nu(b r)] = -b r^{-nu} K_{nu+1}(b r), U' carries
    K_{nu+1}: asked for both, one Bessel evaluation per length scale serves
    them.  Temporaries are dropped as soon as they are used."""
    u = du = None
    if isinstance(spec, QuasiMorse):
        n, C, ell, k = spec.params.n, spec.params.C, spec.params.ell, spec.params.k
        half = 0.5 * n
        nu = half - 1.0
        att_u, att_du = _raw_k(nu, k * arr, value, force)
        rep_u, rep_du = _raw_k(nu, k * arr / ell, value, force)
        power = np.power(arr, 1.0 - half)
        norm = _TWO_PI ** (-half)
        if value:
            u = norm * k**nu * power * (C * ell**nu * rep_u - att_u)
            del att_u, rep_u
        if force:
            du = norm * k**half * power * (att_du - C * ell ** (half - 2.0) * rep_du)
    elif isinstance(spec, Morse):
        rep, att = np.exp(-arr / spec.ell_R), np.exp(-arr / spec.ell_A)
        if value:
            u = spec.C_R * rep - spec.C_A * att
        if force:
            du = -spec.C_R / spec.ell_R * rep + (spec.C_A / spec.ell_A) * att
    elif isinstance(spec, MorseLike):
        p, C, ell = spec.p, spec.C, spec.ell
        scaled = arr / ell
        inner, outer = np.exp(-np.power(arr, p) / p), np.exp(-np.power(scaled, p) / p)
        if value:
            u = -inner + C * outer
        if force:
            du = np.power(arr, p - 1.0) * inner - (C / ell) * np.power(scaled, p - 1.0) * outer
    else:
        raise TypeError(f"not a potential spec: {spec!r}")
    return u, du


def _project(spec: PotentialSpec, r, value: bool = True, force: bool = True):
    """``_evaluate`` at r > 0, where no Quasi-Morse K argument (k r, k r / ell)
    underflows to 0, through ``specfun._route`` and ``_restore``."""
    arr, shape = specfun._route(r)
    if specfun._any(arr <= 0.0):
        raise DomainError("potential is singular at r = 0; r must be > 0")
    if isinstance(spec, QuasiMorse) and specfun._any(
            spec.params.k * arr / max(spec.params.ell, 1.0) == 0.0):
        raise ParameterOverflowError(f"a K argument of {spec} underflows to 0",
                                     _parameter_fields(spec))
    u, du = _evaluate(spec, arr, value, force)
    return tuple(None if v is None else specfun._restore(v, shape) for v in (u, du))


def quasi_morse_u(params: ModelParams, r):
    """Quasi-Morse potential U(r); r > 0, scalar or array."""
    return _project(QuasiMorse(params), r, force=False)[0]


def potential_value(spec: PotentialSpec, r):
    """U(r) for any supported potential kind; r > 0, scalar or array."""
    return _project(spec, r, force=False)[0]


def potential_force_magnitude(spec: PotentialSpec, r):
    """Radial derivative U'(r), so that grad W(x) = U'(|x|) x/|x|."""
    return _project(spec, r, value=False)[1]


def potential_value_and_force(spec: PotentialSpec, r):
    """(U(r), U'(r)), each equal bit for bit to ``potential_value`` and
    ``potential_force_magnitude``, from one evaluation of what they share."""
    return _project(spec, r)


def _length_scale(spec: PotentialSpec) -> float:
    """A potential's length scale: ell_R for Morse, ell for the others."""
    if isinstance(spec, QuasiMorse):
        return spec.params.ell
    if isinstance(spec, Morse):
        return spec.ell_R
    return spec.ell


def _parameter_fields(spec: PotentialSpec) -> tuple:
    """The (record class, field name) of each parameter of ``spec``."""
    record = spec.params if isinstance(spec, QuasiMorse) else spec
    return tuple((type(record), name) for name in domains(type(record)))


#: integer codes of the phase rule: indices into these tuples
_REGIONS = tuple(Region)
_SIGNS = tuple(Sign)
_I, _II, _SEPARATRIX, _OUTSIDE = map(
    _REGIONS.index, (Region.REGION_I, Region.REGION_II, Region.SEPARATRIX, Region.OUTSIDE)
)
_POSITIVE, _ZERO, _NEGATIVE = map(_SIGNS.index, (Sign.POSITIVE, Sign.ZERO, Sign.NEGATIVE))


def _if(cond, a, b):
    return a if cond else b


def _phase_rule(C, ell, ell_n, ell_n2, k, select):
    """The phase-diagram rule at (C, ell), given ell^n and ell^(n-2).

    Written once for both callers: ``select`` is a conditional expression
    (``_if``) at one point and ``np.where`` on a grid, where every argument
    broadcasts.  Returns (biologically_relevant, h_stable, region code,
    sign code, A, C ell^n - ell^2, degenerate); A is nan where the
    denominator is degenerate.
    """
    bio = (C * ell_n2 > 1.0) & (ell < 1.0)
    celln = C * ell_n
    s = 1.0 - celln  # sign of A's numerator
    den = celln - ell * ell
    zero = abs(s) <= EPS_A
    # where A diverges (den == 0), report the numerator's sign (den -> 0+)
    positive = select(den == 0.0, s > 0.0, s * den > 0.0)
    a_sign = select(zero, _ZERO, select(positive, _POSITIVE, _NEGATIVE))
    region = select(bio, select(zero, _SEPARATRIX, select(celln < 1.0, _I, _II)), _OUTSIDE)
    # den has cancelled to 1e-12 of its terms (k only scales A); <= also
    # counts den == 0 where both terms underflow, so A never divides by 0
    degenerate = abs(den) <= 1e-12 * (celln + ell * ell)
    A = k * k * s / select(degenerate, math.nan, den)
    return bio, celln > 1.0, region, a_sign, A, den, degenerate


def _ell_powers(ell: float, n: int) -> tuple[float, float]:
    """(ell^n, ell^(n-2)) by Python's ``**``, whose bits numpy's vector power
    misses by an ulp on some inputs; an overflow raises ParameterOverflowError."""
    try:
        return ell**n, ell ** (n - 2)
    except OverflowError:
        raise ParameterOverflowError(f"ell^n overflows the double range at ell = {ell!r}, "
                                     f"n = {n}", ((ModelParams, "ell"),)) from None


def _point_rule(params: ModelParams):
    return _phase_rule(params.C, params.ell, *_ell_powers(params.ell, params.n), params.k, _if)


def aggregate_param(params: ModelParams) -> tuple[float, float]:
    """Aggregate potential parameter A = k^2 (1 - C ell^n)/(C ell^n - ell^2)
    and a = sqrt(|A|)."""
    *_, A, den, degenerate = _point_rule(params)
    if degenerate:
        raise DegenerateDenominatorError(
            f"C ell^n - ell^2 = {den:.3e} is numerically degenerate"
        )
    return A, math.sqrt(abs(A))


def classify(params: ModelParams) -> RegimeClass:
    """Phase-diagram classification; total in the parameters."""
    bio, h_stable, region, a_sign, *_ = _point_rule(params)
    return RegimeClass(
        biologically_relevant=bio,
        h_stable=h_stable,
        region=_REGIONS[region],
        a_sign=_SIGNS[a_sign],
    )


@dataclass(frozen=True)
class PhaseGrid:
    """Classification of every cell of a (C, ell) grid: arrays of shape
    (len(C), len(ell)), C along the rows.

    ``region`` and ``a_sign`` hold indices into ``tuple(Region)`` and
    ``tuple(Sign)``, or -1 at an invalid cell (one whose parameters
    ModelParams rejects: C or ell not positive and finite), where
    ``biologically_relevant`` and ``h_stable`` are False and ``A`` is nan.
    ``A`` is also nan where aggregate_param raises DegenerateDenominatorError.
    """

    C: np.ndarray
    ell: np.ndarray
    biologically_relevant: np.ndarray
    h_stable: np.ndarray
    region: np.ndarray
    a_sign: np.ndarray
    A: np.ndarray
    invalid: np.ndarray


def phase_grid(n: int, C, ell, k: float) -> PhaseGrid:
    """classify and aggregate_param at every (C[i], ell[j]) in one array
    pass, bit for bit equal to the scalar calls.

    ell^n and ell^(n-2) are taken once per ell, as the scalar calls take
    them (``_ell_powers``), and broadcast.  n and k must lie in the
    domains ModelParams declares.
    """
    check(ModelParams, "n", n)
    check(ModelParams, "k", k)
    C = np.asarray(C, dtype=np.float64).reshape(-1)
    ell = np.asarray(ell, dtype=np.float64).reshape(-1)
    # a non-positive ell is an invalid cell, which the scalar calls never
    # reach; as nan its power cannot overflow
    valid = [e if e > 0.0 else math.nan for e in ell.tolist()]
    ell_n, ell_n2 = np.array([_ell_powers(e, n) for e in valid]).reshape(-1, 2).T
    col = C[:, None]
    with np.errstate(all="ignore"):
        bio, h_stable, region, a_sign, A, _, _ = _phase_rule(
            col, ell, ell_n, ell_n2, k, np.where
        )
    invalid = ~((col > 0.0) & np.isfinite(col) & (ell > 0.0) & np.isfinite(ell))
    return PhaseGrid(
        C=C,
        ell=ell,
        biologically_relevant=bio & ~invalid,
        h_stable=h_stable & ~invalid,
        region=np.where(invalid, -1, region).astype(np.int8),
        a_sign=np.where(invalid, -1, a_sign).astype(np.int8),
        A=np.where(invalid, math.nan, A),
        invalid=invalid,
    )


def morse_like_regime(spec: MorseLike, n: int) -> tuple[bool, bool]:
    """(biologically_relevant, h_stable) for the Morse-like family.

    Only the inequality checks ell < 1, C > ell^p and C ell^n > 1 are
    reported; existence of the potential minimum is not certified for
    general p.
    """
    relevant = spec.ell < 1.0 and spec.C > spec.ell**spec.p
    h_stable = spec.C * spec.ell**n > 1.0
    return relevant, h_stable


def minimum_radius(spec: PotentialSpec) -> float:
    """Radius of the potential minimum: a geometric scan of 512 points over
    [1e-4, 1e3] times the potential's length scale (over max(k, 1e-6)
    for Quasi-Morse) finds the first sign change of U' from - to +, and the
    bracketed Brent solver refines it.

    Raises DomainError if no sign change is found in the scan window.
    """
    scale = _length_scale(spec)
    if isinstance(spec, QuasiMorse):
        scale /= max(spec.params.k, 1e-6)
    grid = np.geomspace(1e-4 * scale, 1e3 * scale, 512)
    vals = potential_force_magnitude(spec, grid)
    sign_change = np.nonzero((vals[:-1] < 0.0) & (vals[1:] >= 0.0))[0]
    if len(sign_change) == 0:
        raise DomainError("no minimum of U found in the scan window")
    return bracketed_root(
        lambda r: potential_force_magnitude(spec, r),
        grid[sign_change[0]],
        grid[sign_change[0] + 1],
    )
