r"""Quasi-Morse, Morse, and generalized Morse-like interaction potentials.

The Quasi-Morse potential is built from the fundamental solution of the
screened Laplacian ``Delta - k^2 Id`` and its C-weighted, ell-rescaled copy:

    U(r) = (2 pi)^{-n/2} r^{1-n/2} k^{n/2-1}
           [ C ell^{n/2-1} K_{n/2-1}(k r / ell) - K_{n/2-1}(k r) ]

which reduces to ``(1/(4 pi r)) (C ell e^{-k r/ell} - e^{-k r})`` in 3-D and
to ``(1/(2 pi)) (C K_0(k r/ell) - K_0(k r))`` in 2-D.  Attraction strength
and length scale are normalized to one, so the model is the tuple
(n, C, ell, k).

The module also evaluates radial force magnitudes U'(r), the aggregate
parameter ``A = k^2 (1 - C ell^n) / (C ell^n - ell^2)`` whose sign decides
flock existence, and the (C, ell) phase-diagram classification.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import specfun
from ._codec import Record, decode_tagged, encode_tagged, tag_table
from ._roots import bracketed_root
from .errors import DegenerateDenominatorError, DomainError

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

    n: int
    C: float
    ell: float
    k: float

    def __post_init__(self):
        if self.n not in (2, 3):
            raise DomainError(f"dimension must be 2 or 3, got {self.n}")
        if not (self.C > 0.0 and self.ell > 0.0 and self.k > 0.0):
            raise DomainError("C, ell and k must be strictly positive")
        if not all(map(math.isfinite, (self.C, self.ell, self.k))):
            raise DomainError("C, ell and k must be finite")


@dataclass(frozen=True)
class QuasiMorse:
    params: ModelParams


@dataclass(frozen=True)
class Morse:
    """Conventional Morse potential C_R e^{-r/ell_R} - C_A e^{-r/ell_A}."""

    C_R: float
    C_A: float
    ell_R: float
    ell_A: float

    def __post_init__(self):
        values = (self.C_R, self.C_A, self.ell_R, self.ell_A)
        if not all(v > 0.0 and math.isfinite(v) for v in values):
            raise DomainError("Morse strengths and scales must be positive and finite")


@dataclass(frozen=True)
class MorseLike:
    """U = V - C V(./ell) with V(r) = -exp(-r^p / p); interpolates in p."""

    p: float
    C: float
    ell: float

    def __post_init__(self):
        if not all(v > 0.0 and math.isfinite(v) for v in (self.p, self.C, self.ell)):
            raise DomainError("MorseLike requires finite p, C, ell > 0")


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


def _positive_radii(r):
    arr = np.asarray(r, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr <= 0.0):
        raise DomainError("potential is singular at r = 0; r must be > 0")
    return arr, scalar


def quasi_morse_u(params: ModelParams, r):
    """Quasi-Morse potential U(r); r > 0, scalar or array."""
    arr, scalar = _positive_radii(r)
    n, C, ell, k = params.n, params.C, params.ell, params.k
    nu = 0.5 * n - 1.0
    pref = _TWO_PI ** (-0.5 * n) * k**nu * arr ** (1.0 - 0.5 * n)
    rep = C * ell**nu * specfun.bessel_k(nu, k * arr / ell)
    att = specfun.bessel_k(nu, k * arr)
    out = pref * (rep - att)
    return float(out[0]) if scalar else out


def _quasi_morse_du(params: ModelParams, arr):
    # d/dr [r^{1-n/2} K_{n/2-1}(b r)] = -b r^{1-n/2} K_{n/2}(b r)
    n, C, ell, k = params.n, params.C, params.ell, params.k
    half = 0.5 * n
    pref = _TWO_PI ** (-half) * k**half * arr ** (1.0 - half)
    return pref * (
        specfun.bessel_k(half, k * arr)
        - C * ell ** (half - 2.0) * specfun.bessel_k(half, k * arr / ell)
    )


def potential_value(spec: PotentialSpec, r):
    """U(r) for any supported potential kind; r > 0, scalar or array."""
    if isinstance(spec, QuasiMorse):
        return quasi_morse_u(spec.params, r)
    arr, scalar = _positive_radii(r)
    if isinstance(spec, Morse):
        out = spec.C_R * np.exp(-arr / spec.ell_R) - spec.C_A * np.exp(-arr / spec.ell_A)
    elif isinstance(spec, MorseLike):
        p, C, ell = spec.p, spec.C, spec.ell
        out = -np.exp(-(arr**p) / p) + C * np.exp(-((arr / ell) ** p) / p)
    else:
        raise TypeError(f"not a potential spec: {spec!r}")
    return float(out[0]) if scalar else out


def potential_force_magnitude(spec: PotentialSpec, r):
    """Radial derivative U'(r), so that grad W(x) = U'(|x|) x/|x|."""
    arr, scalar = _positive_radii(r)
    if isinstance(spec, QuasiMorse):
        out = _quasi_morse_du(spec.params, arr)
    elif isinstance(spec, Morse):
        out = -spec.C_R / spec.ell_R * np.exp(-arr / spec.ell_R) + (
            spec.C_A / spec.ell_A
        ) * np.exp(-arr / spec.ell_A)
    elif isinstance(spec, MorseLike):
        p, C, ell = spec.p, spec.C, spec.ell
        out = arr ** (p - 1.0) * np.exp(-(arr**p) / p) - (C / ell) * (
            arr / ell
        ) ** (p - 1.0) * np.exp(-((arr / ell) ** p) / p)
    else:
        raise TypeError(f"not a potential spec: {spec!r}")
    return float(out[0]) if scalar else out


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


def _point_rule(params: ModelParams):
    ell, n = params.ell, params.n
    return _phase_rule(params.C, ell, ell**n, ell ** (n - 2), params.k, _if)


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

    ell^n and ell^(n-2) are taken with Python's ``**`` once per ell and
    broadcast: numpy's vector power differs from it by an ulp on some
    inputs, and the grid must equal the scalar calls bit for bit.
    """
    if n not in (2, 3):
        raise DomainError(f"dimension must be 2 or 3, got {n}")
    if not (k > 0.0 and math.isfinite(k)):
        raise DomainError(f"k must be positive and finite, got {k}")
    C = np.asarray(C, dtype=np.float64).reshape(-1)
    ell = np.asarray(ell, dtype=np.float64).reshape(-1)
    # a non-positive ell is an invalid cell, which the scalar calls never
    # reach; as nan its power cannot overflow
    valid = [e if e > 0.0 else math.nan for e in ell.tolist()]
    ell_n = np.array([e**n for e in valid])
    ell_n2 = np.array([e ** (n - 2) for e in valid])
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


def minimum_radius(spec: PotentialSpec, r_lo: float = None, r_hi: float = None) -> float:
    """Radius of the potential minimum: a geometric scan finds the first
    sign change of U' from - to +, and the bracketed Brent solver refines it.

    Raises DomainError if no sign change is found in the scan window.
    """
    if isinstance(spec, QuasiMorse):
        scale = spec.params.ell / max(spec.params.k, 1e-6)
    elif isinstance(spec, Morse):
        scale = spec.ell_R
    else:
        scale = spec.ell
    lo = r_lo if r_lo is not None else 1e-4 * scale
    hi = r_hi if r_hi is not None else 1e3 * scale

    grid = np.geomspace(lo, hi, 512)
    vals = potential_force_magnitude(spec, grid)
    sign_change = np.nonzero((vals[:-1] < 0.0) & (vals[1:] >= 0.0))[0]
    if len(sign_change) == 0:
        raise DomainError("no minimum of U found in the scan window")
    return bracketed_root(
        lambda r: potential_force_magnitude(spec, r),
        grid[sign_change[0]],
        grid[sign_change[0] + 1],
    )
