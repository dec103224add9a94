r"""Convolution of the Quasi-Morse potential with radial densities.

Two independent routes, both under ``specfun``'s scalar/array contract in r:

* ``convolution_closed`` -- the algebraic few-term expression obtained by
  reducing W * rho with the Bessel product integrals.  Exact (up to
  rounding) for densities of the solution family
  ``mu1 r^{1-n/2} J_{n/2-1}(a r) + mu2`` (oscillatory branch),
  ``mu1 r^2 + mu2`` (quadratic branch) and
  ``mu1 r^{1-n/2} I_{n/2-1}(a r) + mu2`` (exponential branch).
* ``convolution_quadrature`` -- one vectorised adaptive pass of Gauss
  panels over the radially reduced one-dimensional integrals, shared by
  every radius and both length scales; the integrals up to and beyond each
  radius are running sums over the accepted panels.  Valid for any radial
  density continuous on [0, R], inside or outside the support.

At a solved flock profile the closed form collapses to the constant D on
the support; ``verify_flock`` checks that collapse on a grid with both
routes and reports the deviations.

The screened-kernel pairings I(k r/ell) K(k R/ell) are never formed as
raw products: each is assembled from exponentially scaled factors and a
non-positive exponent.  Measured limits:

* Quadrature: with w the widest starting panel (the gaps between 0, the
  radii and R), the pass converged in every measured case with
  k w / ell <= 1500 and failed in every one with k w / ell >= 3000.
  A constant density on R = 1 at the single
  radius 0.5 converges at k = 1500, ell = 0.5 and raises
  QuadratureNonConvergenceError at k = 2000 in 3-D (k = 3000 in 2-D);
  at 65 equispaced radii it still converges at k = 10^4.
* Closed form: finite up to k R / ell = 5 * 10^4 on the oscillatory
  branch and 2 * 10^5 on the quadratic branch.  On the exponential branch
  (A < 0) it is built from the scaled weights of ``solver._mode_weights``
  (those of ``mode_coeffs``), so its values are finite wherever they fit
  in a double (all of [0, R] at a R = 715 in the measured cases) and
  overflow to inf, not nan, beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from ._codec import Record
from .errors import OutOfSupportError, QuadratureNonConvergenceError, VerificationFailureError
from .potentials import ModelParams, QuasiMorse, Sign, aggregate_param
from .solver import (FlockProfile, _case_of, _check_case, _mode_weights, _radial_j, _times_exp,
                     density_eval)

# The 15-point Gauss-Legendre rule, numpy's ``leggauss(15)`` bit for bit,
# written out so that importing this module does not load numpy.polynomial
# (7 ms of start-up); its nodes and weights are symmetric about 0.
_GAUSS_HALF_NODES = (0.0, 0.20119409399743451, 0.3941513470775634, 0.5709721726085388,
                     0.7244177313601701, 0.8482065834104272, 0.9372733924007058,
                     0.9879925180204854)
_GAUSS_HALF_WEIGHTS = (0.2025782419255613, 0.1984314853271116, 0.1861610000155622,
                       0.16626920581699398, 0.13957067792615444, 0.10715922046717141,
                       0.0703660474881084, 0.030753241996117203)
_GAUSS_NODES = np.concatenate([np.negative(_GAUSS_HALF_NODES[:0:-1]), _GAUSS_HALF_NODES])
_GAUSS_WEIGHTS = np.concatenate([_GAUSS_HALF_WEIGHTS[:0:-1], _GAUSS_HALF_WEIGHTS])
_MAX_DEPTH = 40
#: panel splits per pass: an integrand whose rounding noise exceeds the
#: tolerance would otherwise double its active panels at every level
_MAX_SPLITS = 2**14
#: smaller radii evaluate as 0, where K_nu cannot overflow at the nodes;
#: W * rho(r) - W * rho(0) = O(r^2 log r) is far below rounding there
_R_ZERO = 1e-150

#: verification thresholds, relative to the D-scale
TOL_CLOSED = 1e-9
TOL_QUAD = 1e-6
TOL_CROSS = 1e-6


@dataclass
class ConvolutionReport(Record):
    """Grid evaluation of W * rho by both routes, with deviation summary."""

    r_grid: np.ndarray
    closed_form: np.ndarray
    quadrature: np.ndarray
    D: float
    sup_dev_closed: float
    sup_dev_quad: float
    cross_dev: float


def _bracket_term(params: ModelParams, R: float, r, w_l: float, w_1: float, shift: float):
    """The I-mode part of the closed form, lambda_1 r^{1-n/2} I_{n/2-1}(kr/ell)
    + lambda_2 r^{1-n/2} I_{n/2-1}(kr), from ``solver._mode_weights``: each
    term is its weight times the scaled I times e^{shift - k (R - r)} (k/ell
    for the first).  The larger exponent, where it is positive, is taken out
    and applied last in two halves, so no finite value passes through inf."""
    n, ell, k = params.n, params.ell, params.k
    exp_att = shift - k * (R - r)
    exp_rep = shift - (k / ell) * (R - r)
    top = np.maximum(np.maximum(exp_att, exp_rep), 0.0)
    term_att = w_1 * _radial_j(n, k, r, Sign.NEGATIVE) * np.exp(exp_att - top)
    term_rep = w_l * _radial_j(n, k / ell, r, Sign.NEGATIVE) * np.exp(exp_rep - top)
    return _times_exp((R ** (0.5 * n) / k) * (term_att - term_rep), top)


def convolution_closed_at(
    params: ModelParams, R: float, mu1: float, mu2: float, r, case: Sign = None
):
    """Closed-form W * rho at radii r (0 <= r <= R) for the density branch
    selected by ``case`` (defaults to sign(A)) with coefficients (mu1, mu2).

    The quadratic branch is evaluated with its full off-separatrix constant
    and r^2 terms, so all three branches agree with quadrature for any
    admissible parameters, not only on the C ell^n = 1 manifold.
    """
    if case is None:
        case = _case_of(aggregate_param(params)[0])
    arr, shape = specfun._route(r)
    if specfun._any(arr < 0.0) or specfun._any(arr > R * (1.0 + 1e-12)):
        raise OutOfSupportError(
            "closed-form convolution is only asserted for 0 <= r <= R"
        )
    n, C, ell, k = params.n, params.C, params.ell, params.k
    celln = C * ell**n

    if case is not Sign.ZERO:
        # oscillatory/exponential densities are only ODE solutions when the
        # branch matches sign(A); the quadratic branch is exact anywhere
        _check_case(params, case)
    bracket = _bracket_term(params, R, arr, *_mode_weights(params, case, R, mu1, mu2))

    if case is Sign.ZERO:
        # exact for rho = mu1 r^2 + mu2 at any parameters; the r^2 and mu2
        # constants vanish identically on the separatrix C ell^n = 1
        const = (
            2.0 * n * mu1 * (C * ell ** (n + 2) - 1.0) / k**4
            + mu2 * (celln - 1.0) / k**2
        )
        out = const + mu1 * (celln - 1.0) / k**2 * np.power(arr, 2) + bracket
    else:
        out = mu2 * (celln - 1.0) / k**2 + bracket
    return specfun._restore(out, shape)


def convolution_closed(profile: FlockProfile, r):
    """Closed-form W * rho for a solved profile; collapses to D on the support."""
    return convolution_closed_at(
        profile.params, profile.R_star, profile.mu1, profile.mu2, r
    )


def _panel_pieces(n: int, scales, density, a, b):
    """Gauss-15 pieces of the screened integrands on the panels [a, b]:
    [p, j, 0] is int s^{n/2} rho(s) e^{-ks} I_nu(ks) e^{-k(b - s)} ds and
    [p, j, 1] is int s^{n/2} rho(s) e^{ks} K_nu(ks) e^{-k(s - a)} ds over
    panel p at k = scales[j], so no factor grows exponentially."""
    nu = 0.5 * n - 1.0
    half = 0.5 * (b - a)[:, None]
    s = (0.5 * (a + b))[:, None] + half * _GAUSS_NODES
    flat = s.ravel()
    base = (flat ** (0.5 * n) * density(flat)).reshape(s.shape)
    out = np.empty((len(a), len(scales), 2))
    for j, k in enumerate(scales):
        iv = specfun.bessel_i(nu, k * flat, scaled=True).reshape(s.shape)
        kv = specfun.bessel_k(nu, k * flat, scaled=True).reshape(s.shape)
        out[:, j, 0] = (base * iv * np.exp(-k * (b[:, None] - s))) @ _GAUSS_WEIGHTS
        out[:, j, 1] = (base * kv * np.exp(-k * (s - a[:, None]))) @ _GAUSS_WEIGHTS
    out *= half[:, :, None]
    return out


def _join(scales, a, mid, b, left, right):
    """Pieces of [a, b] from those of its halves [a, mid] and [mid, b]."""
    out = np.empty_like(left)
    out[..., 0] = left[..., 0] * np.exp(-np.outer(b - mid, scales)) + right[..., 0]
    out[..., 1] = left[..., 1] + right[..., 1] * np.exp(-np.outer(mid - a, scales))
    return out


def _check_finite(pieces, a, b, depth: int) -> None:
    """Raise if a piece of the panels [a, b] (or of their halves) is not finite."""
    finite = np.isfinite(pieces).all(axis=(1, 2)).reshape(-1, len(a)).all(axis=0)
    if not finite.all():
        p = int(np.argmin(finite))
        raise QuadratureNonConvergenceError(
            f"quadrature integrand is not finite on [{a[p]:.6g}, {b[p]:.6g}] "
            f"(depth {depth}, {len(a)} active panels)"
        )


def _running_sum(pieces, decay):
    """out[0] = 0 and out[j + 1] = out[j] decay[j] + pieces[j], per column."""
    out = np.zeros((len(pieces) + 1,) + pieces.shape[1:])
    acc = out[0]
    for j in range(len(pieces)):
        acc = acc * decay[j] + pieces[j]
        out[j + 1] = acc
    return out


def convolution_quadrature(density, potential: QuasiMorse, R: float, r):
    """W * rho at radii r >= 0 by adaptive quadrature of the radial reduction
    W * rho = -F_k + C ell^{n-2} F_{k/ell}, with nu = n/2 - 1 and

        F_k(r) = r^{1-n/2} [K_nu(kr) int_0^r s^{n/2} I_nu(ks) rho(s) ds
                            + I_nu(kr) int_r^R s^{n/2} K_nu(ks) rho(s) ds].

    ``density`` is a vectorized radial callable supported on [0, R].  One
    pass serves every radius and both scales.  Its panels start at 0, R and
    the radii inside (0, R); a panel is accepted when its Gauss rule and the
    sum of those on its halves agree for all four integrals, each to a share
    of the tolerance proportional to its width, and a level's failing
    panels are halved together (QuadratureNonConvergenceError past _MAX_DEPTH
    levels or _MAX_SPLITS splits, or at once on a non-finite integrand).
    The integrals over [0, r] and [r, R] are forward and backward running
    sums over the accepted panels with decay factors e^{-k width} <= 1.
    The absolute tolerance per integral is 1e-10 of the integrals' scale
    read from the first panels.
    """
    params = potential.params
    n, C, ell, k = params.n, params.C, params.ell, params.k
    r, shape = specfun._route(r)
    arr = np.ravel(r)  # the pass runs on a flat array of radii
    if not (np.all(arr >= 0.0) and 0.0 < R < math.inf):
        raise OutOfSupportError("convolution needs radii >= 0 and a finite R > 0")
    arr = np.where(arr < _R_ZERO, 0.0, arr)
    scales = np.array([k, k / ell])
    weight = C * ell ** (n - 2.0)

    edges = np.unique(np.concatenate(([0.0, R], arr[(arr > 0.0) & (arr < R)])))
    a, b = edges[:-1], edges[1:]
    whole = _panel_pieces(n, scales, density, a, b)
    _check_finite(whole, a, b, 0)
    sums = np.abs(whole).sum(axis=0) * np.array([[1.0], [weight]])
    tol = 1e-10 * max(float(sums.max()), 1e-280)
    done = []
    splits = 0
    for depth in range(_MAX_DEPTH + 1):
        mid = 0.5 * (a + b)
        halves = _panel_pieces(n, scales, density, np.r_[a, mid], np.r_[mid, b])
        _check_finite(halves, a, b, depth)
        left, right = halves[: len(a)], halves[len(a) :]
        joined = _join(scales, a, mid, b, left, right)
        err = np.abs(joined - whole)
        floor = 1e-16 * _join(scales, a, mid, b, np.abs(left), np.abs(right))
        share = (tol * (b - a) / R)[:, None, None]
        ok = ((err <= share) | (err <= floor)).all(axis=(1, 2))
        done.append((a[ok], b[ok], joined[ok]))
        if ok.all():
            break
        bad = ~ok
        splits += int(bad.sum())
        if depth == _MAX_DEPTH or splits > _MAX_SPLITS:
            p = int(np.argmax(bad))
            raise QuadratureNonConvergenceError(
                f"adaptive quadrature stalled on [{a[p]:.6g}, {b[p]:.6g}] "
                f"(depth {depth}, {len(a)} active panels, "
                f"{splits} splits, error {float(err[p].max()):.3e})"
            )
        a, b = np.r_[a[bad], mid[bad]], np.r_[mid[bad], b[bad]]
        whole = np.concatenate((left[bad], right[bad]))

    lo, hi, pieces = (np.concatenate(part) for part in zip(*done))
    order = np.argsort(lo)
    lo, hi, pieces = lo[order], hi[order], pieces[order]
    decay = np.exp(-np.outer(hi - lo, scales))
    inner = _running_sum(pieces[..., 0], decay)
    outer = _running_sum(pieces[::-1, :, 1], decay[::-1])[::-1]

    # inner and outer integrals at each radius; past R the inner one decays
    r_in = np.minimum(arr, R)
    at = np.searchsorted(np.append(lo, R), r_in)
    inner = inner[at] * np.exp(-np.outer(arr - r_in, scales))
    total = np.empty((len(arr), 2))
    pos = arr > 0.0
    for j, k_eff in enumerate(scales):
        total[:, j] = _radial_j(n, k_eff, arr, Sign.NEGATIVE) * outer[at, j]
        total[pos, j] += (
            arr[pos] ** (1.0 - 0.5 * n)
            * specfun.bessel_k(0.5 * n - 1.0, k_eff * arr[pos], scaled=True)
            * inner[pos, j]
        )
    out = -total[:, 0] + weight * total[:, 1]
    return specfun._restore(out.reshape(np.shape(r)), shape)


def verify_flock(profile: FlockProfile, grid_size: int = 256) -> ConvolutionReport:
    """Check W * rho = D on the support by both routes.

    Raises VerificationFailureError (carrying the report) if any deviation
    exceeds its threshold relative to max(|D|, rho(0)).
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    grid = np.linspace(0.0, profile.R_star, grid_size)
    closed = convolution_closed(profile, grid)
    dens = lambda s: density_eval(profile, s)
    pot = QuasiMorse(profile.params)
    quad = convolution_quadrature(dens, pot, profile.R_star, grid)
    scale = max(abs(profile.D), abs(density_eval(profile, 0.0)))
    report = ConvolutionReport(
        r_grid=grid,
        closed_form=closed,
        quadrature=quad,
        D=profile.D,
        sup_dev_closed=float(np.max(np.abs(closed - profile.D))),
        sup_dev_quad=float(np.max(np.abs(quad - profile.D))),
        cross_dev=float(np.max(np.abs(closed - quad))),
    )
    ok = (
        report.sup_dev_closed <= TOL_CLOSED * scale
        and report.sup_dev_quad <= TOL_QUAD * scale
        and report.cross_dev <= TOL_CROSS * scale
    )
    if not ok:
        raise VerificationFailureError(
            f"flock verification failed: closed dev {report.sup_dev_closed:.3e}, "
            f"quadrature dev {report.sup_dev_quad:.3e}, cross dev "
            f"{report.cross_dev:.3e} against scale {scale:.3e}",
            report,
        )
    return report
