r"""N-body integration of the aggregation and self-propelled swarming models.

First-order model:   dx_i/dt = -(1/N) sum_{j != i} grad W(x_i - x_j)
Second-order model:  dv_i/dt = alpha v_i - beta |v_i|^2 v_i - (1/N) sum grad W

with grad W(z) = U'(|z|) z / |z| for any supported radial potential.  The
first-order system is integrated with explicit Euler; the second-order one
with a velocity-Verlet-style splitting in which the self-propulsion factor
is applied pointwise-exactly per half step (the speed ODE
``du/dt = 2u (alpha - beta u)`` for u = |v|^2 is logistic and has a closed
solution).

Forces are evaluated by an O(N^2) direct sum over the unordered pairs,
taken in blocks of ``_BLOCK_ROWS`` rows against the columns j >= i: each
pair's weight U'(d)/d is computed once and applied to both particles, and
the pair work arrays take O(N * _BLOCK_ROWS) memory rather than O(N^2).
The interaction energy visits the same blocks.  Blocks, and the sums
within them, run in fixed index order, so trajectories are
bit-reproducible for a given seed and configuration regardless of how the
surrounding code schedules work.  Pairs closer than ``min_separation`` use
the force magnitude U'(min_sep) frozen at that separation, down to d -> 0
(the Quasi-Morse potential is singular at the origin for n >= 2, so the
clamp makes the regularization explicit); exactly coincident pairs exert
no force.  Those few close pairs are summed from their offsets, so their
force keeps its direction however small d is next to |x|.

A second-order step needs the force at its start and at its end.  The end
of one step is the start of the next ("first same as last"), so
``step_second_order`` keeps its last end-of-step force pass and reuses it
when the next call starts from the same positions with the same force
model: a run costs one force pass per step, and its results are those of
fresh evaluations bit for bit.

For throughput, U'(r)/r, U'(r) and U(r) are by default tabulated once per
configuration on a dense grid uniform in log r and linearly interpolated,
with the cell found by index arithmetic rather than a search (measured
error below 1e-6 of the force scale for every supported potential);
``tabulated_forces=False`` switches to direct evaluation for
exactness-sensitive experiments.  The tables are kept even for the
potentials with cheap closed forms, which measured slower than the lookup
(see ``_ForceModel``).
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ._codec import Record
from .errors import DomainError, NumericalBlowupError
from .potentials import (
    Morse,
    MorseLike,
    PotentialSpec,
    QuasiMorse,
    potential_force_magnitude,
    potential_value,
)
from .solver import FlockProfile, density_eval


def _check_scale(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class UniformBall:
    radius: float = 1.0

    def __post_init__(self):
        _check_scale("ball radius", self.radius)


@dataclass(frozen=True)
class Gaussian:
    sigma: float = 1.0

    def __post_init__(self):
        _check_scale("gaussian sigma", self.sigma)


@dataclass(frozen=True)
class FromFile:
    path: str = ""


InitSpec = Union[UniformBall, Gaussian, FromFile]


@dataclass(frozen=True)
class SimConfig(Record):
    """Configuration of one N-body run; hashable so force models cache."""

    potential: PotentialSpec
    dimension: int
    N: int = 1000
    dt: float = None
    steps: int = 1000
    model: str = "first"  # "first" or "second"
    alpha: float = 1.0
    beta: float = 0.5
    seed: int = 0
    init: InitSpec = UniformBall(1.0)
    min_separation: float = None
    record_stride: int = 100
    blowup_bound: float = 1e6
    tabulated_forces: bool = True
    convergence_tol: float = 1e-9
    convergence_window: int = 100
    stop_when_converged: bool = False

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise DomainError("dimension must be 2 or 3")
        if self.N < 2:
            raise DomainError("need at least two particles")
        if self.model not in ("first", "second"):
            raise DomainError("model must be 'first' or 'second'")
        if self.dt is None:
            object.__setattr__(self, "dt", 0.01 * min(1.0, self._ell()))
        _check_scale("dt", self.dt)
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DomainError("alpha and beta must be finite")
        if self.model == "second" and not (self.alpha > 0.0 and self.beta > 0.0):
            raise DomainError("second-order runs need alpha, beta > 0")
        if self.min_separation is None:
            object.__setattr__(self, "min_separation", 1e-6 * self._ell())
        _check_scale("min_separation", self.min_separation)
        _check_scale("blowup_bound", self.blowup_bound)
        if not (self.convergence_tol >= 0.0 and math.isfinite(self.convergence_tol)):
            raise DomainError("convergence_tol must be non-negative and finite")
        if self.steps < 0:
            raise DomainError("steps must be non-negative")
        if self.record_stride < 1:
            raise DomainError("record_stride must be at least 1")

    def _ell(self) -> float:
        pot = self.potential
        if isinstance(pot, QuasiMorse):
            return pot.params.ell
        if isinstance(pot, Morse):
            return pot.ell_R
        return pot.ell


@dataclass
class ParticleState:
    positions: np.ndarray  # (N, n)
    velocities: Optional[np.ndarray]  # (N, n) for the second-order model
    time: float = 0.0

    def copy(self) -> "ParticleState":
        return ParticleState(
            positions=self.positions.copy(),
            velocities=None if self.velocities is None else self.velocities.copy(),
            time=self.time,
        )


@dataclass
class RadialHistogram:
    bin_edges: np.ndarray
    density: np.ndarray  # mass per n-volume, particles carry mass 1/N
    center: np.ndarray
    counts: np.ndarray = None


@dataclass
class RunSummary:
    records: list
    steps_run: int
    converged: bool
    final_max_displacement: float


# Rows of the pair kernel handled per block.  A pass allocates its
# (_BLOCK_ROWS, N) work arrays once and reuses them for every block, so
# memory grows as O(N) rather than O(N^2).  At 32 rows the arrays stay near
# cache size (512 KB each at N = 2000); 64 rows measured the same up to
# N = 2000, while 128 and 256 rows were up to 1.7x slower at N = 5000.
# With the half-pair kernel, 64, 128 and 160 rows again measured no better
# at N = 400 or N = 2000.
_BLOCK_ROWS = 32

# The pairs j <= i of a block's diagonal square (the block's rows against
# its own columns), which a pass over the unordered pairs j > i leaves out.
_DIAG_MASK = np.tri(_BLOCK_ROWS, dtype=bool)

# Nodes of the force and energy tables, uniform in log r.
_TABLE_SIZE = 32768


def _with_slopes(tab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A table and its per-cell slopes, padded with a zero slope so that the
    last node interpolates to itself exactly."""
    return tab, np.append(np.diff(tab), 0.0)


class _ForceModel:
    """U'(r), U'(r)/r and U(r) with the min-separation clamp, optionally via
    dense interpolation tables on a grid uniform in log r.

    The tables cover [0.5 min_sep, r_max].  Since the grid is uniform, a
    lookup finds its cell by index arithmetic, ``s = (log r - x0)/h`` and
    ``i = int(s)``, instead of the binary search ``np.interp`` runs per
    point, and returns ``tab[i] + (s - i) slope[i]``.  Arguments are
    clipped to the table, which reproduces ``np.interp``'s endpoint values
    below 0.5 min_sep and above r_max; below the table U'(r)/r is then
    replaced by the clamp U'(min_sep)/d (see ``force_over_dist_sq``).  The
    pair loop feeds 0.5 log(d^2), so it never takes a square root.

    The tables are kept for all potentials, although 3-D Quasi-Morse, Morse
    and Morse-like have closed forms built from exponentials and powers:
    on 2000 x 2000 pairs the closed forms of 3-D Quasi-Morse and Morse-like
    measured 1.5x slower than the lookup.  32768 nodes keep every table
    within 1e-6 of its scale; U'(r)/r of 3-D Quasi-Morse grows as r^-3
    towards min_sep and needed more than 16384.  ``tabulated=False``
    evaluates the potential directly and is the exact reference."""

    def __init__(self, potential: PotentialSpec, min_sep: float, tabulated: bool,
                 r_max: float = None):
        self.potential = potential
        self.min_sep = min_sep
        self.tabulated = tabulated
        self.r_max = r_max if r_max is not None else 1e4
        # pairs closer than min_sep are clamped, and below the table's lower
        # edge U'(r)/r is U'(min_sep)/d in both modes
        self._min_sep_sq = min_sep * min_sep
        if tabulated:
            x0, x1 = math.log(0.5 * min_sep), math.log(self.r_max)
            grid = np.exp(np.linspace(x0, x1, _TABLE_SIZE))
            r_eff = np.maximum(grid, min_sep)
            force_tab = potential_force_magnitude(potential, r_eff)
            self._force_at_min = float(force_tab[0])  # r_eff[0] is min_sep
            self._x0 = x0
            self._inv_h = (_TABLE_SIZE - 1) / (x1 - x0)
            self._force_tab = _with_slopes(force_tab)
            self._w_tab = _with_slopes(force_tab / grid)
            self._value_tab = _with_slopes(potential_value(potential, r_eff))
        else:
            self._force_at_min = float(potential_force_magnitude(potential, np.array([min_sep]))[0])

    def _lookup(self, table, s, work=None):
        """Linear interpolation of ``table`` at log r = ``s``, a float array
        overwritten with the result.  ``work`` is an optional pair of work
        arrays of s's shape, (float scratch, intp index)."""
        tab, slope = table
        s = np.asarray(s)
        scratch, index = work or (np.empty_like(s), np.empty(s.shape, dtype=np.intp))
        s -= self._x0
        s *= self._inv_h
        np.clip(s, 0.0, _TABLE_SIZE - 1, out=s)
        cell = np.floor(s, out=scratch)
        np.copyto(index, cell, casting="unsafe")
        s -= cell
        # the clip above keeps every index inside the table
        s *= np.take(slope, index, out=scratch, mode="clip")
        s += np.take(tab, index, out=scratch, mode="clip")
        return s

    def force(self, r):
        r_eff = np.maximum(r, self.min_sep)
        if not self.tabulated:
            return potential_force_magnitude(self.potential, r_eff)
        return self._lookup(self._force_tab, np.log(r_eff))

    def force_over_dist_sq(self, d2, work=None):
        """U'(max(d, min_sep))/d from squared distances, and 0 at d = 0
        (exactly coincident particles exert no force).  Below the table's
        edge 0.5 min_sep both modes return U'(min_sep)/d.  Given the work
        arrays of ``_lookup``, the tabulated result overwrites ``d2``."""
        return self.clamped_weights(d2, work)[0]

    def clamped_weights(self, d2, work=None):
        """(w, clamped): ``force_over_dist_sq`` and the flat indices of the
        pairs closer than min_sep.  One mask finds them; the entries below
        the table's edge, d = 0 included, are then set from the clamp."""
        d2 = np.asarray(d2)
        clamped = np.flatnonzero(d2 < self._min_sep_sq)
        d_clamped = np.sqrt(d2.flat[clamped])
        if self.tabulated:
            w = self._lookup(self._w_tab, _half_log(d2, work), work)
        else:
            d = np.sqrt(d2)
            with np.errstate(divide="ignore", invalid="ignore"):
                w = potential_force_magnitude(
                    self.potential, np.maximum(d, self.min_sep)
                ) / d
        if clamped.size:
            below = d_clamped < 0.5 * self.min_sep
            d_below = d_clamped[below]
            with np.errstate(divide="ignore"):
                w.flat[clamped[below]] = np.where(d_below > 0.0,
                                                  self._force_at_min / d_below, 0.0)
        return w, clamped

    def value_from_dist_sq(self, d2, work=None):
        """U(max(d, min_sep)) from squared distances; ``work`` as in
        ``force_over_dist_sq``."""
        if not self.tabulated:
            return potential_value(self.potential, np.maximum(np.sqrt(d2), self.min_sep))
        return self._lookup(self._value_tab, _half_log(d2, work), work)


def _half_log(d2, work):
    """log d from d^2, in place when work arrays are given; -inf at d = 0,
    which the lookup clips to the table's first node."""
    with np.errstate(divide="ignore"):
        x = np.log(d2, out=d2 if work else None)
    x *= 0.5
    return x


@functools.lru_cache(maxsize=8)
def _cached_model(potential: PotentialSpec, min_sep: float, tabulated: bool) -> _ForceModel:
    return _ForceModel(potential, min_sep, tabulated)


def _pair_blocks(x: np.ndarray):
    """Yield (lo, hi, d2, work) for the row blocks lo:hi of the pair kernel
    in fixed order: d2 holds |x_i - x_j|^2 for the rows i in lo:hi against
    the columns j >= lo, and work is the (scratch, index) pair of the table
    lookup.  Column k of d2 is particle lo + k, so the block's leading
    square d2[:, :hi - lo] holds its rows against themselves; its diagonal,
    the self pairs that every caller drops, holds the placeholder 1 rather
    than 0, so that small entries mark close distinct pairs only.  The
    arrays are allocated once and reused by every block, so a caller must
    finish with a block before the next.

    d2 is summed from the coordinate differences, so coincident particles
    give exactly 0 and close pairs keep their relative accuracy.  The Gram
    expansion |x_i|^2 + |x_j|^2 - 2 x_i.x_j guarantees neither: its
    rounding leaves a few eps |x|^2, which the 1/d weight turns into a
    spurious force at and near d = 0."""
    n_part = x.shape[0]
    first, *rest = np.ascontiguousarray(x.T)
    size = min(_BLOCK_ROWS, n_part) * n_part
    buffers = np.empty(size), np.empty(size), np.empty(size, dtype=np.intp)
    for lo in range(0, n_part, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n_part)
        shape = (hi - lo, n_part - lo)
        d2, scratch, index = (buf[: shape[0] * shape[1]].reshape(shape) for buf in buffers)
        np.subtract.outer(first[lo:hi], first[lo:], out=d2)
        np.multiply(d2, d2, out=d2)
        for coord in rest:
            np.subtract.outer(coord[lo:hi], coord[lo:], out=scratch)
            np.multiply(scratch, scratch, out=scratch)
            d2 += scratch
        np.fill_diagonal(d2[:, : hi - lo], 1.0)
        yield lo, hi, d2, (scratch, index)


def _drop_lower_pairs(block: np.ndarray, rows: int) -> None:
    """Zero the pairs j <= i in the leading square of a row block, leaving
    the pairs j > i that a block of ``_pair_blocks`` owns."""
    np.copyto(block[:, :rows], 0.0, where=_DIAG_MASK[:rows, :rows])


def _accelerations(x: np.ndarray, model: _ForceModel) -> np.ndarray:
    """-(1/N) sum_j U'(|x_i - x_j|) (x_i - x_j)/|x_i - x_j|, fixed order.

    One pass over the unordered pairs: each row block of ``_pair_blocks``
    keeps its pairs j > i, and each weight w_ij = U'(d_ij)/d_ij = w_ji is
    computed once and applied to both particles.  With x extended by a
    column of ones to x1, particle i needs s_i = sum_j w_ij x1_j, and the
    acceleration collapses to (sum_j w_ij) x_i - (w x)_i without forming
    pair offsets.  A block adds its rows' sums, w @ x1[lo:], and its
    columns' sums, x1[lo:hi].T @ w, into one (n + 1, N) array.

    The collapsed form rounds at eps |w| |x|, which the clamp's weight
    U'(min_sep)/d makes large next to the pair's force as d -> 0.  So the
    few pairs closer than min_sep are taken out of it and summed from their
    offsets x_i - x_j instead; coincident pairs weigh 0."""
    n_part = x.shape[0]
    x_one_t = np.vstack([x.T, np.ones(n_part)])
    x_one = x_one_t.T
    sums = np.zeros_like(x_one_t)
    near = np.zeros_like(x)
    for lo, hi, d2, work in _pair_blocks(x):
        w, clamped = model.clamped_weights(d2, work)
        _drop_lower_pairs(w, hi - lo)
        if clamped.size:
            rows, cols = np.divmod(clamped, w.shape[1])
            rows += lo
            cols += lo
            upper = cols > rows
            rows, cols = rows[upper], cols[upper]
            pair_acc = w.flat[clamped[upper]][:, None] * (x[rows] - x[cols])
            w.flat[clamped] = 0.0
            np.add.at(near, rows, pair_acc)
            np.subtract.at(near, cols, pair_acc)
        sums[:, lo:hi] += (w @ x_one[lo:]).T
        sums[:, lo:] += x_one_t[:, lo:hi] @ w
    acc = sums[-1][:, None] * x
    acc -= sums[:-1].T
    acc += near
    acc /= -n_part
    return acc


def interaction_energy(state: ParticleState, config: SimConfig) -> float:
    """Discrete interaction energy (1/(2 N^2)) sum_{i != j} W(x_i - x_j),
    summed once per pair i < j in the row blocks of the force kernel."""
    model = _cached_model(
        config.potential, config.min_separation, config.tabulated_forces
    )
    x = state.positions
    total = 0.0
    for lo, hi, d2, work in _pair_blocks(x):
        vals = model.value_from_dist_sq(d2, work)
        _drop_lower_pairs(vals, hi - lo)
        total += float(vals.sum())
    return total / x.shape[0] ** 2


def _check_blowup(x: np.ndarray, bound: float, step: int) -> None:
    if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > bound:
        raise NumericalBlowupError(
            f"coordinate exceeded bound {bound:g} at step {step}", step
        )


def step_first_order(state: ParticleState, config: SimConfig) -> ParticleState:
    """One explicit Euler step of the aggregation system."""
    model = _cached_model(
        config.potential, config.min_separation, config.tabulated_forces
    )
    acc = _accelerations(state.positions, model)
    new_x = state.positions + config.dt * acc
    _check_blowup(new_x, config.blowup_bound, 0)
    return ParticleState(positions=new_x, velocities=None, time=state.time + config.dt)


def _propel_exact(v: np.ndarray, alpha: float, beta: float, dt: float) -> np.ndarray:
    """Exact flow of dv/dt = (alpha - beta |v|^2) v over dt (direction fixed,
    |v|^2 follows the logistic equation)."""
    u0 = np.einsum("ij,ij->i", v, v)
    growth = math.exp(2.0 * alpha * dt)
    u_new = u0 * growth / (1.0 + (beta / alpha) * u0 * (growth - 1.0))
    factor = np.sqrt(np.where(u0 > 0.0, u_new / np.where(u0 > 0.0, u0, 1.0), 0.0))
    return v * factor[:, None]


# The last end-of-step force pass of step_second_order: its force model,
# a copy of the positions it was taken at, and the accelerations.  It lives
# at module level, named like the package's other memo tables, so that code
# clearing those between runs clears it too.
_FSAL_CACHE: dict = {}


def step_second_order(state: ParticleState, config: SimConfig) -> ParticleState:
    """One velocity-Verlet-style step of the self-propelled system.

    The force pass at the start of a step is the one that ended the
    previous call when the positions and the force model are the same
    ("first same as last"); anything else, including positions edited in
    place since, gets a fresh pass."""
    if state.velocities is None:
        raise DomainError("second-order step needs velocities")
    model = _cached_model(
        config.potential, config.min_separation, config.tabulated_forces
    )
    dt, alpha, beta = config.dt, config.alpha, config.beta
    x, v = state.positions, state.velocities
    last = _FSAL_CACHE
    if last and last["model"] is model and np.array_equal(last["positions"], x):
        acc = last["acc"]
    else:
        acc = _accelerations(x, model)
    v = v + 0.5 * dt * acc
    v = _propel_exact(v, alpha, beta, 0.5 * dt)
    x = x + dt * v
    v = _propel_exact(v, alpha, beta, 0.5 * dt)
    acc = _accelerations(x, model)
    v = v + 0.5 * dt * acc
    _check_blowup(x, config.blowup_bound, 0)
    _FSAL_CACHE.update(model=model, positions=x.copy(), acc=acc)
    return ParticleState(positions=x, velocities=v, time=state.time + dt)


def initial_state(config: SimConfig) -> ParticleState:
    """Seeded initial condition per the config's init spec."""
    rng = np.random.default_rng(config.seed)
    n, dim = config.N, config.dimension
    init = config.init
    if isinstance(init, UniformBall):
        direc = rng.normal(size=(n, dim))
        direc /= np.linalg.norm(direc, axis=1, keepdims=True)
        radii = init.radius * rng.uniform(size=n) ** (1.0 / dim)
        x = direc * radii[:, None]
    elif isinstance(init, Gaussian):
        x = rng.normal(scale=init.sigma, size=(n, dim))
    elif isinstance(init, FromFile):
        loaded, _ = load_checkpoint(init.path)
        if loaded.positions.shape != (n, dim):
            raise DomainError(
                f"checkpoint shape {loaded.positions.shape} does not match "
                f"config ({n}, {dim})"
            )
        x = loaded.positions.copy()
    else:
        raise TypeError(f"not an init spec: {init!r}")
    v = None
    if config.model == "second":
        v = rng.normal(scale=0.1, size=(n, dim))
    return ParticleState(positions=x, velocities=v, time=0.0)


def run(config: SimConfig, state: ParticleState = None) -> tuple[ParticleState, RunSummary]:
    """Integrate ``config.steps`` steps (or fewer if convergence stopping is
    enabled), recording diagnostics every ``record_stride`` steps."""
    if state is None:
        state = initial_state(config)
    else:
        state = state.copy()
    step_fn = step_first_order if config.model == "first" else step_second_order
    r_ref = max(float(np.max(np.linalg.norm(state.positions, axis=1))), 1e-12)
    records = []
    quiet = 0
    converged = False
    max_disp = math.inf
    steps_done = 0
    for i in range(config.steps):
        prev = state.positions
        try:
            state = step_fn(state, config)
        except NumericalBlowupError as exc:
            raise NumericalBlowupError(str(exc), step=i) from None
        steps_done = i + 1
        max_disp = float(np.max(np.linalg.norm(state.positions - prev, axis=1)))
        if max_disp < config.convergence_tol * r_ref:
            quiet += 1
        else:
            quiet = 0
        if i % config.record_stride == 0 or i == config.steps - 1:
            rec = {
                "step": i,
                "time": state.time,
                "max_displacement": max_disp,
                "com": [float(c) for c in state.positions.mean(axis=0)],
                "interaction_energy": interaction_energy(state, config),
            }
            if state.velocities is not None:
                speeds = np.linalg.norm(state.velocities, axis=1)
                rec["mean_speed"] = float(speeds.mean())
            records.append(rec)
        if quiet >= config.convergence_window:
            converged = True
            if config.stop_when_converged:
                break
    return state, RunSummary(
        records=records,
        steps_run=steps_done,
        converged=converged,
        final_max_displacement=max_disp,
    )


def radial_histogram(state: ParticleState, bins: int) -> RadialHistogram:
    """Shell-volume-normalized radial density about the center of mass."""
    x = state.positions
    n_part, dim = x.shape
    if bins > n_part:
        raise DomainError("more bins than particles")
    center = x.mean(axis=0)
    radii = np.linalg.norm(x - center, axis=1)
    r_max = float(radii.max()) * (1.0 + 1e-12)
    if r_max == 0.0:
        r_max = 1e-12
    edges = np.linspace(0.0, r_max, bins + 1)
    counts, _ = np.histogram(radii, bins=edges)
    if dim == 2:
        vols = math.pi * np.diff(edges**2)
    else:
        vols = (4.0 * math.pi / 3.0) * np.diff(edges**3)
    density = counts / (n_part * vols)
    return RadialHistogram(bin_edges=edges, density=density, center=center, counts=counts)


def compare_profile(hist: RadialHistogram, profile: FlockProfile) -> tuple[float, float]:
    """(l1_error, support_error) between an empirical histogram and the
    analytic profile.

    l1_error is the n-volume integral of |rho_hist - rho| out to the larger
    of the histogram extent and R*; since both densities carry unit mass it
    lies in [0, 2] and is read as a mass fraction.  support_error compares
    the outermost particle radius with R*.
    """
    dim = profile.params.n
    if (hist.center.shape[0]) != dim:
        raise DomainError("histogram and profile dimensions differ")
    edges = hist.bin_edges
    r_hi = max(float(edges[-1]), profile.R_star)
    sub = 32
    total = 0.0
    segments = list(zip(edges[:-1], edges[1:], hist.density))
    if edges[-1] < r_hi:
        segments.append((float(edges[-1]), r_hi, 0.0))
    for lo, hi, rho_emp in segments:
        r = np.linspace(lo, hi, sub)
        diff = np.abs(density_eval(profile, r) - rho_emp)
        if dim == 2:
            shell = 2.0 * math.pi * r
        else:
            shell = 4.0 * math.pi * r * r
        total += float(np.trapezoid(diff * shell, r))
    support_error = abs(float(edges[-1]) - profile.R_star) / profile.R_star
    return total, support_error


def sample_profile_positions(profile: FlockProfile, count: int, seed: int = 0) -> np.ndarray:
    """Draw positions from the analytic density by inverse-CDF sampling of
    the radial mass distribution (vectorized bisection on the closed-form
    cumulative mass)."""
    from . import specfun

    rng = np.random.default_rng(seed)
    dim = profile.params.n
    a, mu1, mu2 = profile.a, profile.mu1, profile.mu2
    surface = 2.0 * math.pi ** (0.5 * dim) / math.gamma(0.5 * dim)

    def cdf(r):
        term1 = mu1 * r ** (0.5 * dim) * specfun.bessel_j(0.5 * dim, a * r) / a
        return surface * (term1 + mu2 * r**dim / dim)

    u = rng.uniform(size=count)
    lo = np.zeros(count)
    hi = np.full(count, profile.R_star)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        takes_hi = cdf(mid) < u
        lo = np.where(takes_hi, mid, lo)
        hi = np.where(takes_hi, hi, mid)
    radii = 0.5 * (lo + hi)
    direc = rng.normal(size=(count, dim))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    return direc * radii[:, None]


def save_checkpoint(state: ParticleState, config: SimConfig, prefix: str) -> tuple[str, str]:
    """Write positions (and velocities) as CSV plus a JSON sidecar with the
    config and time; returns the two paths."""
    csv_path = f"{prefix}.csv"
    meta_path = f"{prefix}.json"
    dim = state.positions.shape[1]
    cols = [f"x{i+1}" for i in range(dim)]
    if state.velocities is not None:
        cols += [f"v{i+1}" for i in range(dim)]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        if state.velocities is not None:
            rows = np.hstack([state.positions, state.velocities])
        else:
            rows = state.positions
        for row in rows:
            writer.writerow([f"{v:.17g}" for v in row])
    with open(meta_path, "w") as fh:
        json.dump(
            {"config": config.to_dict(), "time": state.time},
            fh,
            sort_keys=True,
            indent=2,
        )
        fh.write("\n")
    return csv_path, meta_path


def load_checkpoint(prefix: str) -> tuple[ParticleState, Optional[dict]]:
    """Read a checkpoint written by save_checkpoint.  ``prefix`` may be the
    bare prefix or the CSV path itself."""
    path = Path(prefix)
    csv_path = path if path.suffix == ".csv" else Path(f"{prefix}.csv")
    meta_path = csv_path.with_suffix(".json")
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = list(reader)
    dim = sum(1 for c in header if c.startswith("x"))
    has_v = any(c.startswith("v") for c in header)
    if dim == 0:
        raise DomainError(f"{csv_path}: the header names no coordinate columns")
    if not rows:
        raise DomainError(f"{csv_path}: no particle rows")
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DomainError(
                f"{csv_path}: line {line} has {len(row)} fields, the header {len(header)}"
            )
    data = np.array([[float(v) for v in row] for row in rows])
    if not np.all(np.isfinite(data)):
        line = 2 + int(np.flatnonzero(~np.isfinite(data).all(axis=1))[0])
        raise DomainError(f"{csv_path}: non-finite value on line {line}")
    positions = data[:, :dim]
    velocities = data[:, dim : 2 * dim] if has_v else None
    meta = None
    time = 0.0
    if meta_path.exists():
        with open(meta_path) as fh:
            meta = json.load(fh)
        time = float(meta.get("time", 0.0))
    return ParticleState(positions=positions, velocities=velocities, time=time), meta
