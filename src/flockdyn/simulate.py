r"""N-body integration of the aggregation and self-propelled swarming models.

First-order model:   dx_i/dt = -(1/N) sum_{j != i} grad W(x_i - x_j)
Second-order model:  dv_i/dt = alpha v_i - beta |v_i|^2 v_i - (1/N) sum grad W

with grad W(z) = U'(|z|) z / |z| for any supported radial potential.  The
first-order system is integrated with explicit Euler; the second-order one
with a velocity-Verlet-style splitting in which the self-propulsion factor
is applied pointwise-exactly per half step (the speed ODE
``du/dt = 2u (alpha - beta u)`` for u = |v|^2 is logistic and has a closed
solution).

Forces and the interaction energy come from one loop, ``_force_pass``,
an O(N^2) direct sum over the unordered pairs, taken in blocks of
``_BLOCK_ROWS`` rows against the columns j >= i: each pair's weight
U'(d)/d is computed once and applied to both particles.  Consecutive
blocks are laid end to end in flat work arrays of at most
``_GROUP_ENTRIES`` entries, or one block where a block is larger, and the
elementwise work runs once per such group, which spares the narrow blocks
of small N most of their fixed per-call cost.  So the work arrays take
O(max(_GROUP_ENTRIES, N * _BLOCK_ROWS)) memory rather than O(N^2).  A pass
gives the forces, the energy, or both from the same pair terms.  Blocks,
and the sums within them, run in fixed index order, and every sum is
taken per block, so results do not depend on the grouping, and
trajectories are bit-reproducible for a given seed and configuration
regardless of how the surrounding code schedules work.  Pairs closer than
``min_separation`` use the force magnitude U'(min_sep) frozen at that
separation, down to d -> 0 (the Quasi-Morse potential is singular at the
origin for n >= 2, so the clamp makes the regularization explicit);
exactly coincident pairs exert no force.  Those few close pairs are summed
from their offsets, so their force keeps its direction however small d is
next to |x|.  A group looks for them, and clips its table positions, only
when the least of its d^2 is below min_separation^2 (or, for the clip, the
largest above (_R_MAX / 2)^2); a flock's groups usually skip both.

A pass of at least 2 ``_GROUP_ENTRIES`` pair entries (N >= 500) is split
into shards, one per core up to ``_MAX_WORKERS``: shard s computes the
groups g with g % shards = s, each in its own work arrays, and the caller's
thread runs shard 0 and adds every group's energies, clamped pairs and
block products into the results itself, in group order and within a group
in block order, as each group is reached.  Every product and every sum is
that of a pass on one thread, in its order, so the bits do not depend on
the number of cores.  A smaller pass stays on the caller's thread, where a
second thread measured slower.

A block's pair differences x_i - x_j are, per coordinate, the matrix
product of the rows [x_i, 1] with the columns [1, -x_j] (inner dimension
K = 2), which BLAS forms about 3x faster than ``np.subtract.outer``
broadcasts.  It rounds like the subtraction: x_i * 1 and 1 * (-x_j) are
exact, so their sum is rounded once, to fl(x_i - x_j).  Only the sign of a
zero difference may differ, and the kernel uses squares alone.

The pair terms come from one evaluator, ``_ForceModel.pair_terms``.  By
default it reads two tables, U'(r)/r and U(r), built once per
configuration on a dense grid uniform in log r and linearly interpolated,
with the cell found by index arithmetic rather than a search (measured
error below 1e-6 of the force scale for every supported potential).  A
pass that wants both reads them at one cell and fraction per pair; an
energy-only pass reads the U table alone.  ``tabulated_forces=False``
switches to direct evaluation for exactness-sensitive experiments.  The
tables are kept even for the potentials with cheap closed forms, which
measured slower than the lookup (see ``_ForceModel``).

A second-order step needs the force at its start and at its end, and the
end of one step is the start of the next ("first same as last").  So
``run`` carries the accelerations at its current positions from step to
step and takes one force pass per step.  A record's interaction energy
comes from the pass at the record's positions: for a second-order record
the fused end-of-step pass, for a first-order record a fused pass that
also gives the next step's forces, or an energy-only pass after the last
step.  A fused pass gives the bits of separate passes, so a run equals a
loop of the public steps and ``interaction_energy`` bit for bit.
"""

from __future__ import annotations

import contextlib
import contextvars
import csv
import functools
import math
import os
import queue
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated, Optional, Union

import numpy as np

from ._codec import (
    NON_NEGATIVE,
    POSITIVE,
    Finite,
    Positive,
    Record,
    at_least,
    check,
    one_of,
)
from ._codec import read_json, table_lines, write_json
from .convolution import _GAUSS_NODES, _GAUSS_WEIGHTS
from .errors import DomainError, NumericalBlowupError, ParameterOverflowError
from .potentials import (
    PotentialSpec,
    _evaluate,
    _length_scale,
    _parameter_fields,
    potential_force_magnitude,  # noqa: F401  a binding bench/test_bench.py traces
    potential_value_and_force,
)
from .solver import FlockProfile, _mass_closed, _sphere_area, density_eval


@dataclass(frozen=True)
class UniformBall(Record):
    radius: Positive = 1.0


@dataclass(frozen=True)
class Gaussian(Record):
    sigma: Positive = 1.0


@dataclass(frozen=True)
class FromFile(Record):
    path: str = ""


InitSpec = Union[UniformBall, Gaussian, FromFile]


@dataclass(frozen=True)
class SimConfig(Record):
    """Configuration of one N-body run; hashable so force models cache."""

    potential: PotentialSpec
    dimension: Annotated[int, one_of(2, 3)]
    N: Annotated[int, at_least(2)] = 1000
    dt: Positive = None
    steps: Annotated[int, at_least(0)] = 1000
    model: Annotated[str, one_of("first", "second")] = "first"
    alpha: Finite = 1.0
    beta: Finite = 0.5
    seed: Annotated[int, at_least(0)] = 0
    init: InitSpec = UniformBall(1.0)
    min_separation: Positive = None
    record_stride: Annotated[int, at_least(1)] = 100
    blowup_bound: Positive = 1e6
    tabulated_forces: bool = True
    convergence_tol: Annotated[float, NON_NEGATIVE] = 1e-9
    convergence_window: Annotated[int, at_least(1)] = 100
    stop_when_converged: bool = False

    def __post_init__(self):
        if self.dt is None:
            object.__setattr__(self, "dt", 0.01 * min(1.0, _length_scale(self.potential)))
        if self.min_separation is None:
            object.__setattr__(self, "min_separation", 1e-6 * _length_scale(self.potential))
        super().__post_init__()
        if self.model == "second":  # the propulsion needs both coefficients positive
            check(SimConfig, "alpha", self.alpha, POSITIVE)
            check(SimConfig, "beta", self.beta, POSITIVE)


@dataclass(frozen=True)
class Sidecar(Record):
    """What ``load_checkpoint`` reads of a checkpoint's JSON sidecar."""

    time: Finite = 0.0


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


# Rows of the pair kernel per block.  At 32 rows a block of the widest
# pass measured near cache size (512 KB per work array at N = 2000); 64
# rows measured the same up to N = 2000, while 128 and 256 rows were up to
# 1.7x slower at N = 5000.  With the half-pair kernel, 64, 128 and 160 rows
# again measured no better at N = 400 or N = 2000.
_BLOCK_ROWS = 32

# Entries of the flat work arrays that a group of consecutive row blocks
# shares (see ``_pair_groups``), about one N = 2000 block.  A pass makes its
# ~20 elementwise numpy calls once per group rather than once per block,
# which at small N, where a block holds a few thousand pairs, saves most of
# their fixed per-call cost.  A block larger than this forms a group by
# itself, so each work array holds at most max(2^16, _BLOCK_ROWS N)
# entries: for N >= 2048 that is one block, as without groups.
_GROUP_ENTRIES = 1 << 16

# The most threads a pass is split across, the caller's included: one per
# core up to this cap.  The caller's thread adds every group's results into
# the sums itself, in block order, so past a few threads the others would
# wait on it.  Nothing above 2 cores was measured.
_MAX_WORKERS = 4
_WORKERS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1, _MAX_WORKERS)

# The worker threads of the split passes (see ``_force_pass``), started by
# the first pass that needs them and never more than _MAX_WORKERS - 1.  Each
# runs the (function, args) tasks of the queue, one at a time, for the life
# of the process.  (concurrent.futures would add 0.6 MB of imports.)
_tasks = queue.SimpleQueue()
_threads: list = []
_threads_lock = threading.Lock()


def _run_tasks(tasks: queue.SimpleQueue) -> None:
    while True:
        task, args = tasks.get()
        task(*args)
        del task, args  # a pass's slab, which would live on while this waits


def _submit(workers: int, task, *args) -> None:
    """Queue task(*args) for the worker threads, after starting as many as
    make ``workers``."""
    with _threads_lock:
        while len(_threads) < workers:
            thread = threading.Thread(target=_run_tasks, args=(_tasks,), daemon=True,
                                      name=f"flockdyn-pairs-{len(_threads) + 1}")
            thread.start()
            _threads.append(thread)
    _tasks.put((task, args))


def _forget_threads() -> None:
    # a child forked after a split pass has none of its parent's threads:
    # its tasks would wait for ever
    global _tasks, _threads, _threads_lock
    _tasks, _threads, _threads_lock = queue.SimpleQueue(), [], threading.Lock()


if hasattr(os, "register_at_fork"):  # where there is fork
    os.register_at_fork(after_in_child=_forget_threads)

# Nodes of the force and energy tables, uniform in log r, and the tables'
# upper end.
_TABLE_SIZE = 32768
_R_MAX = 1e4

# The clamp search's result where no pair is closer than min_sep.
_NO_PAIRS = np.empty(0, dtype=np.intp)


def _with_slopes(tab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A table and its per-cell slopes, padded with a zero slope so that the
    last node interpolates to itself exactly."""
    return tab, np.append(np.diff(tab), 0.0)


class _ForceModel:
    """U'(r)/r and U(r) with the min-separation clamp, optionally via dense
    interpolation tables on a grid uniform in log r.

    The tables cover [0.5 min_sep, _R_MAX].  Since the grid is uniform, a
    lookup finds its cell by index arithmetic instead of the binary search
    ``np.interp`` runs per point: from log r^2 it forms
    ``s = (log r^2 - 2 x0) (0.5 / h)``, which has the bits of
    ``(log r - x0) / h`` since both rescalings by 2 are exact, takes the
    cell ``i = int(s)`` and returns ``tab[i] + (s - i) slope[i]``.  The pair
    loop feeds log d^2, so it never takes a square root or halves a log.
    Arguments are clipped to the table, which reproduces ``np.interp``'s
    endpoint values below 0.5 min_sep and above _R_MAX; below the table
    U'(r)/r is then replaced by the clamp U'(min_sep)/d (see
    ``pair_terms``).  A group whose d^2 all lie in [min_sep^2,
    (_R_MAX / 2)^2], as a flock's usually do, skips the clip and the clamp
    search: there every position lies log 2 / h cells (about 950 at the 3-D
    reference parameters) inside either end of the table, where the clip
    changes nothing.  One min and one max of d^2 decide it.

    The tables are kept for all potentials, although 3-D Quasi-Morse, Morse
    and Morse-like have closed forms built from exponentials and powers:
    on 2000 x 2000 pairs the closed forms of 3-D Quasi-Morse and Morse-like
    measured 1.5x slower than the lookup.  32768 nodes keep every table
    within 1e-6 of its scale; U'(r)/r of 3-D Quasi-Morse grows as r^-3
    towards min_sep and needed more than 16384.  ``tabulated=False`` is the
    exact reference: one ``potentials._evaluate`` call per group forms U'
    and U at max(d, min_sep), each only when the pass asks for it; it keeps
    the checked tables too, whose first node gives both modes U'(min_sep)."""

    def __init__(self, potential: PotentialSpec, min_sep: float, tabulated: bool):
        self.potential = potential
        self.min_sep = min_sep
        self.tabulated = tabulated
        # pairs closer than min_sep are clamped, and below the table's lower
        # edge U'(r)/r is U'(min_sep)/d in both modes; where min_sep^2
        # underflows to 0, the least subnormal keeps coincident pairs clamped
        self._min_sep_sq = max(min_sep * min_sep, 5e-324)
        x0, x1 = math.log(0.5 * min_sep), math.log(_R_MAX)
        grid = np.exp(np.linspace(x0, x1, _TABLE_SIZE))
        # a potential whose table leaves the double range is refused in both
        # modes, whether a float power such as k^(n/2) raises or an array
        # holds inf or nan: the exact mode would meet the same values
        finite = False
        with np.errstate(all="ignore"), contextlib.suppress(OverflowError):
            value_tab, force_tab = potential_value_and_force(potential, np.maximum(grid, min_sep))
            w_tab, value_tab = _with_slopes(force_tab / grid), _with_slopes(value_tab)
            finite = all(np.isfinite(t).all() for t in (*w_tab, *value_tab))
        if not finite:
            raise ParameterOverflowError(
                f"the force table of {potential} has a non-finite entry",
                _parameter_fields(potential))
        self._w_tab, self._value_tab = w_tab, value_tab
        self._force_at_min = float(force_tab[0])  # grid[0] is clamped to min_sep
        self._two_x0 = 2.0 * x0
        self._half_inv_h = 0.5 * (_TABLE_SIZE - 1) / (x1 - x0)

    def pair_terms(self, d2, work, with_forces=True, with_energy=False):
        """(w, clamped, u) at the squared distances ``d2``; w and clamped
        are None unless ``with_forces``, u unless ``with_energy``.

        - w is U'(max(d, min_sep))/d, and 0 at d = 0 (exactly coincident
          particles exert no force); below the table's edge 0.5 min_sep
          both modes give the clamp U'(min_sep)/d.
        - clamped holds the flat indices of the pairs closer than min_sep.
        - u is U(max(d, min_sep)).

        ``work`` is the flat work arrays of a ``_force_pass`` group.  A
        tabulated call overwrites d2 with its log, then with the cell
        fractions, and reads w and u at the same cells and fractions; the
        last of them overwrites d2, and u, when both are asked for, fills
        the third work array."""
        w = clamped = u = None
        # one read of d2 decides the clamp search and the clip; NaN fails
        # the comparison and takes both
        close = (with_forces or self.tabulated) and not d2.min() >= self._min_sep_sq
        if with_forces:
            clamped = np.flatnonzero(d2 < self._min_sep_sq) if close else _NO_PAIRS
            d_clamped = np.sqrt(d2.flat[clamped]) if clamped.size else None
        if self.tabulated:
            # from min_sep to _R_MAX / 2 the clip changes nothing (see the
            # class docstring)
            clip = close or not d2.max() <= (0.5 * _R_MAX) ** 2
            scratch, index, *spare = work
            # -inf at d = 0, which the clip takes to the table's first node
            with np.errstate(divide="ignore"):
                s = np.log(d2, out=d2)
            s -= self._two_x0
            s *= self._half_inv_h
            if clip:
                np.clip(s, 0.0, _TABLE_SIZE - 1, out=s)
            # the cell floor(s), whose float is subtracted: s - index would
            # convert the integers on the fly, at twice the cost of both
            cell = np.floor(s, out=scratch)
            np.copyto(index, cell, casting="unsafe")
            s -= cell

            def interpolate(table, out):
                # the clip above, or the gate that skips it, keeps every
                # index inside the table
                tab, slope = table
                np.multiply(s, np.take(slope, index, out=scratch, mode="clip"), out=out)
                out += np.take(tab, index, out=scratch, mode="clip")
                return out

            if with_energy:  # read before w overwrites the fractions
                u = interpolate(self._value_tab, spare[0] if with_forces else s)
            if with_forces:
                w = interpolate(self._w_tab, s)
        else:
            d = np.sqrt(d2)
            u, force = _evaluate(self.potential, np.maximum(d, self.min_sep),
                                 value=with_energy, force=with_forces)
            if with_forces:
                with np.errstate(divide="ignore", invalid="ignore"):
                    w = force / d
        if with_forces and clamped.size:
            below = d_clamped < 0.5 * self.min_sep
            d_below = d_clamped[below]
            with np.errstate(divide="ignore"):
                w.flat[clamped[below]] = np.where(d_below > 0.0,
                                                  self._force_at_min / d_below, 0.0)
        return w, clamped, u


@functools.lru_cache(maxsize=8)
def _cached_model(potential: PotentialSpec, min_sep: float, tabulated: bool) -> _ForceModel:
    return _ForceModel(potential, min_sep, tabulated)


def _config_model(config: SimConfig) -> _ForceModel:
    return _cached_model(config.potential, config.min_separation, config.tabulated_forces)


@functools.lru_cache(maxsize=8)
def _pair_groups(n_part: int, budget: int):
    """(groups, size, total): the layout of a pass over ``n_part``
    particles.

    The row blocks lo:hi of ``_BLOCK_ROWS`` rows, against the columns
    j >= lo, are taken in fixed order and laid end to end in flat work
    arrays, as many consecutive blocks at a time as fit in ``budget``
    entries; each such run of blocks is a group, ``size`` is the largest
    group's extent and ``total`` the blocks' entries summed.  A group is
    (blocks, lower_pairs): blocks lists each block's (lo, hi, start, stop),
    its rows' segment start:stop of the flat arrays, which holds the block
    as a C-ordered (hi - lo, n_part - lo) array, so column k is particle
    lo + k and the block's leading square holds its rows against
    themselves.  lower_pairs are the flat indices of the squares' pairs
    j <= i, which a pass over the unordered pairs j > i leaves out."""
    groups, blocks, lower_pairs, end, total = [], [], [], 0, 0
    for lo in range(0, n_part, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n_part)
        entries = (hi - lo) * (n_part - lo)
        if blocks and end + entries > budget:
            groups.append((tuple(blocks), np.concatenate(lower_pairs)))
            blocks, lower_pairs, end = [], [], 0
        rows, cols = np.tril_indices(hi - lo)
        lower_pairs.append(end + rows * (n_part - lo) + cols)
        blocks.append((lo, hi, end, end + entries))
        end += entries
        total += entries
    groups.append((tuple(blocks), np.concatenate(lower_pairs)))
    return tuple(groups), max(blocks[-1][3] for blocks, _ in groups), total


def _work_arrays(size: int, count: int) -> np.ndarray:
    """A (count, size) float64 array, whose rows are the work arrays of a
    pass: one slab, in which the rows start whole 4 KiB pages plus 0, 4,
    8, ... cache lines apart, so that no two share their offset modulo
    4 KiB, and at one stride, so that one batched product can fill several.
    At N = 400, in 10 processes each (2-core Xeon, one BLAS thread), a 3-D
    force pass took 1.24-2.00 ms (median 1.91) with staggered rows against
    1.64-2.67 ms (median 2.39) with separately allocated arrays."""
    stride = -(-size // 512) * 512 + 32
    return np.empty((count, stride))[:, :size]


def _force_pass(x: np.ndarray, model: _ForceModel, with_energy: bool = False,
                with_forces: bool = True):
    """(acc, energy): -(1/N) sum_j U'(|x_i - x_j|) (x_i - x_j)/|x_i - x_j|
    in fixed order (None unless ``with_forces``), and the interaction
    energy (1/(2 N^2)) sum_{i != j} U(|x_i - x_j|) at the same positions
    (None unless ``with_energy``).  This is the only loop over the pairs.

    One pass over the unordered pairs: each row block of ``_pair_groups``
    keeps its pairs j > i, and each weight w_ij = U'(d_ij)/d_ij = w_ji is
    computed once and applied to both particles.  With x extended by a
    column of ones to x1, particle i needs s_i = sum_j w_ij x1_j, and the
    acceleration collapses to (sum_j w_ij) x_i - (w x)_i without forming
    pair offsets.  A block adds its rows' sums, w @ x1[lo:], and its
    columns' sums, x1[lo:hi].T @ w, into one (n + 1, N) array.

    The elementwise work runs once per group of blocks: the squares and
    sums of the differences, the placeholder min_sep^2 at the pairs j <= i,
    the pair terms and the zeroing of the pairs j <= i.  The placeholder
    trips neither the clamp search nor the clip, so the clamped pairs are
    the pairs j > i closer than min_sep, each once.  Each block's
    differences, its two sums, its clamped pairs and its energy are taken
    on its own segment, block by block, so every result has the bits of a
    pass that takes one block at a time.  d2 is summed from the coordinate
    differences, so coincident particles give exactly 0 and close pairs
    keep their relative accuracy.  The Gram expansion
    |x_i|^2 + |x_j|^2 - 2 x_i.x_j guarantees neither: its rounding leaves a
    few eps |x|^2, which the 1/d weight turns into a spurious force at and
    near d = 0.

    The collapsed form rounds at eps |w| |x|, which the clamp's weight
    U'(min_sep)/d makes large next to the pair's force as d -> 0.  So the
    few pairs closer than min_sep are taken out of it and summed from their
    offsets x_i - x_j instead; coincident pairs weigh 0.

    The energy sums each block's U(d) over its pairs j > i, block by block;
    a fused pass reads U(d) from the table cell and fraction of the pair's
    weight, and an energy-only pass reads the U table alone.  Both give the
    same bits.

    The groups are dealt to ``shards`` threads, group g to shard g % shards,
    each with its own work arrays: a pass of at least 2 ``_GROUP_ENTRIES``
    pair entries (N >= 500 at the default budget) has min(``_WORKERS``,
    groups) shards, a smaller one a single shard, which runs the same code.
    The caller's thread runs shard 0 and takes the other shards' groups
    from one FIFO each.  A group hands back its blocks' energies, clamped
    pairs' terms and two block products, and the caller adds them into the
    energy, the clamped pairs' sum and the (n + 1, N) sums in group order,
    and within a group in block order, as each group is reached; its own
    groups' products are made as it adds them.  So every product and every
    sum is the one-thread pass's, in its order, and the bits do not depend
    on the number of shards.  The workers run in a copy of the caller's
    context, so they keep its ``np.errstate``; an exception in a shard is
    raised by the caller when it reaches that group.  The workers call no
    public function of the package, whose spans a tracer keeps on one
    stack."""
    n_part, dim = x.shape
    x_one_t = np.vstack([x.T, np.ones(n_part)])
    x_one = x_one_t.T
    # per coordinate, the rows [x_i, 1] and the columns [1, -x_j] whose
    # K = 2 product is the differences x_i - x_j (see the module docstring)
    rows = np.ones((dim, n_part, 2))
    rows[:, :, 0] = x.T
    cols = np.ones((dim, 2, n_part))
    np.negative(x.T, out=cols[:, 1])
    groups, size, entries = _pair_groups(n_part, _GROUP_ENTRIES)
    # below two budgets' worth of pairs (N = 400: 2 groups) a second thread
    # measured 11% slower than one (3-D, 2-core host)
    shards = min(_WORKERS, len(groups)) if entries >= 2 * _GROUP_ENTRIES else 1
    # d2, the lookup's scratch, its cells and, for a fused pass, the
    # energies; the first dim of them take the coordinates' differences
    slab_rows = 4 if with_forces and with_energy else 3

    def group_terms(blocks, lower_pairs, slots):
        """(energies, near_terms, products) of one group, block by block."""
        for lo, hi, start, stop in blocks:
            np.matmul(rows[:, lo:hi], cols[:, :, lo:],
                      out=slots[:dim, start:stop].reshape(dim, hi - lo, n_part - lo))
        d2, *work = slots[:, : blocks[-1][3]]
        np.multiply(d2, d2, out=d2)
        for diff in work[: dim - 1]:
            np.multiply(diff, diff, out=diff)
            d2 += diff
        d2[lower_pairs] = model._min_sep_sq
        work[1] = work[1].view(np.intp)
        w, clamped, u = model.pair_terms(d2, work, with_forces, with_energy)
        energies, near_terms = [], []
        if with_energy:
            u[lower_pairs] = 0.0
            for lo, hi, start, stop in blocks:
                energies.append(float(u[start:stop].reshape(hi - lo, n_part - lo).sum()))
        if not with_forces:
            return energies, near_terms, ()
        w[lower_pairs] = 0.0
        if clamped.size:
            # block by block, in the order of a pass one block at a time
            owners = np.searchsorted(clamped, [block[2] for block in blocks[1:]])
            for (lo, _, start, _), own in zip(blocks, np.split(clamped, owners)):
                i, j = np.divmod(own - start, n_part - lo)
                i, j = i + lo, j + lo
                near_terms.append((i, j, w[own][:, None] * (x[i] - x[j])))
            w[clamped] = 0.0

        def products():  # made as the caller adds them, or listed by a worker
            for lo, hi, start, stop in blocks:
                block = w[start:stop].reshape(hi - lo, n_part - lo)
                yield lo, hi, block @ x_one[lo:], x_one_t[:, lo:hi] @ block

        return energies, near_terms, products()

    def shard(s, fifo, slots):
        try:
            for g in range(s, len(groups), shards):
                energies, near_terms, products = group_terms(*groups[g], slots)
                fifo.put((energies, near_terms, list(products)))
        except BaseException as exc:  # the caller raises it at this group
            fifo.put(exc)

    if shards > 1:
        fifos = [queue.SimpleQueue() for _ in range(1, shards)]
        for s, fifo in enumerate(fifos, 1):
            # the caller's thread allocates every slab: in a worker's own
            # malloc arena they measured 1.2 MB more peak memory
            _submit(shards - 1, contextvars.copy_context().run, shard, s, fifo,
                    _work_arrays(size, slab_rows))
    slots = _work_arrays(size, slab_rows)
    sums = np.zeros_like(x_one_t)
    near = np.zeros_like(x)
    total = 0.0
    for g, (blocks, lower_pairs) in enumerate(groups):
        if g % shards:
            terms = fifos[g % shards - 1].get()
            if isinstance(terms, BaseException):
                raise terms
        else:
            terms = group_terms(blocks, lower_pairs, slots)
        energies, near_terms, products = terms
        for energy in energies:
            total += energy
        for i, j, pair_acc in near_terms:
            np.add.at(near, i, pair_acc)
            np.subtract.at(near, j, pair_acc)
        for lo, hi, row_sums, col_sums in products:
            sums[:, lo:hi] += row_sums.T
            sums[:, lo:] += col_sums
    energy = total / n_part**2 if with_energy else None
    if not with_forces:
        return None, energy
    acc = sums[-1][:, None] * x
    acc -= sums[:-1].T
    acc += near
    acc /= -n_part
    return acc, energy


def _accelerations(x: np.ndarray, model: _ForceModel) -> np.ndarray:
    """The accelerations of a force pass (see ``_force_pass``)."""
    return _force_pass(x, model)[0]


def interaction_energy(state: ParticleState, config: SimConfig) -> float:
    """Discrete interaction energy (1/(2 N^2)) sum_{i != j} W(x_i - x_j),
    from an energy-only pass of ``_force_pass``."""
    return _force_pass(state.positions, _config_model(config), with_energy=True,
                       with_forces=False)[1]


def _exceeds(x: np.ndarray, bound: float) -> bool:
    return not np.all(np.isfinite(x)) or np.max(np.abs(x)) > bound


def _check_blowup(x: np.ndarray, bound: float, step: int) -> None:
    if _exceeds(x, bound):
        raise NumericalBlowupError(bound, step)


def _euler(state: ParticleState, config: SimConfig, acc: np.ndarray) -> ParticleState:
    """One explicit Euler step from the accelerations ``acc`` at the state's
    positions."""
    return ParticleState(positions=state.positions + config.dt * acc, velocities=None,
                         time=state.time + config.dt)


def step_first_order(state: ParticleState, config: SimConfig) -> ParticleState:
    """One explicit Euler step of the aggregation system, from a fresh force
    pass; a blow-up is reported at step 0."""
    state = _euler(state, config, _accelerations(state.positions, _config_model(config)))
    _check_blowup(state.positions, config.blowup_bound, 0)
    return state


#: the largest argument of exp whose value is finite
_EXP_MAX = math.log(np.finfo(np.float64).max)


def _propel_exact(v: np.ndarray, alpha: float, beta: float, dt: float) -> np.ndarray:
    """Exact flow of dv/dt = (alpha - beta |v|^2) v over dt (direction fixed,
    |v|^2 follows the logistic equation)."""
    u0 = np.einsum("ij,ij->i", v, v)
    growth = math.exp(2.0 * alpha * dt)
    u_new = u0 * growth / (1.0 + (beta / alpha) * u0 * (growth - 1.0))
    factor = np.sqrt(np.where(u0 > 0.0, u_new / np.where(u0 > 0.0, u0, 1.0), 0.0))
    return v * factor[:, None]


def _verlet(state: ParticleState, config: SimConfig, model: _ForceModel, acc: np.ndarray,
            with_energy: bool) -> tuple[ParticleState, np.ndarray, Optional[float]]:
    """(state, acc, energy): one velocity-Verlet-style step from the
    accelerations ``acc`` at the state's positions, and the accelerations
    and, if ``with_energy``, the interaction energy of its end-of-step pass."""
    if state.velocities is None:
        raise DomainError("second-order step needs velocities")
    dt, alpha, beta = config.dt, config.alpha, config.beta
    if not 2.0 * alpha * (0.5 * dt) <= _EXP_MAX:  # the growth in _propel_exact
        raise ParameterOverflowError(
            f"the propulsion factor exp(alpha dt) overflows the double range at "
            f"alpha = {alpha!r}, dt = {dt!r}", ((SimConfig, "alpha"), (SimConfig, "dt")))
    v = state.velocities + 0.5 * dt * acc
    v = _propel_exact(v, alpha, beta, 0.5 * dt)
    x = state.positions + dt * v
    v = _propel_exact(v, alpha, beta, 0.5 * dt)
    acc, energy = _force_pass(x, model, with_energy=with_energy)
    v = v + 0.5 * dt * acc
    return ParticleState(positions=x, velocities=v, time=state.time + dt), acc, energy


def step_second_order(state: ParticleState, config: SimConfig) -> ParticleState:
    """One velocity-Verlet-style step of the self-propelled system, from a
    fresh force pass at its start; a blow-up is reported at step 0."""
    model = _config_model(config)
    state = _verlet(state, config, model, _accelerations(state.positions, model), False)[0]
    _check_blowup(state.positions, config.blowup_bound, 0)
    return state


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
    enabled), recording diagnostics every ``record_stride`` steps, with one
    force pass per step (see the module docstring)."""
    if state is None:
        state = initial_state(config)
    else:
        state = state.copy()
    if _exceeds(state.positions, config.blowup_bound):
        raise DomainError(f"initial state exceeds the blowup bound {config.blowup_bound:g}")
    model = _config_model(config)
    second = config.model == "second"
    acc = None  # the accelerations at the current positions, once a pass gave them
    r_ref = max(float(np.max(np.linalg.norm(state.positions, axis=1))), 1e-12)
    records = []
    quiet = 0
    converged = False
    max_disp = math.inf
    steps_done = 0
    for i in range(config.steps):
        prev = state.positions
        if acc is None:
            acc = _accelerations(prev, model)
        last = i == config.steps - 1
        record = i % config.record_stride == 0 or last
        if second:
            state, acc, energy = _verlet(state, config, model, acc, record)
        else:
            state, acc = _euler(state, config, acc), None
        _check_blowup(state.positions, config.blowup_bound, i)
        steps_done = i + 1
        max_disp = float(np.max(np.linalg.norm(state.positions - prev, axis=1)))
        if max_disp < config.convergence_tol * r_ref:
            quiet += 1
        else:
            quiet = 0
        if record:
            if not second and last:
                energy = interaction_energy(state, config)
            elif not second:
                acc, energy = _force_pass(state.positions, model, with_energy=True)
            rec = {
                "step": i,
                "time": state.time,
                "max_displacement": max_disp,
                "com": [float(c) for c in state.positions.mean(axis=0)],
                "interaction_energy": energy,
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
    if not 1 <= bins <= n_part:
        raise DomainError(f"bins must be between 1 and the {n_part} particles, got {bins}")
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
    edges, density = hist.bin_edges, hist.density
    r_hist = float(edges[-1])
    if r_hist < profile.R_star:  # the gap to R*, where the histogram is 0
        edges, density = np.append(edges, profile.R_star), np.append(density, 0.0)
    # 32 points per segment, a row each
    r = np.linspace(edges[:-1], edges[1:], 32, axis=1)
    diff = np.abs(density_eval(profile, r) - density[:, None])
    shell = 2.0 * math.pi * r if dim == 2 else 4.0 * math.pi * r * r
    # cumsum adds the segments in bin order; np.sum's pairwise order differs
    total = float(np.cumsum(np.trapezoid(diff * shell, r, axis=1))[-1])
    support_error = abs(r_hist - profile.R_star) / profile.R_star
    return total, support_error


#: nodes of the cumulative-mass table that seeds each sampled radius, and
#: the most safeguarded Newton steps that polish it
_SAMPLE_TABLE_NODES = 1024
_SAMPLE_NEWTON_STEPS = 3


def _mass_tail(profile: FlockProfile, r: np.ndarray) -> np.ndarray:
    """1 - M(r), the integral of |S| s^(n-1) rho(s) over [r, R*] by the
    15-point Gauss rule, which keeps its relative accuracy where it is small."""
    half = 0.5 * (profile.R_star - r)
    s = (r + half)[:, None] + half[:, None] * _GAUSS_NODES
    terms = s ** (profile.params.n - 1) * density_eval(profile, s)
    return _sphere_area(profile.params.n) * half * (terms @ _GAUSS_WEIGHTS)


def sample_profile_positions(profile: FlockProfile, count: int, seed: int = 0) -> np.ndarray:
    """Draw positions from the analytic density by inverse-CDF sampling of
    the radial mass distribution.

    The closed-form cumulative mass ``solver._mass_closed`` is tabulated on
    ``[0, R*]``.  Each uniform draw ``u`` is interpolated to ``s = r^n`` in
    its table cell, by the cubic Hermite form with ``ds/dm = n / (|S| rho)``
    (smooth through the centre, where the mass grows as ``r^n``).  Newton
    steps on ``dm/dr = |S| r^(n-1) rho(r)`` polish it to rounding; a step
    that leaves the cell's shrinking bracket bisects it.  Above the median
    they solve ``_mass_tail(r) = 1 - u`` instead, whose right side is exact:
    near R*, where the slope is small, ``M(r) = u`` fixes r only to an ulp
    of 1 over the slope.
    Raises DomainError for a negative count, or for a profile whose mass
    is not non-decreasing (its density is negative somewhere, as that of a
    higher root can be)."""
    if count < 0:
        raise DomainError(f"count must be non-negative, got {count}")
    n, a, mu1, mu2 = profile.params.n, profile.a, profile.mu1, profile.mu2
    surface = _sphere_area(n)
    r_tab = np.linspace(0.0, profile.R_star, _SAMPLE_TABLE_NODES)
    m_tab = _mass_closed(n, a, r_tab, mu1, mu2)
    dm = np.diff(m_tab)
    if not np.all(dm >= 0.0):
        raise DomainError(
            f"the profile's mass is not non-decreasing on [0, R*] (its least value "
            f"is {np.min(m_tab):.3g}), so its density is negative somewhere"
        )
    s_tab = r_tab**n
    ds = np.diff(s_tab)
    rho = density_eval(profile, r_tab)
    ds_dm = np.divide(n / surface, rho, out=np.zeros_like(rho), where=rho > 0.0)
    # s = s_i + t ds + t (1 - t) ((1 - t) c_i - t d_i) over cell i, with t
    # the fraction of its mass below u
    c, d = dm * ds_dm[:-1] - ds, dm * ds_dm[1:] - ds

    rng = np.random.default_rng(seed)
    u = rng.uniform(size=count)
    cell = np.clip(np.searchsorted(m_tab, u, side="right"), 1, dm.size) - 1
    lo, hi = r_tab[cell], r_tab[cell + 1]
    t = np.divide(u - m_tab[cell], dm[cell], out=np.zeros_like(u), where=dm[cell] > 0.0)
    s = s_tab[cell] + t * ds[cell] + t * (1.0 - t) * ((1.0 - t) * c[cell] - t * d[cell])
    r = np.clip(s ** (1.0 / n), lo, hi)

    todo = np.arange(count)
    for _ in range(_SAMPLE_NEWTON_STEPS):
        x, x_lo, x_hi = r[todo], lo[todo], hi[todo]
        upper = u[todo] > 0.5
        f = np.empty_like(x)
        f[~upper] = _mass_closed(n, a, x[~upper], mu1, mu2) - u[todo[~upper]]
        f[upper] = (1.0 - u[todo[upper]]) - _mass_tail(profile, x[upper])
        slope = surface * x ** (n - 1) * density_eval(profile, x)
        step = np.divide(f, slope, out=np.full_like(f, np.inf), where=slope > 0.0)
        lo[todo] = x_lo = np.where(f < 0.0, x, x_lo)
        hi[todo] = x_hi = np.where(f < 0.0, x_hi, x)
        new = x - step
        # a step that lands on an end of the bracket is inside it
        bisect = ~((new >= x_lo) & (new <= x_hi))
        new[bisect] = 0.5 * (x_lo[bisect] + x_hi[bisect])
        r[todo] = new
        # once a step is this small, quadratic convergence leaves the next
        # one below rounding
        todo = todo[bisect | (np.abs(step) > 1e-8 * x)]
    direc = rng.normal(size=(count, n))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    return direc * r[:, None]


def save_checkpoint(state: ParticleState, config: SimConfig, prefix: str) -> tuple[str, str]:
    """Write positions (and velocities) as CSV plus a JSON sidecar with the
    config and time; returns the two paths."""
    csv_path = f"{prefix}.csv"
    meta_path = f"{prefix}.json"
    parts = [state.positions] + ([] if state.velocities is None else [state.velocities])
    cols = [f"{c}{i + 1}" for c in "xv"[: len(parts)] for i in range(state.positions.shape[1])]
    rows = np.hstack(parts)
    # the lines of csv.writer's excel dialect
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\r\n")
        fh.writelines(table_lines(rows, "\r\n"))
    write_json(meta_path, {"config": config.to_dict(), "time": state.time})
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
    values = []
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DomainError(
                f"{csv_path}: line {line} has {len(row)} fields, the header {len(header)}"
            )
        try:
            values.append([float(v) for v in row])
        except ValueError as exc:
            raise DomainError(f"{csv_path}: line {line}: {exc}") from None
    data = np.array(values)
    if not np.all(np.isfinite(data)):
        line = 2 + int(np.flatnonzero(~np.isfinite(data).all(axis=1))[0])
        raise DomainError(f"{csv_path}: non-finite value on line {line}")
    positions = data[:, :dim]
    velocities = data[:, dim : 2 * dim] if has_v else None
    meta, time = None, 0.0
    if meta_path.exists():
        meta = read_json(meta_path)
        try:
            time = Sidecar.from_dict(meta).time
        except DomainError as exc:
            raise DomainError(f"{meta_path}: {exc}") from None
    return ParticleState(positions=positions, velocities=velocities, time=time), meta
