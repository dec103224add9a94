"""Correctness gates: each check reads a command's output files (or runs one
library step) and returns a list of problems; an empty list is a pass.

The checks restate the paper's invariants and the program's own documented
tolerances.  They never loosen a bound the program or its tests use.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from flockdyn import convolution, potentials, simulate, solver

# first positive zero of J_1, the right end of the first 2-D bracket j_{1,1}/a
J1_FIRST_ZERO = 3.8317059702075123
# relative bound on |mass - 1| after unit-mass normalization
MASS_TOL = 1e-9
# README: tabulated pair forces stay within 1e-6 of the force scale
FORCE_TOL = 1e-6
# centre-of-mass drift allowed for first-order runs, per step, relative to
# the cloud extent: the pair forces cancel exactly up to rounding
COM_TOL_PER_STEP = 1e-12


def _read_csv_rows(path):
    """Rows of a flockdyn CSV after its '# ...' metadata lines and header."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, list(reader)


def load_profile(path):
    with open(path) as fh:
        doc = json.load(fh)
    return solver.FlockProfile.from_dict(doc["profile"] if "profile" in doc else doc)


def json_value(path, key):
    with open(path) as fh:
        return json.load(fh)[key]


def check_phase(path, dimension, k, resolution):
    """Row count is resolution^2 and every a_sign and A agrees with
    potentials.aggregate_param."""
    header, rows = _read_csv_rows(path)
    problems = []
    if len(rows) != resolution * resolution:
        problems.append(f"phase: {len(rows)} rows, expected {resolution ** 2}")
    col = {name: i for i, name in enumerate(header)}
    bad = 0
    for row in rows:
        params = potentials.ModelParams(dimension, float(row[col["C"]]),
                                        float(row[col["ell"]]), k)
        try:
            A, _ = potentials.aggregate_param(params)
        except potentials.DegenerateDenominatorError:
            A = math.nan
        celln = params.C * params.ell ** dimension
        if abs(1.0 - celln) <= potentials.EPS_A:
            expected = {potentials.Sign.ZERO.value}
        elif math.isnan(A):
            expected = {potentials.Sign.POSITIVE.value, potentials.Sign.NEGATIVE.value}
        else:
            expected = {potentials.Sign.POSITIVE.value if A > 0.0
                        else potentials.Sign.NEGATIVE.value}
        a_col = float(row[col["A"]])
        same_a = (math.isnan(A) and math.isnan(a_col)) or a_col == A
        if row[col["a_sign"]] not in expected or not same_a:
            bad += 1
    if bad:
        problems.append(f"phase: {bad} rows disagree with aggregate_param")
    return problems


def check_solve(json_path, csv_path):
    """Unit mass, R* inside its first bracket, positive density."""
    profile = load_profile(json_path)
    problems = []
    m = solver.mass(profile)
    if not abs(m - 1.0) <= MASS_TOL:
        problems.append(f"solve: mass {m!r} is not 1")
    a, R = profile.a, profile.R_star
    if profile.params.n == 3:
        lo, hi = 0.5 * math.pi / a, 1.5 * math.pi / a
    else:
        lo, hi = 0.0, J1_FIRST_ZERO / a
    if not lo < R < hi:
        problems.append(f"solve: R* = {R!r} outside the first bracket ({lo}, {hi})")
    _, rows = _read_csv_rows(csv_path)
    rho = np.array([float(r[1]) for r in rows])
    if rho.size == 0 or not np.all(rho > 0.0):
        problems.append("solve: density is not strictly positive on [0, R*]")
    return problems


def quad_dev_rel(report_path, profile_path):
    """sup|quadrature - D| over the verify scale max(|D|, rho(0))."""
    profile = load_profile(profile_path)
    with open(report_path) as fh:
        report = json.load(fh)["report"]
    scale = max(abs(profile.D), abs(solver.density_eval(profile, 0.0)))
    return report["sup_dev_quad"] / scale


def check_verify(report_path, profile_path, grid):
    """Re-apply verify's own TOL_CLOSED / TOL_QUAD / TOL_CROSS gate to the
    report it wrote."""
    profile = load_profile(profile_path)
    with open(report_path) as fh:
        report = json.load(fh)["report"]
    scale = max(abs(profile.D), abs(solver.density_eval(profile, 0.0)))
    problems = []
    if len(report["r_grid"]) != grid:
        problems.append(f"verify: {len(report['r_grid'])} radii, expected {grid}")
    for key, tol in (("sup_dev_closed", convolution.TOL_CLOSED),
                     ("sup_dev_quad", convolution.TOL_QUAD),
                     ("cross_dev", convolution.TOL_CROSS)):
        if not report[key] <= tol * scale:
            problems.append(f"verify: {key} = {report[key]!r} exceeds {tol} * {scale!r}")
    return problems


def read_positions(prefix, n_part, dim):
    """Positions from a checkpoint CSV, parsed independently of the program."""
    with open(f"{prefix}.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader])
    cols = [i for i, name in enumerate(header) if name.startswith("x")]
    if data.shape != (n_part, len(header)) or len(cols) != dim:
        raise ValueError(f"checkpoint {prefix}.csv has shape {data.shape}, "
                         f"expected ({n_part}, {len(header)}) with {dim} coordinates")
    return data[:, cols]


def check_state(prefix, n_part, dim, com0=None, steps=0):
    """All positions finite; for first-order runs (com0 given) the centre of
    mass is conserved to rounding."""
    x = read_positions(prefix, n_part, dim)
    problems = []
    if not np.all(np.isfinite(x)):
        problems.append("simulate: non-finite positions")
        return problems
    if com0 is not None:
        drift = float(np.max(np.abs(x.mean(axis=0) - com0)))
        extent = float(np.max(np.abs(x))) or 1.0
        if not drift <= COM_TOL_PER_STEP * max(steps, 1) * extent:
            problems.append(f"simulate: centre of mass drifted by {drift!r}")
    return problems


def check_compare(path):
    """l1_error is a mass fraction in [0, 2]; the histogram is a density."""
    with open(path) as fh:
        doc = json.load(fh)
    problems = []
    l1, support = doc["l1_error"], doc["support_error"]
    if not 0.0 <= l1 <= 2.0:
        problems.append(f"compare: l1_error {l1!r} outside [0, 2]")
    if not (math.isfinite(support) and support >= 0.0):
        problems.append(f"compare: support_error {support!r}")
    if not all(d >= 0.0 for d in doc["histogram"]["density"]):
        problems.append("compare: negative histogram density")
    return problems


def direct_accelerations(potential, x, subset, min_sep):
    """-(1/N) sum_j U'(max(d, min_sep)) (x_i - x_j)/d for i in subset, by an
    explicit pair loop over exact force magnitudes; also the force scale
    max |U'| over those pairs."""
    n_part = x.shape[0]
    acc = np.zeros((len(subset), x.shape[1]))
    scale = 0.0
    for row, i in enumerate(subset):
        diff = x[i] - np.delete(x, i, axis=0)
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        keep = d > 0.0
        f = potentials.potential_force_magnitude(potential, np.maximum(d[keep], min_sep))
        acc[row] = -(f[:, None] * diff[keep] / d[keep][:, None]).sum(axis=0) / n_part
        scale = max(scale, float(np.max(np.abs(f))))
    return acc, scale


def _unpropel(v2, alpha, beta, dt):
    """Invert the exact propulsion flow over dt: the speed-squared follows a
    logistic law, so the pre-image keeps the direction and rescales it."""
    u2 = np.einsum("ij,ij->i", v2, v2)
    growth = math.exp(2.0 * alpha * dt)
    u0 = u2 / (growth - (beta / alpha) * u2 * (growth - 1.0))
    factor = np.sqrt(np.where(u2 > 0.0, u0 / np.where(u2 > 0.0, u2, 1.0), 0.0))
    return v2 * factor[:, None]


def check_accelerations(config, positions, subset):
    """Accelerations from one library step on a fixed particle subset match
    the direct sum to FORCE_TOL of the force scale."""
    x = np.array(positions, dtype=np.float64)
    dt = config.dt
    if config.model == "first":
        state = simulate.ParticleState(positions=x, velocities=None)
        moved = simulate.step_first_order(state, config).positions
        acc_step = (moved[subset] - x[subset]) / dt
    else:
        # zero velocities: x' = x + dt * propel(dt/2 * a(x)), so a(x) is
        # recovered by undoing the propulsion half-step
        state = simulate.ParticleState(positions=x, velocities=np.zeros_like(x))
        moved = simulate.step_second_order(state, config).positions
        v_half = _unpropel((moved[subset] - x[subset]) / dt,
                           config.alpha, config.beta, 0.5 * dt)
        acc_step = v_half / (0.5 * dt)
    acc_ref, scale = direct_accelerations(config.potential, x, subset,
                                          config.min_separation)
    err = float(np.max(np.abs(acc_step - acc_ref)))
    if not err <= FORCE_TOL * scale:
        return [f"accelerations: max error {err!r} exceeds {FORCE_TOL} * {scale!r}"]
    return []
