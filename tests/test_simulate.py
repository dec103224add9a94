"""Particle-model tests: stepping invariants, determinism, histograms, and
profile comparison, at desk-scale particle counts."""

import csv
import math
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flockdyn import _codec, simulate
from flockdyn.errors import DomainError, NumericalBlowupError, ParameterOverflowError
from flockdyn.potentials import (
    ModelParams,
    Morse,
    MorseLike,
    QuasiMorse,
    minimum_radius,
    potential_force_magnitude,
    potential_value,
    potential_value_and_force,
)
from flockdyn.simulate import (
    _BLOCK_ROWS,
    _R_MAX,
    _TABLE_SIZE,
    FromFile,
    Gaussian,
    ParticleState,
    SimConfig,
    UniformBall,
    _accelerations,
    _cached_model,
    _config_model,
    compare_profile,
    initial_state,
    interaction_energy,
    load_checkpoint,
    radial_histogram,
    run,
    sample_profile_positions,
    save_checkpoint,
    step_first_order,
    step_second_order,
)
from flockdyn.solver import _mass_closed, density_eval, solve_profile

REF3D = ModelParams(3, 1.255, 0.8, 0.2)
REF2D = ModelParams(2, 10.0 / 9.0, 0.75, 0.5)
POT = QuasiMorse(REF3D)


def pair_state(separation, dim=3):
    x = np.zeros((2, dim))
    x[0, 0] = 0.5 * separation
    x[1, 0] = -0.5 * separation
    return ParticleState(positions=x, velocities=None)


# ------------------------------------------------------------ config basics


def test_config_defaults_and_validation():
    cfg = SimConfig(potential=POT, dimension=3, N=10)
    assert cfg.dt == pytest.approx(0.01 * 0.8)  # 0.01 * min(1, ell)
    assert cfg.min_separation == pytest.approx(1e-6 * 0.8)
    with pytest.raises(DomainError):
        SimConfig(potential=POT, dimension=1, N=10)
    with pytest.raises(DomainError):
        SimConfig(potential=POT, dimension=3, N=1)
    with pytest.raises(DomainError):
        SimConfig(potential=POT, dimension=3, N=10, dt=-0.1)
    with pytest.raises(DomainError):
        SimConfig(potential=POT, dimension=3, N=10, model="second", alpha=-1.0)
    # a negative seed once failed inside numpy ("expected non-negative
    # integer"), and a window below 1 let run(stop_when_converged=True) stop
    # as converged after one step
    for field, value in (("seed", -1), ("convergence_window", 0), ("convergence_window", -5)):
        with pytest.raises(DomainError, match=f"^SimConfig: '{field}' must be at least "):
            SimConfig(potential=POT, dimension=3, N=10, **{field: value})


def test_config_round_trip():
    cfg = SimConfig(potential=POT, dimension=3, N=10, seed=7, init=Gaussian(0.5))
    assert SimConfig.from_dict(cfg.to_dict()) == cfg
    # the convergence settings survive too, and sidecars written without
    # them still load with the defaults
    cfg = SimConfig(potential=POT, dimension=3, N=10, convergence_tol=2.5e-7,
                    convergence_window=17, stop_when_converged=True)
    assert SimConfig.from_dict(cfg.to_dict()) == cfg
    old = cfg.to_dict()
    for key in ("convergence_tol", "convergence_window", "stop_when_converged"):
        del old[key]
    assert SimConfig.from_dict(old) == SimConfig(potential=POT, dimension=3, N=10)
    # values of the wrong JSON type were once coerced: "false" loaded as True
    for key, value in (("tabulated_forces", "false"), ("N", 10.9)):
        with pytest.raises(DomainError, match=key):
            SimConfig.from_dict({**cfg.to_dict(), key: value})


# --------------------------------------------------------- first-order step


def test_pair_moves_along_axis_with_fixed_com():
    cfg = SimConfig(potential=POT, dimension=3, N=2, dt=0.05, steps=1,
                    tabulated_forces=False)
    state = pair_state(0.3)
    out = step_first_order(state, cfg)
    # motion stays on the connecting line
    assert np.all(out.positions[:, 1:] == 0.0)
    # Newton's third law: center of mass pinned to rounding
    assert np.max(np.abs(out.positions.mean(axis=0))) <= 1e-12 * 0.3


def test_pair_at_minimum_is_stationary():
    cfg = SimConfig(potential=POT, dimension=3, N=2, dt=0.05, steps=1,
                    tabulated_forces=False)
    r_min = minimum_radius(POT)
    state = pair_state(r_min)
    out = step_first_order(state, cfg)
    assert np.max(np.abs(out.positions - state.positions)) < 1e-15


def test_com_invariance_many_particles():
    cfg = SimConfig(potential=POT, dimension=3, N=200, dt=0.1, steps=1, seed=2)
    state = initial_state(cfg)
    com0 = state.positions.mean(axis=0)
    for _ in range(20):
        state = step_first_order(state, cfg)
    drift = np.max(np.abs(state.positions.mean(axis=0) - com0))
    assert drift <= 20 * 1e-12 * 1.0  # per-step drift below 1e-12 R


def test_morse_like_blob_contracts():
    # p = 1/2 short-range singular repulsion still yields a bounded blob
    cfg = SimConfig(
        potential=MorseLike(0.5, 0.6, 0.2), dimension=2, N=80, dt=0.01,
        steps=400, seed=3, init=UniformBall(2.0),
    )
    state, summary = run(cfg)
    radii = np.linalg.norm(state.positions - state.positions.mean(axis=0), axis=1)
    assert np.all(np.isfinite(radii))
    assert radii.max() < 10.0


def test_blowup_detection():
    # huge dt on a straight-line pair -> explicit Euler overshoots and blows up
    cfg = SimConfig(potential=Morse(5.0, 0.1, 0.2, 5.0), dimension=2, N=2,
                    dt=1e9, steps=50, blowup_bound=1e3, tabulated_forces=False)
    state = ParticleState(positions=np.array([[0.05, 0.0], [-0.05, 0.0]]),
                          velocities=None)
    with pytest.raises(NumericalBlowupError):
        run(cfg, state)


def test_blowup_reports_its_step_in_the_message():
    # the message once said "at step 0" for a blowup at step 200
    cfg = SimConfig(potential=Morse(2.0, 1.0, 0.5, 1.0), dimension=3, N=20, dt=0.5,
                    steps=400, model="second", alpha=100.0, beta=1.0, blowup_bound=1e3,
                    seed=3, init=UniformBall(0.5))
    with pytest.raises(NumericalBlowupError) as info:
        run(cfg)
    assert info.value.step == 200 and info.value.bound == 1e3
    assert str(info.value) == "coordinate exceeded bound 1000 at step 200"


@pytest.mark.parametrize("value", [2e3, math.inf, math.nan])
def test_run_refuses_an_initial_state_beyond_the_bound(value):
    cfg = SimConfig(potential=Morse(5.0, 0.1, 0.2, 5.0), dimension=2, N=2, dt=0.1,
                    steps=3, blowup_bound=1e3)
    state = ParticleState(positions=np.array([[0.05, 0.0], [value, 0.0]]), velocities=None)
    with pytest.raises(DomainError, match="^initial state exceeds the blowup bound 1000$"):
        run(cfg, state)


@pytest.mark.parametrize("params", [
    ModelParams(3, 1.255, 1e-308, 0.2),  # once a run whose particles never moved
    ModelParams(3, 1.255, 0.8, 1e308),  # k^(3/2) raises OverflowError
    ModelParams(3, 1e308, 0.8, 0.2),
])
def test_force_table_with_a_nonfinite_entry_is_refused(params):
    # under the suite's filter a RuntimeWarning of the table's build would raise
    with pytest.raises(ParameterOverflowError, match="^the force table of .* non-finite"):
        _config_model(SimConfig(potential=QuasiMorse(params), dimension=3))


@pytest.mark.parametrize("params", [
    ModelParams(3, 1.255, 0.8, 1e308),  # k^(3/2) raised OverflowError (errno 34)
    ModelParams(3, 1e308, 0.8, 0.2),  # the pair pass met inf and nan
])
def test_exact_forces_with_a_nonfinite_entry_are_refused(params):
    # the exact mode checks the table the tabulated one would build, and
    # names the potential's parameters
    config = SimConfig(potential=QuasiMorse(params), dimension=3, tabulated_forces=False)
    with pytest.raises(ParameterOverflowError, match="^the force table of .* non-finite") as info:
        _config_model(config)
    assert info.value.fields == tuple((ModelParams, name) for name in ("n", "C", "ell", "k"))


@pytest.mark.parametrize("alpha, dt", [(1.0, 1e308), (1e308, 0.008), (800.0, 1.0)])
def test_propulsion_overflow_is_refused(alpha, dt):
    # once "math range error", or RuntimeWarnings and then a blow-up at step 0
    cfg = SimConfig(potential=POT, dimension=3, N=4, dt=dt, steps=2, model="second",
                    alpha=alpha)
    with pytest.raises(ParameterOverflowError, match=r"exp\(alpha dt\) overflows") as info:
        run(cfg)
    assert info.value.fields == ((SimConfig, "alpha"), (SimConfig, "dt"))


# -------------------------------------------------------- second-order step


def test_single_speed_saturation_without_forces():
    # isolated particles relax to |v| = sqrt(alpha/beta)
    cfg = SimConfig(potential=POT, dimension=3, N=4, dt=0.05, steps=1,
                    model="second", alpha=1.0, beta=0.5, seed=4)
    state = initial_state(cfg)
    state.positions *= 1e5  # push interactions to zero
    for _ in range(400):
        state = step_second_order(state, cfg)
    speeds = np.linalg.norm(state.velocities, axis=1)
    assert np.max(np.abs(speeds - math.sqrt(2.0))) < 1e-6


def test_rest_is_preserved_exactly_but_unstable():
    cfg = SimConfig(potential=POT, dimension=3, N=2, dt=0.05, steps=1,
                    model="second", alpha=1.0, beta=0.5, tabulated_forces=False)
    state = ParticleState(
        positions=np.array([[1e4, 0.0, 0.0], [-1e4, 0.0, 0.0]]),
        velocities=np.zeros((2, 3)),
    )
    out = step_second_order(state, cfg)
    assert np.all(out.velocities == 0.0)
    # any perturbation grows toward the cruise speed
    state.velocities[0, 0] = 1e-8
    grown = state
    for _ in range(2000):
        grown = step_second_order(grown, cfg)
    assert np.linalg.norm(grown.velocities[0]) > 1.0


# ------------------------------------------------------------ run + records


def test_run_zero_steps_returns_initial_state():
    cfg = SimConfig(potential=POT, dimension=3, N=8, steps=0, seed=1)
    init = initial_state(cfg)
    final, summary = run(cfg)
    assert np.array_equal(final.positions, init.positions)
    assert summary.steps_run == 0


def test_run_deterministic_given_seed():
    cfg = SimConfig(potential=POT, dimension=3, N=64, dt=0.05, steps=40, seed=11)
    s1, r1 = run(cfg)
    s2, r2 = run(cfg)
    assert np.array_equal(s1.positions, s2.positions)
    assert r1.records[-1] == r2.records[-1]


def test_run_deterministic_across_row_blocks():
    cfg = SimConfig(potential=POT, dimension=3, N=_BLOCK_ROWS + 45, dt=0.05,
                    steps=4, seed=12, record_stride=2)
    s1, r1 = run(cfg)
    s2, r2 = run(cfg)
    assert np.array_equal(s1.positions, s2.positions)
    assert r1.records == r2.records


def test_energy_descent_first_order():
    cfg = SimConfig(potential=POT, dimension=3, N=128, dt=0.2, steps=1000,
                    seed=7, init=UniformBall(1.5), record_stride=10)
    _, summary = run(cfg)
    energies = [rec["interaction_energy"] for rec in summary.records]
    assert np.all(np.diff(energies) <= 1e-12 * max(abs(e) for e in energies))


def test_force_cost_scales_quadratically():
    # doubling N should roughly quadruple the per-step force time; the two
    # sizes are timed in turn within each round, so a swing in host speed
    # hits both, and the measurement is retried to ride out scheduler noise
    def warmed(n):
        cfg = SimConfig(potential=POT, dimension=3, N=n, dt=0.01, steps=1, seed=0)
        state = initial_state(cfg)
        return step_first_order(state, cfg), cfg  # warm the cached model

    def per_step_ratio():
        runs = [warmed(400), warmed(800)]
        best = [math.inf, math.inf]
        for _ in range(5):
            for i, (state, cfg) in enumerate(runs):
                t0 = time.perf_counter()
                for _ in range(4):
                    step_first_order(state, cfg)
                best[i] = min(best[i], (time.perf_counter() - t0) / 4)
        return best[1] / best[0]

    for _ in range(3):
        ratio = per_step_ratio()
        if 2.8 <= ratio <= 5.2:
            break
    assert 2.8 <= ratio <= 5.2


# ------------------------------------------------------- histogram/compare


def test_histogram_single_shell():
    rng = np.random.default_rng(0)
    direc = rng.normal(size=(4000, 3))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    state = ParticleState(positions=2.0 * direc, velocities=None)
    hist = radial_histogram(state, 10)
    assert np.count_nonzero(hist.density) == 1
    assert np.argmax(hist.density) == 9


def test_histogram_of_particles_at_one_point():
    # every radius is 0: the bins span [0, 1e-12], the first holds them all
    state = ParticleState(positions=np.full((5, 3), 0.25), velocities=None)
    hist = radial_histogram(state, 2)
    assert hist.bin_edges[-1] == 1e-12 and list(hist.counts) == [5, 0]
    assert np.all(np.isfinite(hist.density)) and np.array_equal(hist.center, state.positions[0])


@pytest.mark.parametrize("bins", [0, -1, 4])
def test_histogram_rejects_bins_outside_one_to_n(bins):
    # bins = 0 once gave an empty histogram that compare scored as l1 = 1.0002
    state = ParticleState(positions=np.eye(3), velocities=None)
    with pytest.raises(DomainError):
        radial_histogram(state, bins)


def test_histogram_mass_is_one():
    rng = np.random.default_rng(1)
    state = ParticleState(positions=rng.normal(size=(50_000, 3)), velocities=None)
    hist = radial_histogram(state, 32)
    vols = (4.0 * math.pi / 3.0) * np.diff(hist.bin_edges**3)
    assert np.sum(hist.density * vols) == pytest.approx(1.0, abs=1e-12)


def test_histogram_uniform_ball_is_flat():
    cfg = SimConfig(potential=POT, dimension=3, N=100_000, seed=1,
                    init=UniformBall(1.0))
    state = initial_state(cfg)
    # 5 bins keep even the innermost shell populated enough for the 5%
    # law-of-large-numbers tolerance at this particle count
    hist = radial_histogram(state, 5)
    expected = 1.0 / (4.0 * math.pi / 3.0)
    assert np.max(np.abs(hist.density / expected - 1.0)) < 0.05


def test_compare_profile_inverse_cdf_oracle():
    # positions drawn exactly from the analytic density: l1 at the 2% level
    prof = solve_profile(REF3D)
    pos = sample_profile_positions(prof, 1_000_000, seed=5)
    state = ParticleState(positions=pos, velocities=None)
    hist = radial_histogram(state, 24)
    l1, support_err = compare_profile(hist, prof)
    assert l1 <= 0.02
    assert support_err <= 0.01


def _bisection_positions(profile, count, seed):
    """The sampler's draws by 60 bisection passes on the closed-form mass
    M(r) = u, and above the median on the tail T(r) = 1 - u as the sampler
    does: the radii and unit directions from the same random stream."""
    rng = np.random.default_rng(seed)
    n = profile.params.n
    u = rng.uniform(size=count)
    upper = u > 0.5
    lo, hi = np.zeros(count), np.full(count, profile.R_star)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        takes_hi = np.empty(count, dtype=bool)
        takes_hi[~upper] = _mass_closed(n, profile.a, mid[~upper], profile.mu1,
                                        profile.mu2) < u[~upper]
        takes_hi[upper] = simulate._mass_tail(profile, mid[upper]) > 1.0 - u[upper]
        lo = np.where(takes_hi, mid, lo)
        hi = np.where(takes_hi, hi, mid)
    direc = rng.normal(size=(count, n))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    return 0.5 * (lo + hi), direc


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    C=st.floats(1.05, 6.0),
    place=st.floats(0.01, 0.99),
    k=st.floats(0.05, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
# 2-D draws where rho(R*) is small: inverting M(r) = u near R*, the sampler
# and the oracle differed by 1.29e-12 (bound 1.23e-12) and 2.31e-13 (2.04e-13)
@example(n=2, C=2.5, place=0.9899999999999999, k=0.15625, seed=7426)
@example(n=2, C=4.5, place=0.98828125, k=1.0, seed=1)
def test_sampler_matches_the_bisection_oracle(n, C, place, k, seed):
    # ell anywhere in region I but the outer 1% of its span at each end
    lo, hi = (C**-1.0, C ** (-1.0 / 3.0)) if n == 3 else (0.0, C**-0.5)
    profile = solve_profile(ModelParams(n, C, lo + place * (hi - lo), k))
    pos = sample_profile_positions(profile, 2000, seed=seed)
    radii, direc = _bisection_positions(profile, 2000, seed)
    r = np.linalg.norm(pos, axis=1)
    assert np.max(np.abs(r - radii)) <= 1e-14 * profile.R_star
    np.testing.assert_allclose(pos / r[:, None], direc, rtol=0.0, atol=1e-14)


def test_sampler_evaluates_the_mass_about_once_per_point(monkeypatch):
    # a table, then one Newton step per draw; the bisection took 60 per draw
    points = []

    def counted(n, a, R, mu1, mu2):
        points.append(np.size(R))
        return _mass_closed(n, a, R, mu1, mu2)

    monkeypatch.setattr(simulate, "_mass_closed", counted)
    for params in (REF3D, REF2D):
        points.clear()
        sample_profile_positions(solve_profile(params), 20_000, seed=2)
        assert points[0] == simulate._SAMPLE_TABLE_NODES
        assert len(points) <= 1 + simulate._SAMPLE_NEWTON_STEPS
        assert sum(points[1:]) <= 1.01 * 20_000


def test_sampler_rejects_a_negative_count_and_a_negative_density():
    # -1 escaped as numpy's "negative dimensions"; the second root's density
    # is negative on part of its support, so its mass dips to -1.8 before it
    # reaches 1, and radii were returned without complaint
    with pytest.raises(DomainError, match="count"):
        sample_profile_positions(solve_profile(REF3D), -1)
    with pytest.raises(DomainError, match="non-decreasing"):
        sample_profile_positions(solve_profile(REF3D, root_index=2), 100)
    assert sample_profile_positions(solve_profile(REF3D), 0).shape == (0, 3)


def test_compare_profile_uniform_lower_bound():
    # a uniform-ball histogram cannot beat the profile's own deviation from
    # its best constant approximation on the support
    prof = solve_profile(REF3D)
    cfg = SimConfig(potential=POT, dimension=3, N=200_000, seed=10,
                    init=UniformBall(prof.R_star))
    hist = radial_histogram(initial_state(cfg), 16)
    l1, _ = compare_profile(hist, prof)
    grid = np.linspace(0.0, prof.R_star, 2000)
    rho = density_eval(prof, grid)
    shell = 4.0 * math.pi * grid**2
    best_const = np.trapezoid(rho * shell, grid) / np.trapezoid(shell, grid)
    floor = float(np.trapezoid(np.abs(rho - best_const) * shell, grid))
    assert l1 >= 0.8 * floor  # sampling noise only adds to the floor


def _compare_by_segment(hist, profile):
    """compare_profile's l1_error as a loop over the segments: 32 points,
    one density call and one trapezoid each, summed in bin order."""
    edges, total = hist.bin_edges, 0.0
    segments = list(zip(edges[:-1], edges[1:], hist.density))
    if edges[-1] < profile.R_star:
        segments.append((float(edges[-1]), profile.R_star, 0.0))
    for lo, hi, rho_emp in segments:
        r = np.linspace(lo, hi, 32)
        shell = 2.0 * math.pi * r if profile.params.n == 2 else 4.0 * math.pi * r * r
        total += float(np.trapezoid(np.abs(density_eval(profile, r) - rho_emp) * shell, r))
    return total


def test_compare_profile_is_one_array_pass_with_the_loops_bits(monkeypatch):
    # once one density_eval call per bin; the array pass keeps the loop's bits
    calls = []

    def counted(profile, r):
        calls.append(np.shape(r))
        return density_eval(profile, r)

    rng = np.random.default_rng(3)
    for params in (REF3D, REF2D):
        prof = solve_profile(params)
        n = params.n
        for bins, scale in ((1, 0.7), (8, 0.9), (39, 1.3), (17, 1.0)):
            x = rng.normal(size=(400, n))
            x *= scale * prof.R_star * rng.uniform(size=(400, 1)) ** (1.0 / n) / np.linalg.norm(
                x, axis=1, keepdims=True)
            hist = radial_histogram(ParticleState(positions=x, velocities=None), bins)
            expected = _compare_by_segment(hist, prof)
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(simulate, "density_eval", counted)
                l1, _ = compare_profile(hist, prof)
            gap = hist.bin_edges[-1] < prof.R_star
            assert calls == [(bins + gap, 32)]
            assert l1 == expected


def test_compare_profile_dimension_mismatch():
    prof = solve_profile(REF3D)
    state = ParticleState(positions=np.zeros((10, 2)), velocities=None)
    state.positions[:, 0] = np.linspace(0.1, 1.0, 10)
    hist = radial_histogram(state, 2)
    with pytest.raises(DomainError):
        compare_profile(hist, prof)


# ---------------------------------------------------------- checkpoint I/O


def test_checkpoint_round_trip(tmp_path):
    cfg = SimConfig(potential=POT, dimension=3, N=16, dt=0.05, steps=5,
                    model="second", seed=13)
    state, _ = run(cfg)
    prefix = str(tmp_path / "chk")
    csv_path, meta_path = save_checkpoint(state, cfg, prefix)
    loaded, meta = load_checkpoint(prefix)
    assert np.array_equal(loaded.positions, state.positions)
    assert np.array_equal(loaded.velocities, state.velocities)
    assert loaded.time == state.time
    assert meta["config"]["N"] == 16


def test_checkpoint_csv_is_the_csv_module_output(tmp_path):
    # the block writer gives csv.writer's bytes, across a block boundary and
    # for signed zeros, subnormals and extreme exponents
    n_part = _codec.BLOCK_FIELDS // 3 + 3
    cfg = SimConfig(potential=POT, dimension=3, N=n_part)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(n_part, 3))
    x[:6, 0] = [-0.0, 5e-324, -5e-324, 1e300, -1e-300, 1.0 / 3.0]
    for velocities in (None, rng.normal(size=(n_part, 3))):
        state = ParticleState(positions=x, velocities=velocities)
        csv_path, _ = save_checkpoint(state, cfg, str(tmp_path / "chk"))
        rows = x if velocities is None else np.hstack([x, velocities])
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"{c}{i + 1}" for c in "xv"[: rows.shape[1] // 3] for i in range(3)])
            for row in rows:
                writer.writerow([f"{v:.17g}" for v in row])
        assert Path(csv_path).read_bytes() == expected.read_bytes()


def test_from_file_initialization(tmp_path):
    cfg = SimConfig(potential=POT, dimension=3, N=16, dt=0.05, steps=3, seed=13)
    state, _ = run(cfg)
    prefix = str(tmp_path / "warm")
    save_checkpoint(state, cfg, prefix)
    cfg2 = SimConfig(potential=POT, dimension=3, N=16, dt=0.05, steps=0,
                     init=FromFile(path=prefix))
    restarted = initial_state(cfg2)
    assert np.array_equal(restarted.positions, state.positions)
    bad = SimConfig(potential=POT, dimension=3, N=8, dt=0.05, steps=0,
                    init=FromFile(path=prefix))
    with pytest.raises(DomainError):
        initial_state(bad)


def _terms(model, d2, with_forces=True, with_energy=False):
    """``model.pair_terms`` at the squared distances ``d2`` (left as they
    are), on work arrays of their own."""
    d2 = np.array(d2, dtype=float)
    work = (np.empty_like(d2), np.empty(d2.shape, dtype=np.intp), np.empty_like(d2))
    return model.pair_terms(d2, work, with_forces, with_energy)


def test_tabulated_forces_match_exact_forces_closely():
    model_tab = _cached_model(POT, 1e-6 * 0.8, True)
    model_exact = _cached_model(POT, 1e-6 * 0.8, False)
    r = np.geomspace(2e-6, 50.0, 500)
    tab = _terms(model_tab, r * r)[0] * r
    exact = _terms(model_exact, r * r)[0] * r
    assert np.max(np.abs(tab - exact)) <= 1e-6 * np.max(np.abs(exact))


_KERNEL_CASES = {
    "quasi_morse_2d": QuasiMorse(REF2D),
    "quasi_morse_3d": POT,
    "morse": Morse(2.0, 1.0, 0.5, 1.0),
    "morse_like": MorseLike(0.5, 0.6, 0.2),
}


@pytest.mark.parametrize("potential", _KERNEL_CASES.values(), ids=_KERNEL_CASES.keys())
def test_tabulated_kernel_matches_exact_for_all_potentials(potential):
    min_sep = 1e-6 * 0.8
    model = _cached_model(potential, min_sep, True)
    r = np.geomspace(2e-6, 50.0, 20_000)
    force = potential_force_magnitude(potential, r)
    value = potential_value(potential, r)
    w, _, u = _terms(model, r * r, with_energy=True)
    assert np.max(np.abs(w * r - force)) <= 1e-6 * np.max(np.abs(force))
    assert np.max(np.abs(u - value)) <= 1e-6 * np.max(np.abs(value))


@pytest.mark.parametrize("potential", _KERNEL_CASES.values(), ids=_KERNEL_CASES.keys())
@settings(max_examples=40, deadline=None)
@given(d=st.lists(st.floats(min_value=4e-7, max_value=1e4), min_size=1, max_size=8))
def test_evaluators_and_exact_pair_terms_agree_bit_for_bit(potential, d):
    # the public evaluators are projections of one evaluation, for scalar
    # and array radii, and the exact pair terms are the public ones at
    # max(d, min_sep) for every d >= 0.5 min_sep, whatever terms are asked for
    min_sep = 1e-6 * 0.8
    for r in (*d, np.array(d)):
        u, du = potential_value_and_force(potential, r)
        assert type(u) is type(du) is (np.ndarray if isinstance(r, np.ndarray) else float)
        assert np.array_equal(u, potential_value(potential, r))
        assert np.array_equal(du, potential_force_magnitude(potential, r))
    d2 = np.array(d) ** 2
    dist = np.sqrt(d2)
    r_eff = np.maximum(dist, min_sep)
    w_ref = potential_force_magnitude(potential, r_eff) / dist
    u_ref = potential_value(potential, r_eff)
    model = _cached_model(potential, min_sep, False)
    for with_forces, with_energy in ((True, False), (False, True), (True, True)):
        w, _, u = _terms(model, d2, with_forces, with_energy)
        assert (w is None) != with_forces and (u is None) != with_energy
        assert not with_forces or np.array_equal(w, w_ref)
        assert not with_energy or np.array_equal(u, u_ref)


def test_table_lookup_reproduces_interp_endpoints_and_interior():
    # the tables as np.interp read them: nodes uniform in log r over
    # [0.5 min_sep, _R_MAX], clamped at min_sep
    min_sep = 1e-6 * 0.8
    model = _cached_model(POT, min_sep, True)
    logs = np.linspace(math.log(0.5 * min_sep), math.log(_R_MAX), _TABLE_SIZE)
    grid = np.exp(logs)
    force_tab = potential_force_magnitude(POT, np.maximum(grid, min_sep))
    value_tab = potential_value(POT, np.maximum(grid, min_sep))
    w_tab = force_tab / grid

    def interp(tab, log_r):
        return np.interp(log_r, logs, tab)

    beyond = np.array([1.0001, 2.0, 1e3]) * _R_MAX
    below = np.array([1e-3, 0.25, 0.4999]) * min_sep
    d2 = np.concatenate([[0.0], below**2, beyond**2])
    with np.errstate(divide="ignore"):
        half_log = 0.5 * np.log(d2)
    expected_w = interp(w_tab, half_log)
    w, clamped, u = _terms(model, d2, with_energy=True)
    assert np.array_equal(clamped, [0, 1, 2, 3])
    assert np.array_equal(w[4:], expected_w[4:]) and np.all(expected_w[4:] == w_tab[-1])
    # below the table, U'(r)/r is the clamp U'(min_sep)/d of the exact path,
    # and 0 at d = 0
    exact = _terms(_cached_model(POT, min_sep, False), d2[:4])[0]
    assert w[0] == 0.0 and exact[0] == 0.0
    assert np.allclose(w[1:4], exact[1:4], rtol=1e-12, atol=0.0)
    assert np.allclose(w[1:4] * below, force_tab[0], rtol=1e-12, atol=0.0)
    # U(r) is the interpolant everywhere: U(min_sep) below the table and its
    # last node beyond it
    assert np.array_equal(u, interp(value_tab, half_log))
    assert np.all(u[:4] == value_tab[0]) and np.all(u[4:] == value_tab[-1])
    # each term asked for alone has the bits it has in a fused call
    assert np.array_equal(_terms(model, d2)[0], w)
    assert np.array_equal(_terms(model, d2, with_forces=False, with_energy=True)[2], u)

    r = np.geomspace(0.6 * min_sep, 0.9 * _R_MAX, 4001)
    w, _, u = _terms(model, r * r, with_energy=True)
    for got, tab in ((w, w_tab), (u, value_tab)):
        ref = interp(tab, np.log(r))
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _pair_loop_accelerations(x, potential, min_sep):
    """-(1/N) sum_{j != i} U'(max(d, min_sep)) (x_i - x_j)/d, one row at a
    time from the offsets themselves; coincident pairs contribute 0."""
    n_part = x.shape[0]
    acc = np.zeros_like(x)
    for i in range(n_part):
        diff = x[i] - x
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        keep = d > 0.0
        f = potential_force_magnitude(potential, np.maximum(d[keep], min_sep))
        acc[i] = -(f[:, None] * diff[keep] / d[keep][:, None]).sum(axis=0) / n_part
    return acc


def _pair_loop_energy(x, potential, min_sep):
    """(1/N^2) sum_{i < j} U(max(d, min_sep))."""
    total = 0.0
    for i in range(x.shape[0] - 1):
        diff = x[i] - x[i + 1:]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        total += float(potential_value(potential, np.maximum(d, min_sep)).sum())
    return total / x.shape[0] ** 2


@pytest.mark.parametrize("tabulated", [False, True], ids=["exact", "tabulated"])
@pytest.mark.parametrize("n_part", [2, _BLOCK_ROWS - 1, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3])
def test_blocked_kernel_matches_pair_loop(n_part, tabulated):
    cfg = SimConfig(potential=POT, dimension=3, N=n_part, seed=n_part,
                    tabulated_forces=tabulated)
    min_sep = cfg.min_separation
    x = np.random.default_rng(n_part).uniform(-1.0, 1.0, size=(n_part, 3))
    # a pair inside min_separation, whose force must be the one at min_sep
    # (kept above the table's lower edge at 0.5 min_sep), then, with room
    # for it, a pair that coincides exactly and must contribute nothing
    x[-1] = x[0] + 0.6 * min_sep * np.array([0.6, 0.0, 0.8])
    if n_part > 3:
        x[n_part // 2] = x[1]
    model = _cached_model(POT, min_sep, tabulated)
    acc = _accelerations(x, model)
    ref = _pair_loop_accelerations(x, POT, min_sep)
    scale = abs(potential_force_magnitude(POT, min_sep))
    tol = 1e-6 if tabulated else 1e-9
    assert np.max(np.abs(acc - ref)) <= tol * scale / n_part
    # the clamped pair dominates its two rows; check them on their own scale
    for i in (0, -1):
        assert np.linalg.norm(acc[i] - ref[i]) <= tol * np.linalg.norm(ref[i])

    energy = interaction_energy(ParticleState(positions=x, velocities=None), cfg)
    energy_ref = _pair_loop_energy(x, POT, min_sep)
    assert energy == pytest.approx(energy_ref, rel=1e-6 if tabulated else 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(sorted(_KERNEL_CASES)),
    dim=st.sampled_from([2, 3]),
    tabulated=st.booleans(),
    n_part=st.integers(2, 3 * _BLOCK_ROWS + 5),
    seed=st.integers(0, 2**32 - 1),
    close=st.floats(1e-3, 0.99),
    picks=st.lists(st.integers(0, 10**6), min_size=4, max_size=4),
)
def test_half_pair_kernel_matches_pair_loop_property(case, dim, tabulated, n_part, seed,
                                                     close, picks):
    # each unordered pair is weighed once, in whichever block owns it: a
    # clamped pair (both inside the table and below its 0.5 min_sep edge)
    # and an exactly coincident pair are planted at drawn indices
    potential = _KERNEL_CASES[case]
    if isinstance(potential, QuasiMorse):
        dim = potential.params.n
    cfg = SimConfig(potential=potential, dimension=dim, N=n_part,
                    tabulated_forces=tabulated)
    min_sep = cfg.min_separation
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n_part, dim))
    order = list(dict.fromkeys(p % n_part for p in picks))
    order += [i for i in range(n_part) if i not in order]
    direc = rng.normal(size=dim)
    x[order[1]] = x[order[0]] + close * min_sep * direc / np.linalg.norm(direc)
    if n_part >= 4:
        x[order[3]] = x[order[2]]
    model = _cached_model(potential, min_sep, tabulated)
    acc = _accelerations(x, model)
    ref = _pair_loop_accelerations(x, potential, min_sep)
    scale = abs(potential_force_magnitude(potential, min_sep))
    if tabulated:
        # each pair force is tabulated to 1e-6 of the force scale, and a row
        # averages N - 1 of them.  (The 3-D test's tol * scale / N holds only
        # where the clamped pair's force dwarfs all others; for Morse, whose
        # force is bounded, the table error of the other pairs exceeds it.)
        assert np.max(np.abs(acc - ref)) <= 1e-6 * scale
    else:
        assert np.max(np.abs(acc - ref)) <= 1e-9 * scale / n_part
        for i in order[:2]:
            assert np.linalg.norm(acc[i] - ref[i]) <= 1e-9 * np.linalg.norm(ref[i])
    # the sums themselves, in both modes: against a dense sum of the model's
    # own weights times the pair offsets, to rounding of each row's magnitude
    diff = x[:, None] - x[None]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    w = _terms(model, d2)[0]
    own = -(w[..., None] * diff).sum(axis=1) / n_part
    magnitude = (np.abs(w) * np.sqrt(d2)).sum(axis=1) / n_part
    assert np.all(np.linalg.norm(acc - own, axis=1) <= 1e-9 * magnitude)


def _reference_blocks(x):
    """The pair blocks as first written: d2 from ``np.subtract.outer`` per
    coordinate, the self pairs set to 1."""
    n_part = x.shape[0]
    for lo in range(0, n_part, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n_part)
        d2 = sum(np.subtract.outer(c[lo:hi], c[lo:]) ** 2 for c in x.T)
        np.fill_diagonal(d2[:, : hi - lo], 1.0)
        yield lo, hi, d2


def _reference_lookup(model, table, d2):
    """The table lookup as first written: from 0.5 log d^2, with
    ``np.floor`` for the cell."""
    tab, slope = table
    x0, x1 = math.log(0.5 * model.min_sep), math.log(_R_MAX)
    with np.errstate(divide="ignore"):
        s = 0.5 * np.log(d2)
    s = np.clip((s - x0) * ((_TABLE_SIZE - 1) / (x1 - x0)), 0.0, _TABLE_SIZE - 1)
    cell = np.floor(s)
    index = cell.astype(np.intp)
    return (s - cell) * slope[index] + tab[index]


def _reference_pass(x, model):
    """(acc, energy) by the block formulas the kernel was first written
    with, as a bit-for-bit reference for its rewritten array operations."""
    n_part = x.shape[0]
    x_one_t = np.vstack([x.T, np.ones(n_part)])
    sums = np.zeros_like(x_one_t)
    near = np.zeros_like(x)
    total = 0.0
    for lo, hi, d2 in _reference_blocks(x):
        keep = ~np.tri(hi - lo, n_part - lo, dtype=bool)  # the pairs j > i
        clamped = np.flatnonzero(d2 < model.min_sep**2)
        d = np.sqrt(d2)
        r_eff = np.maximum(d, model.min_sep)
        if model.tabulated:
            w = _reference_lookup(model, model._w_tab, d2)
            u = _reference_lookup(model, model._value_tab, d2)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                w = potential_force_magnitude(model.potential, r_eff) / d
            u = potential_value(model.potential, r_eff)
        below = clamped[d.flat[clamped] < 0.5 * model.min_sep]
        with np.errstate(divide="ignore"):
            w.flat[below] = np.where(d.flat[below] > 0.0,
                                     model._force_at_min / d.flat[below], 0.0)
        total += float(np.where(keep, u, 0.0).sum())
        w = np.where(keep, w, 0.0)
        rows, cols = np.divmod(clamped, w.shape[1])
        upper = cols > rows
        rows, cols = rows[upper] + lo, cols[upper] + lo
        pair_acc = w.flat[clamped[upper]][:, None] * (x[rows] - x[cols])
        w.flat[clamped] = 0.0
        np.add.at(near, rows, pair_acc)
        np.subtract.at(near, cols, pair_acc)
        sums[:, lo:hi] += (w @ x_one_t.T[lo:]).T
        sums[:, lo:] += x_one_t[:, lo:hi] @ w
    acc = sums[-1][:, None] * x
    acc -= sums[:-1].T
    acc += near
    acc /= -n_part
    return acc, total / n_part**2


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(sorted(_KERNEL_CASES)),
    dim=st.sampled_from([2, 3]),
    tabulated=st.booleans(),
    n_part=st.sampled_from([2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 77]),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.integers(0, 10**6), min_size=6, max_size=6),
)
def test_pair_pass_equals_the_first_written_kernel_bit_for_bit(case, dim, tabulated, n_part,
                                                                seed, picks):
    # a coincident pair, a pair below min_sep and one below 0.5 min_sep, at
    # drawn indices as far as N allows
    potential = _KERNEL_CASES[case]
    if isinstance(potential, QuasiMorse):
        dim = potential.params.n
    cfg = SimConfig(potential=potential, dimension=dim, N=n_part, tabulated_forces=tabulated)
    min_sep = cfg.min_separation
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n_part, dim))
    order = list(dict.fromkeys(p % n_part for p in picks))
    order += [i for i in range(n_part) if i not in order]
    for (a, b), gap in zip(zip(order[0::2], order[1::2]), (0.0, 0.7, 0.3)):
        direc = rng.normal(size=dim)
        x[b] = x[a] + gap * min_sep * direc / np.linalg.norm(direc)
    _assert_passes_equal_the_reference(x, cfg)


def _assert_passes_equal_the_reference(x, cfg):
    # force, energy-only and fused passes, each against ``_reference_pass``
    model = _config_model(cfg)
    acc_ref, energy_ref = _reference_pass(x, model)
    assert np.array_equal(_accelerations(x, model), acc_ref)
    assert interaction_energy(ParticleState(positions=x, velocities=None), cfg) == energy_ref
    acc, energy = simulate._force_pass(x, model, with_energy=True)
    assert np.array_equal(acc, acc_ref) and energy == energy_ref


@pytest.mark.parametrize("tabulated", [False, True], ids=["exact", "tabulated"])
def test_the_clamp_search_finds_each_close_pair_once(tabulated):
    # min_separation = 1e-6 ell_R = 2 > 1.  On a line 3 min_sep apart, a
    # coincident pair and a pair 0.3 min_sep apart sit in the first block;
    # each pair of clamped flat indices a pass finds is a pair j > i
    cfg = SimConfig(potential=Morse(2.0, 1.0, 2e6, 1.0), dimension=3, N=40,
                    tabulated_forces=tabulated)
    min_sep = cfg.min_separation
    assert min_sep > 1.0
    x = np.zeros((40, 3))
    x[:, 0] = 3.0 * min_sep * np.arange(40)
    x[5] = x[3]
    x[9] = x[2] + [0.0, 0.3 * min_sep, 0.0]
    found = []
    pair_terms = simulate._ForceModel.pair_terms

    def spy(model, d2, work, with_forces=True, with_energy=False):
        out = pair_terms(model, d2, work, with_forces, with_energy)
        if with_forces:
            found.append(out[1].copy())
        return out

    with mock.patch.object(simulate._ForceModel, "pair_terms", spy):
        _assert_passes_equal_the_reference(x, cfg)
    ((blocks, _),) = simulate._pair_groups(40, simulate._GROUP_ENTRIES)[0]
    starts = [block[2] for block in blocks]
    assert len(found) == 2  # the force pass and the fused pass
    for clamped in found:
        pairs = []
        for flat in clamped.tolist():
            lo, _, start, _ = blocks[np.searchsorted(starts, flat, side="right") - 1]
            i, j = divmod(flat - start, 40 - lo)
            pairs.append((i + lo, j + lo))
        assert pairs == [(2, 9), (3, 5)]


@pytest.mark.parametrize("tabulated", [False, True], ids=["exact", "tabulated"])
def test_a_min_separation_whose_square_underflows(tabulated):
    # min_sep^2 = 0: the pairs j <= i still get a placeholder with a finite
    # log, so the lookup casts no -inf (a RuntimeWarning, an error here),
    # and a coincident pair is still clamped to no force (it once gave NaN)
    cfg = SimConfig(potential=Morse(2.0, 1.0, 0.5, 1.0), dimension=3, N=40,
                    min_separation=1e-170, tabulated_forces=tabulated)
    assert cfg.min_separation**2 == 0.0
    x = np.random.default_rng(3).normal(size=(40, 3))
    _assert_passes_equal_the_reference(x, cfg)
    x[7] = x[3]
    acc, energy = simulate._force_pass(x, _config_model(cfg), with_energy=True)
    assert np.all(np.isfinite(acc)) and np.isfinite(energy)


@pytest.mark.parametrize("n_part", [1, 31, 32, 33, 400, 600, 2000])
def test_pair_groups_equal_the_layout_of_a_triangle_per_block(n_part):
    # each block's pairs j <= i, in the layout of np.tril_indices per
    # block, down to the dtype
    groups = simulate._pair_groups(n_part, simulate._GROUP_ENTRIES)[0]
    covered = []
    for blocks, lower_pairs in groups:
        want = []
        for lo, hi, start, stop in blocks:
            width = n_part - lo
            rows, cols = np.tril_indices(hi - lo)
            want.append(start + rows * width + cols)
            covered.append((lo, hi, stop - start == (hi - lo) * width))
        want = np.concatenate(want)
        assert lower_pairs.dtype == want.dtype and np.array_equal(lower_pairs, want)
    edges = list(range(0, n_part, _BLOCK_ROWS))
    assert covered == [(lo, min(lo + _BLOCK_ROWS, n_part), True) for lo in edges]


# (N, group budget): five groups, the first block alone over the budget and
# two groups of two blocks; three groups, none over; four groups of single
# blocks, three of them over the budget
_GROUP_LAYOUTS = [(200, 6000), (150, 8000), (97, 1000)]


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(sorted(_KERNEL_CASES)),
    dim=st.sampled_from([2, 3]),
    tabulated=st.booleans(),
    layout=st.sampled_from(_GROUP_LAYOUTS),
    seed=st.integers(0, 2**32 - 1),
)
def test_grouped_pair_pass_equals_the_first_written_kernel_bit_for_bit(case, dim, tabulated,
                                                                       layout, seed):
    # a small group budget makes the pass span several groups; a coincident
    # pair, a pair below min_sep and one below 0.5 min_sep are each owned by
    # a block of a different group
    n_part, budget = layout
    potential = _KERNEL_CASES[case]
    if isinstance(potential, QuasiMorse):
        dim = potential.params.n
    cfg = SimConfig(potential=potential, dimension=dim, N=n_part, tabulated_forces=tabulated)
    groups = simulate._pair_groups(n_part, budget)[0]
    assert len(groups) >= 3
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n_part, dim))
    # the rows i < N - 1 of each group, which can own a pair (i, j > i)
    owners = [range(blocks[0][0], min(blocks[-1][1], n_part - 1)) for blocks, _ in groups]
    used = set()
    for g, gap in zip(rng.permutation([g for g, rows in enumerate(owners) if rows])[:3],
                      (0.0, 0.7, 0.3)):
        # a row with a free row above it, for b
        top = max(j for j in range(n_part) if j not in used)
        a = int(rng.choice([i for i in owners[g] if i not in used and i < top]))
        b = int(rng.choice([j for j in range(a + 1, n_part) if j not in used]))
        used |= {a, b}
        direc = rng.normal(size=dim)
        x[b] = x[a] + gap * cfg.min_separation * direc / np.linalg.norm(direc)
    with mock.patch.object(simulate, "_GROUP_ENTRIES", budget):
        _assert_passes_equal_the_reference(x, cfg)


# the pairs a pass may hold, by their distance over min_separation, and
# one farther than _R_MAX / 2, which the table clip reaches
_GATE_PAIRS = {"coincident": 0.0, "below_table": 0.3, "clamped": 0.7, "far": None}


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(sorted(_KERNEL_CASES)),
    dim=st.sampled_from([2, 3]),
    tabulated=st.booleans(),
    layout=st.sampled_from([(3, None), (_BLOCK_ROWS + 1, None), (77, None), *_GROUP_LAYOUTS]),
    planted=st.sets(st.sampled_from(sorted(_GATE_PAIRS))),
    far=st.floats(0.51 * _R_MAX, 3.0 * _R_MAX),
    seed=st.integers(0, 2**32 - 1),
)
def test_gated_pair_pass_equals_the_first_written_kernel_bit_for_bit(case, dim, tabulated,
                                                                     layout, planted, far,
                                                                     seed):
    # the clamp search runs only when a group holds a pair closer than
    # min_sep, and the table clip only then or when it holds one farther
    # than _R_MAX / 2; every pass, forces, energy or both, keeps the
    # ungated kernel's bits, also where a small group budget lets some
    # groups take the gate's fast path and others not
    n_part, budget = layout
    potential = _KERNEL_CASES[case]
    if isinstance(potential, QuasiMorse):
        dim = potential.params.n
    cfg = SimConfig(potential=potential, dimension=dim, N=n_part, tabulated_forces=tabulated)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n_part, dim))
    order = rng.permutation(n_part)
    # as many of the planted pairs as N has room for
    pairs = dict(zip(sorted(planted), zip(order[0::2], order[1::2])))
    for name, (a, b) in pairs.items():
        direc = rng.normal(size=dim)
        gap = far if name == "far" else _GATE_PAIRS[name] * cfg.min_separation
        x[b] = x[a] + gap * direc / np.linalg.norm(direc)
    model = _config_model(cfg)
    acc_ref, energy_ref = _reference_pass(x, model)
    with mock.patch.object(np, "clip", wraps=np.clip) as clip, \
            mock.patch.object(np, "flatnonzero", wraps=np.flatnonzero) as search, \
            mock.patch.object(simulate, "_GROUP_ENTRIES", budget or simulate._GROUP_ENTRIES):
        acc = _accelerations(x, model)
        energy = interaction_energy(ParticleState(positions=x, velocities=None), cfg)
        fused = simulate._force_pass(x, model, with_energy=True)
    assert np.array_equal(acc, acc_ref) and energy == energy_ref
    assert np.array_equal(fused[0], acc_ref) and fused[1] == energy_ref
    # the branches the gate took
    close = any(name != "far" for name in pairs)
    assert (search.call_count > 0) == close
    assert (clip.call_count > 0) == (tabulated and (close or "far" in pairs))


def test_a_nan_distance_takes_the_clamp_search_and_the_clip():
    # NaN fails the gate's comparisons, so it takes the ungated path
    model = _cached_model(POT, 1e-6 * 0.8, True)
    d2 = [math.nan, 1.0, 4.0]
    with mock.patch.object(np, "clip", wraps=np.clip) as clip, \
            mock.patch.object(np, "flatnonzero", wraps=np.flatnonzero) as search, \
            np.errstate(invalid="ignore"):
        w, clamped, u = _terms(model, d2, with_energy=True)
    assert clip.call_count == search.call_count == 1
    assert clamped.size == 0 and np.isnan(w[0]) and np.isnan(u[0])
    w_ref, _, u_ref = _terms(model, d2[1:], with_energy=True)
    assert np.array_equal(w[1:], w_ref) and np.array_equal(u[1:], u_ref)


_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1.0, -1.5, 3.0e10, 1e308, -1e308,
             math.inf, -math.inf, math.nan]


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.one_of(st.sampled_from(_EXTREMES), st.floats()), min_size=1,
               max_size=_BLOCK_ROWS + 1),
    b=st.lists(st.one_of(st.sampled_from(_EXTREMES), st.floats()), min_size=1, max_size=40),
)
def test_k2_product_forms_the_differences_bit_for_bit(a, b):
    # the pair kernel forms x_i - x_j as [x_i, 1] @ [1, -x_j]: x_i * 1 and
    # 1 * (-x_j) are exact, so a BLAS that rounds the sum once gives the
    # subtraction's bits; only the sign of a zero may differ, which the
    # squares the kernel takes do not see
    a, b = np.array(a), np.array(b)
    with np.errstate(all="ignore"):
        got = np.stack([a, np.ones_like(a)], axis=1) @ np.stack([np.ones_like(b), -b])
        ref = np.subtract.outer(a, b)
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    zero = ref == 0.0
    assert np.all(got[zero] == 0.0)
    same_bits = got.view(np.int64) == ref.view(np.int64)
    assert np.all(same_bits | nan | zero)


# ------------------------------------------------ one force pass per step


_FORCES, _FUSED, _ENERGY = (True, False), (True, True), (False, True)


def _count_passes(monkeypatch):
    """The (with_forces, with_energy) kinds of the ``_force_pass`` calls."""
    passes = []
    force_pass = simulate._force_pass

    def counted(x, model, with_energy=False, with_forces=True):
        passes.append((with_forces, with_energy))
        return force_pass(x, model, with_energy, with_forces)

    monkeypatch.setattr(simulate, "_force_pass", counted)
    return passes


def _public_step_records(config, steps_run):
    """(state, records) of ``steps_run`` public steps from the initial state,
    recorded as ``run`` records them, with ``interaction_energy``."""
    step = step_second_order if config.model == "second" else step_first_order
    state = initial_state(config)
    records = []
    for i in range(steps_run):
        prev = state.positions
        state = step(state, config)
        if i % config.record_stride == 0 or i == config.steps - 1:
            rec = {
                "step": i,
                "time": state.time,
                "max_displacement": float(np.max(np.linalg.norm(state.positions - prev, axis=1))),
                "com": [float(c) for c in state.positions.mean(axis=0)],
                "interaction_energy": interaction_energy(state, config),
            }
            if state.velocities is not None:
                rec["mean_speed"] = float(np.linalg.norm(state.velocities, axis=1).mean())
            records.append(rec)
    return state, records


def test_second_order_run_equals_fresh_steps_bit_for_bit(monkeypatch):
    cfg = SimConfig(potential=POT, dimension=3, N=_BLOCK_ROWS + 45, dt=0.05, steps=10,
                    model="second", seed=21, record_stride=3)
    passes = _count_passes(monkeypatch)
    final, summary = run(cfg)
    # one pass per step, plus the first; a record step's pass is fused and
    # gives its energy, so no energy-only pass is made
    assert len(passes) == cfg.steps + 1
    assert passes.count(_FUSED) == len(summary.records) == 4
    assert _ENERGY not in passes
    # repeated calls of the public step, each from a fresh pass, give the
    # same bits, and every record's energy is interaction_energy's there
    monkeypatch.undo()
    state, records = _public_step_records(cfg, cfg.steps)
    assert np.array_equal(state.positions, final.positions)
    assert np.array_equal(state.velocities, final.velocities)
    assert summary.records == records


@pytest.mark.parametrize("model", ["first", "second"])
@pytest.mark.parametrize("steps, stride, stop", [
    (0, 1, False), (1, 1, False), (1, 7, False), (5, 1, False), (5, 7, False), (5, 2, True),
])
def test_run_equals_a_loop_of_public_steps_bit_for_bit(model, steps, stride, stop):
    # with stop, every step is quiet against the tolerance r_ref, so the run
    # converges and stops after its second step
    cfg = SimConfig(potential=POT, dimension=3, N=_BLOCK_ROWS + 45, dt=0.05, steps=steps,
                    model=model, seed=21, record_stride=stride, convergence_tol=1.0,
                    convergence_window=2, stop_when_converged=stop)
    final, summary = run(cfg)
    assert summary.steps_run == (2 if stop else steps)
    state, records = _public_step_records(cfg, summary.steps_run)
    assert np.array_equal(final.positions, state.positions)
    assert model == "first" or np.array_equal(final.velocities, state.velocities)
    assert final.time == state.time
    assert summary.records == records


def test_first_order_run_takes_record_energies_in_the_next_force_pass(monkeypatch):
    # steps 0 and 3 are recorded: step 1 starts from the pass of step 0's
    # record, and the last record is an energy-only pass
    cfg = SimConfig(potential=POT, dimension=3, N=_BLOCK_ROWS + 45, dt=0.05, steps=4,
                    seed=21, record_stride=100)
    passes = _count_passes(monkeypatch)
    final, summary = run(cfg)
    assert [passes.count(kind) for kind in (_FORCES, _FUSED, _ENERGY)] == [3, 1, 1]
    # every step taken from scratch, every energy in its own pass
    monkeypatch.undo()
    state, records = _public_step_records(cfg, cfg.steps)
    assert np.array_equal(final.positions, state.positions)
    assert summary.records == records
