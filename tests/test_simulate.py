"""Particle-model tests: stepping invariants, determinism, histograms, and
profile comparison, at desk-scale particle counts."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flockdyn import simulate
from flockdyn.errors import DomainError, NumericalBlowupError
from flockdyn.potentials import (
    ModelParams,
    Morse,
    MorseLike,
    QuasiMorse,
    minimum_radius,
    potential_force_magnitude,
    potential_value,
)
from flockdyn.simulate import (
    _BLOCK_ROWS,
    _TABLE_SIZE,
    FromFile,
    Gaussian,
    ParticleState,
    SimConfig,
    UniformBall,
    _accelerations,
    _cached_model,
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
from flockdyn.solver import density_eval, solve_profile

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
    # doubling N should roughly quadruple the per-step force time; the
    # measurement is retried to ride out scheduler noise
    def per_step(n):
        cfg = SimConfig(potential=POT, dimension=3, N=n, dt=0.01, steps=1, seed=0)
        state = initial_state(cfg)
        state = step_first_order(state, cfg)  # warm the cached model
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(4):
                step_first_order(state, cfg)
            best = min(best, (time.perf_counter() - t0) / 4)
        return best

    for _ in range(3):
        ratio = per_step(800) / per_step(400)
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


def test_tabulated_forces_match_exact_forces_closely():
    model_tab = _cached_model(POT, 1e-6 * 0.8, True)
    model_exact = _cached_model(POT, 1e-6 * 0.8, False)
    r = np.geomspace(2e-6, 50.0, 500)
    tab = model_tab.force(r)
    exact = model_exact.force(r)
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
    force_scale = np.max(np.abs(force))
    assert np.max(np.abs(model.force(r) - force)) <= 1e-6 * force_scale
    assert np.max(np.abs(model.force_over_dist_sq(r * r) * r - force)) <= 1e-6 * force_scale
    assert (np.max(np.abs(model.value_from_dist_sq(r * r) - value))
            <= 1e-6 * np.max(np.abs(value)))


def test_table_lookup_reproduces_interp_endpoints_and_interior():
    # the tables as np.interp read them: nodes uniform in log r over
    # [0.5 min_sep, r_max], clamped at min_sep
    min_sep = 1e-6 * 0.8
    model = _cached_model(POT, min_sep, True)
    logs = np.linspace(math.log(0.5 * min_sep), math.log(model.r_max), _TABLE_SIZE)
    grid = np.exp(logs)
    force_tab = potential_force_magnitude(POT, np.maximum(grid, min_sep))
    value_tab = potential_value(POT, np.maximum(grid, min_sep))
    w_tab = force_tab / grid

    def interp(tab, log_r):
        return np.interp(log_r, logs, tab)

    beyond = np.array([1.0001, 2.0, 1e3]) * model.r_max
    below = np.array([1e-3, 0.25, 0.4999]) * min_sep
    d2 = np.concatenate([[0.0], below**2, beyond**2])
    with np.errstate(divide="ignore"):
        half_log = 0.5 * np.log(d2)
    expected_w = interp(w_tab, half_log)
    w = model.force_over_dist_sq(d2)
    assert np.array_equal(w[4:], expected_w[4:]) and np.all(expected_w[4:] == w_tab[-1])
    # below the table, U'(r)/r is the clamp U'(min_sep)/d of the exact path,
    # and 0 at d = 0
    exact = _cached_model(POT, min_sep, False).force_over_dist_sq(d2[:4])
    assert w[0] == 0.0 and exact[0] == 0.0
    assert np.allclose(w[1:4], exact[1:4], rtol=1e-12, atol=0.0)
    assert np.allclose(w[1:4] * below, force_tab[0], rtol=1e-12, atol=0.0)
    assert np.array_equal(model.value_from_dist_sq(d2), interp(value_tab, half_log))
    assert np.array_equal(model.force(beyond), np.full(3, force_tab[-1]))
    # force() clamps r at min_sep before the lookup, as it did before
    clamped = interp(force_tab, math.log(min_sep))
    assert np.allclose(model.force(below), clamped, rtol=1e-12, atol=0.0)

    r = np.geomspace(0.6 * min_sep, 0.9 * model.r_max, 4001)
    for got, tab, log_r in ((model.force(r), force_tab, np.log(np.maximum(r, min_sep))),
                            (model.force_over_dist_sq(r * r), w_tab, np.log(r)),
                            (model.value_from_dist_sq(r * r), value_tab, np.log(r))):
        ref = interp(tab, log_r)
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
    w = model.force_over_dist_sq(d2)
    own = -(w[..., None] * diff).sum(axis=1) / n_part
    magnitude = (np.abs(w) * np.sqrt(d2)).sum(axis=1) / n_part
    assert np.all(np.linalg.norm(acc - own, axis=1) <= 1e-9 * magnitude)


# ------------------------------------------------ one force pass per step


def _second_order_config(**kw):
    return SimConfig(potential=POT, dimension=3, N=_BLOCK_ROWS + 45, dt=0.05,
                     steps=10, model="second", seed=21, record_stride=3, **kw)


def _count_force_passes(monkeypatch):
    calls = []

    def counted(x, model):
        calls.append(x.shape[0])
        return _accelerations(x, model)

    monkeypatch.setattr(simulate, "_accelerations", counted)
    return calls


def _fresh_step(state, config):
    """step_second_order with its force memo emptied first."""
    simulate._FSAL_CACHE.clear()
    return step_second_order(state, config)


def test_second_order_run_equals_fresh_steps_bit_for_bit(monkeypatch):
    cfg = _second_order_config()
    calls = _count_force_passes(monkeypatch)
    simulate._FSAL_CACHE.clear()
    final, summary = run(cfg)
    assert len(calls) == cfg.steps + 1  # one pass per step, plus the first
    # every step re-evaluated from scratch gives the same bits
    original = simulate.step_second_order
    monkeypatch.setattr(simulate, "step_second_order", _fresh_step)
    fresh, fresh_summary = run(cfg)
    assert np.array_equal(final.positions, fresh.positions)
    assert np.array_equal(final.velocities, fresh.velocities)
    assert summary.records == fresh_summary.records
    # and so do repeated calls of the public step outside run
    monkeypatch.setattr(simulate, "step_second_order", original)
    state = initial_state(cfg)
    for _ in range(cfg.steps):
        state = step_second_order(state, cfg)
    assert np.array_equal(state.positions, final.positions)
    assert np.array_equal(state.velocities, final.velocities)


def test_second_order_memo_misses_after_an_in_place_edit(monkeypatch):
    cfg = _second_order_config()
    state = step_second_order(initial_state(cfg), cfg)
    state.positions[5] += 1e-3  # edits the array the memo was taken at
    calls = _count_force_passes(monkeypatch)
    out = step_second_order(state, cfg)
    assert len(calls) == 2
    expected = _fresh_step(state, cfg)
    assert np.array_equal(out.positions, expected.positions)
    assert np.array_equal(out.velocities, expected.velocities)


def test_second_order_memo_misses_for_another_model(monkeypatch):
    cfg = _second_order_config()
    other = _second_order_config(tabulated_forces=False)
    state = step_second_order(initial_state(cfg), cfg)
    calls = _count_force_passes(monkeypatch)
    out = step_second_order(state, other)  # same positions, another model
    assert len(calls) == 2
    expected = _fresh_step(state, other)
    assert np.array_equal(out.positions, expected.positions)
    assert np.array_equal(out.velocities, expected.velocities)


def test_first_order_step_never_reads_the_memo(monkeypatch):
    cfg = _second_order_config()
    first = SimConfig(potential=POT, dimension=3, N=cfg.N, dt=cfg.dt, seed=cfg.seed)
    state = step_second_order(initial_state(cfg), cfg)
    expected = step_first_order(state, first)
    # a poisoned memo at the very same positions and force model
    simulate._FSAL_CACHE["acc"] = np.full_like(state.positions, np.nan)
    calls = _count_force_passes(monkeypatch)
    out = step_first_order(state, first)
    assert len(calls) == 1
    assert np.array_equal(out.positions, expected.positions)
