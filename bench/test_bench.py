"""Each correctness gate fires on a corrupted output, a run records the
failure instead of crashing, and the traced run reports every per-layer
metric BENCHMARK.json names."""

import json
from pathlib import Path

import numpy as np
import pytest

import flockdyn
from flockdyn import simulate

import gates
import worker
import workloads
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent


def _rewrite_json(path, edit):
    doc = json.loads(Path(path).read_text())
    edit(doc)
    Path(path).write_text(json.dumps(doc))


def _small_pipeline(tmp_path):
    wl = workloads.ProfilePipeline(3, tmp_path, resolution=6, draws_2d=2, draws_3d=2,
                                   verify_draws=1, grid=8)
    runner = workloads.Runner()
    wl.setup(runner)
    return wl, runner


def _small_swarm(tmp_path):
    wl = workloads.SwarmSecond(3, tmp_path, n_part=40, steps=3)
    runner = workloads.Runner()
    wl.setup(runner)
    return wl, runner


def test_clean_small_runs_pass(tmp_path):
    for wl, runner in (_small_pipeline(tmp_path / "p"), _small_swarm(tmp_path / "s")):
        results = wl.setup_results + runner.cycles(wl, count=1)[0]
        assert all(r.ok for r in results), [r.problems for r in results]
        assert all(not workloads.checked(check) for _, check in wl.run_checks())


def test_perturbed_r_star_fails_solve_gate_and_verify(tmp_path):
    wl, runner = _small_pipeline(tmp_path)
    ref = wl.path("ref2d.json")
    assert gates.check_solve(ref, wl.path("ref2d.csv")) == []
    _rewrite_json(ref, lambda d: d["profile"].update(R_star=d["profile"]["R_star"] * 1.01))
    assert any("mass" in p for p in gates.check_solve(ref, wl.path("ref2d.csv")))
    results = runner.cycles(wl, count=1)[0]
    failed = [r for r in results if not r.ok]
    # only the verify of the corrupted profile fails; every command still ran
    assert len(results) == 2 + 4 + 3
    assert [r.kind for r in failed] == ["verify"]
    assert "exit 3" in failed[0].problems[0]


def test_missing_profile_key_is_counted_not_raised(tmp_path):
    wl, runner = _small_pipeline(tmp_path)
    _rewrite_json(wl.path("ref3d.json"), lambda d: d["profile"].pop("mu1"))
    results = runner.cycles(wl, count=1)[0]
    assert [r.kind for r in results if not r.ok] == ["verify"]


def test_truncated_checkpoint_fails_simulate_and_checks(tmp_path):
    wl, runner = _small_swarm(tmp_path)
    init_csv = Path(wl.swarms[0].config.init.path + ".csv")
    lines = init_csv.read_text().splitlines(keepends=True)
    init_csv.write_text("".join(lines[: len(lines) // 2]))
    results = runner.cycles(wl, count=1)[0]
    assert [r.ok for r in results] == [False, False]  # simulate, then compare
    problems = [workloads.checked(check) for _, check in wl.run_checks()]
    assert all(problems)


def test_phase_gate_flags_a_flipped_sign(tmp_path):
    out = tmp_path / "phase.csv"
    assert flockdyn.cli.main(["phase", "-n", "3", "--resolution", "5", "-o", str(out)]) == 0
    assert gates.check_phase(out, 3, 1.0, 5) == []
    lines = out.read_text().splitlines(keepends=True)
    row = lines[4].split(",")
    row[3] = "negative" if row[3] == "positive" else "positive"
    lines[4] = ",".join(row)
    out.write_text("".join(lines))
    assert gates.check_phase(out, 3, 1.0, 5)
    out.write_text("".join(lines[:-1]))
    assert any("rows" in p for p in gates.check_phase(out, 3, 1.0, 5))


def test_verify_and_compare_gates_apply_the_tolerances(tmp_path):
    wl, runner = _small_pipeline(tmp_path)
    results = runner.cycles(wl, count=1)[0]
    assert all(r.ok for r in results)
    report, profile = wl.path("ref3d.verify.json"), wl.path("ref3d.json")
    _rewrite_json(report, lambda d: d["report"].update(sup_dev_quad=1e-3))
    assert any("sup_dev_quad" in p for p in gates.check_verify(report, profile, 8))
    cmp_path = tmp_path / "cmp.json"
    cmp_path.write_text(json.dumps({"l1_error": 2.5, "support_error": 0.1,
                                    "histogram": {"density": [0.1, -0.2]}}))
    assert len(gates.check_compare(cmp_path)) == 2


def test_state_gate_flags_nan_and_drift(tmp_path):
    x = np.random.default_rng(0).normal(size=(10, 3))
    cfg = simulate.SimConfig(potential=flockdyn.QuasiMorse(workloads.REF3D), dimension=3, N=10)
    prefix = str(tmp_path / "s")
    simulate.save_checkpoint(simulate.ParticleState(x, None), cfg, prefix)
    assert gates.check_state(prefix, 10, 3, x.mean(axis=0), 5) == []
    assert any("centre" in p for p in gates.check_state(prefix, 10, 3, x.mean(axis=0) + 1e-9, 5))
    x[3, 1] = np.nan
    simulate.save_checkpoint(simulate.ParticleState(x, None), cfg, prefix)
    assert any("non-finite" in p for p in gates.check_state(prefix, 10, 3))


@pytest.mark.parametrize("model", ["first", "second"])
def test_acceleration_gate_flags_wrong_forces(monkeypatch, model):
    x = np.random.default_rng(1).uniform(-0.5, 0.5, size=(60, 3))
    cfg = simulate.SimConfig(potential=flockdyn.QuasiMorse(workloads.REF3D), dimension=3,
                             N=60, dt=0.02, model=model)
    subset = np.arange(0, 60, 7)
    assert gates.check_accelerations(cfg, x, subset) == []
    exact = simulate._accelerations
    monkeypatch.setattr(simulate, "_accelerations",
                        lambda pos, model: exact(pos, model) * (1.0 + 1e-4))
    assert gates.check_accelerations(cfg, x, subset)


def test_tracer_restores_bindings_and_accounts_for_time(tmp_path):
    original = flockdyn.cli.solve_profile
    tracer = Tracer()
    tracer.install(flockdyn)
    try:
        assert flockdyn.cli.solve_profile is not original  # re-imported name is wrapped
        assert flockdyn.simulate.potential_force_magnitude is flockdyn.potentials.potential_force_magnitude
        tracer.on = True
        assert flockdyn.cli.main(["solve", "-n", "3", "-C", "1.255", "-l", "0.8", "-k", "0.2",
                                  "-o", str(tmp_path / "p")]) == 0
        tracer.on = False
    finally:
        tracer.uninstall()
    assert flockdyn.cli.solve_profile is original
    m = layer_metrics(tracer)
    assert m["cli.commands"] == 1 and m["solver.solve_calls"] == 1
    roots = np.frombuffer(tracer.parent, dtype=np.int64) < 0
    root_time = float((np.frombuffer(tracer.end) - np.frombuffer(tracer.start))[roots].sum())
    assert m["trace.self_s_total"] == pytest.approx(root_time, rel=1e-9)
    out = tmp_path / "spans.jsonl"
    tracer.write_jsonl(out)
    assert len(out.read_text().splitlines()) == len(tracer)


def test_traced_run_reports_every_benchmark_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl, runner = _small_swarm(tmp_path)
    res = worker.measure(wl, runner, seconds=0.0, trace=1)
    measured = {**res["end_to_end"], **res["per_layer"]}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    # set-up times are measured by run.py, around the worker processes
    assert set(names) - {"setup_s", "raw.setup_s"} <= set(measured)
    assert res["failed"] == 0 and res["attempted"] > 0
