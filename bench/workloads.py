"""The benchmark's workloads and the closed loop that runs them.

Every workload is one caller issuing CLI commands through
``flockdyn.cli.main`` in sequence, each waiting for the previous one.  A
cycle is a fixed list of commands on inputs made from the seed; a run
repeats the same cycle, so cycles are identical work and their median
wall time is steady.  Each command's outputs are checked after it returns,
outside its timing.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import flockdyn
from flockdyn import cli, potentials, simulate

import gates
import probes

REF3D = potentials.ModelParams(3, 1.255, 0.8, 0.2)
REF2D = potentials.ModelParams(2, 10.0 / 9.0, 0.75, 0.5)
# particles in the fixed subset whose accelerations are checked against a
# direct sum
ACC_SUBSET = 16


@dataclass
class Command:
    kind: str
    argv: list
    work: int  # cells, solves, radii or particle steps the command does
    check: Callable[[], list] = lambda: []
    reading: Optional[tuple[str, Callable[[], float]]] = None


@dataclass
class Result:
    kind: str
    work: int
    seconds: float
    ok: bool
    problems: list = field(default_factory=list)
    # seconds at the reference host speed, from the probe run just before
    scaled: float = 0.0


def _model_flags(p):
    return ["-n", str(p.n), "-C", repr(p.C), "-l", repr(p.ell), "-k", repr(p.k)]


def reset_program_caches():
    """Clear the package's in-process memo tables so every command pays what
    a fresh ``flockdyn`` process pays (force tables, J1 zeros)."""
    for layer in ("specfun", "potentials", "solver", "convolution", "simulate", "cli"):
        for name, obj in vars(getattr(flockdyn, layer)).items():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
            elif name.endswith("_CACHE") and isinstance(obj, dict):
                obj.clear()


def checked(fn):
    """Run a check; an exception while reading outputs is a failed check."""
    try:
        return list(fn())
    except Exception as exc:  # a corrupt output must not stop the run
        return [f"check raised {type(exc).__name__}: {exc}"]


class Runner:
    """Runs commands, times them, checks their outputs and keeps readings."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.readings: dict[str, list[float]] = {}
        self.probes: list[float] = []

    def run(self, cmd: Command) -> Result:
        reset_program_caches()
        sink = io.StringIO()
        problems = []
        if self.tracer is not None:
            self.tracer.on = True
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(cmd.argv)
        except Exception:  # the program escaped its own error handling
            rc = None
            problems.append("uncaught: " + traceback.format_exc(limit=2).strip().splitlines()[-1])
        seconds = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.on = False
        if rc != 0:
            problems.append(f"{cmd.kind}: exit {rc}: {sink.getvalue().strip()[-300:]}")
        else:
            problems += checked(cmd.check)
            if cmd.reading is not None:
                key, fn = cmd.reading
                try:
                    self.readings.setdefault(key, []).append(float(fn()))
                except Exception as exc:
                    problems.append(f"reading {key} raised {type(exc).__name__}: {exc}")
        return Result(cmd.kind, cmd.work, seconds, not problems, problems)

    def cycles(self, workload, seconds=None, count=None):
        """Repeat the workload's cycle ``count`` times, or until ``seconds``
        would be overrun by more than half a cycle (at the mean so far).
        A speed probe runs before every command and scales its time."""
        out = []
        t_begin = time.perf_counter()
        while True:
            cycle = []
            for cmd in workload.cycle():
                probe = workload.probe()
                self.probes.append(probe)
                result = self.run(cmd)
                result.scaled = result.seconds * workload.probe_ref_s / probe
                cycle.append(result)
            out.append(cycle)
            elapsed = time.perf_counter() - t_begin
            if count is not None:
                if len(out) >= count:
                    return out
            elif elapsed + 0.5 * elapsed / len(out) > seconds:
                return out


class Workload:
    name = ""
    # median probe() seconds on the host the baseline was measured on;
    # times reported at reference speed are scaled by it over the run's
    # median probe
    probe_ref_s = probes.INTERPRETER_REF_S

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.setup_results: list[Result] = []

    def probe(self):
        return probes.timed(probes.interpreter_probe)

    def host_speed(self, samples):
        """Reference probe time over the median of ``samples``: 1 at the
        reference speed, below 1 on a slower host."""
        return self.probe_ref_s / statistics.median(samples)

    def path(self, name):
        return str(self.dir / name)

    def _solve_ref(self, runner, params, prefix):
        cmd = Command("solve", ["solve", *_model_flags(params), "-o", self.path(prefix)], 1,
                      lambda: gates.check_solve(self.path(prefix + ".json"),
                                                self.path(prefix + ".csv")))
        self.setup_results.append(runner.run(cmd))

    def setup(self, runner):
        raise NotImplementedError

    def cycle(self) -> list:
        raise NotImplementedError

    def run_checks(self) -> list:
        """(name, check) pairs run once per run, after the timed phase."""
        return []


def region_i_draws(rng, n, count):
    """Latin-hypercube draws with the acceptance suite's marginals:
    C ~ U(1.05, 6), ell uniform inside the region-I interval with a 3%
    margin, k ~ U(0.05, 2).  Each draw has those marginals; the stratified
    design keeps the total solve cost of a run nearly seed-independent."""
    u = (np.array([rng.permutation(count) for _ in range(3)]).T
         + rng.uniform(size=(count, 3))) / count
    draws = []
    for uc, ul, uk in u:
        C = 1.05 + 4.95 * uc
        lo, hi = (C**-1.0, C ** (-1.0 / 3.0)) if n == 3 else (0.05, C**-0.5)
        ell = lo + 0.03 * (hi - lo) + ul * 0.94 * (hi - lo)
        draws.append(potentials.ModelParams(n, float(C), float(ell), float(0.05 + 1.95 * uk)))
    return draws


class ProfilePipeline(Workload):
    """phase, solve and verify: the analytic layers, no particles."""

    name = "profile_pipeline"

    def __init__(self, seed, workdir, resolution=256, draws_2d=8, draws_3d=8,
                 verify_draws=2, grid=256):
        super().__init__(seed, workdir)
        self.resolution, self.grid, self.verify_draws = resolution, grid, verify_draws
        rng = np.random.default_rng(seed)
        self.draws = region_i_draws(rng, 2, draws_2d) + region_i_draws(rng, 3, draws_3d)

    def setup(self, runner):
        self._solve_ref(runner, REF3D, "ref3d")
        self._solve_ref(runner, REF2D, "ref2d")

    def cycle(self):
        cmds = []
        for n in (2, 3):
            out = self.path(f"phase{n}.csv")
            cmds.append(Command(
                "phase", ["phase", "-n", str(n), "--resolution", str(self.resolution), "-o", out],
                self.resolution**2,
                lambda out=out, n=n: gates.check_phase(out, n, 1.0, self.resolution)))
        for i, p in enumerate(self.draws):
            prefix = self.path(f"draw{i}")
            cmds.append(Command(
                "solve", ["solve", *_model_flags(p), "-o", prefix], 1,
                lambda prefix=prefix: gates.check_solve(prefix + ".json", prefix + ".csv")))
        # 3-D draws only: one 2-D verify costs 2-6 s depending on the draw,
        # which would dominate the seed-to-seed spread of the run
        verified = ["ref3d", "ref2d"] + [
            f"draw{i}" for i, p in enumerate(self.draws) if p.n == 3][: self.verify_draws]
        for name in verified:
            profile, report = self.path(name + ".json"), self.path(name + ".verify.json")
            cmds.append(Command(
                "verify", ["verify", "--profile", profile, "--grid", str(self.grid), "-o", report],
                self.grid,
                lambda profile=profile, report=report: gates.check_verify(report, profile, self.grid),
                ("quad_dev_rel", lambda profile=profile, report=report:
                    gates.quad_dev_rel(report, profile))))
        return cmds


@dataclass
class _Swarm:
    tag: str
    argv: list
    config: simulate.SimConfig
    profile: Optional[str]  # profile JSON to compare the final state with


class _SwarmWorkload(Workload):
    probe_points = 0  # size of the fixed cloud the pair probe runs on

    def __init__(self, seed, workdir, n_part, steps):
        super().__init__(seed, workdir)
        self.n_part, self.steps = n_part, steps
        self._cloud = np.random.default_rng(0).normal(size=(self.probe_points, 3))

    def probe(self):
        return probes.timed(probes.pair_probe, self._cloud)

    def _swarm(self, tag, potential, flags, dt, model="first", ref=None, ball=None):
        """A simulate command starting either from positions sampled from
        the solved profile ``ref`` or from a seeded uniform ball."""
        if ref is not None:
            init = simulate.FromFile(self.path(ref + "_init"))
            init_flag = f"file:{init.path}"
        else:
            init = simulate.UniformBall(ball)
            init_flag = f"ball:{ball!r}"
        dim = int(flags[flags.index("-n") + 1])
        config = simulate.SimConfig(potential=potential, dimension=dim, N=self.n_part, dt=dt,
                                    steps=self.steps, model=model, seed=self.seed, init=init)
        if ref is not None:
            profile = gates.load_profile(self.path(ref + ".json"))
            x = simulate.sample_profile_positions(profile, self.n_part, seed=self.seed)
            simulate.save_checkpoint(simulate.ParticleState(x, None), config, init.path)
        argv = ["simulate", *flags, "-N", str(self.n_part), "--dt", repr(dt),
                "--steps", str(self.steps), "--model", model, "--seed", str(self.seed),
                "--init", init_flag, "-o", self.path(f"{tag}_state")]
        return _Swarm(tag, argv, config, self.path(ref + ".json") if ref else None)

    def _initial_positions(self, sw):
        init = sw.config.init
        if isinstance(init, simulate.FromFile):
            return gates.read_positions(init.path, sw.config.N, sw.config.dimension)
        return simulate.initial_state(sw.config).positions

    def _finish_setup(self):
        self.com0 = {sw.tag: self._initial_positions(sw).mean(axis=0)
                     for sw in self.swarms if sw.config.model == "first"}

    def cycle(self):
        cmds = []
        for sw in self.swarms:
            out = self.path(f"{sw.tag}_state")
            cmds.append(Command(
                "simulate", sw.argv, sw.config.N * sw.config.steps,
                lambda out=out, sw=sw: gates.check_state(
                    out, sw.config.N, sw.config.dimension, self.com0.get(sw.tag),
                    sw.config.steps)))
            if sw.profile is not None:
                report = self.path(f"{sw.tag}_compare.json")
                cmds.append(Command(
                    "compare", ["compare", "--state", out, "--profile", sw.profile,
                                "--bins", "8", "-o", report], 1,
                    lambda report=report: gates.check_compare(report),
                    ("l1_error", lambda report=report: gates.json_value(report, "l1_error"))))
        return cmds

    def run_checks(self):
        def check(sw):
            x = self._initial_positions(sw)
            subset = np.linspace(0, len(x) - 1, min(ACC_SUBSET, len(x))).astype(int)
            return gates.check_accelerations(sw.config, x, subset)

        return [(f"accelerations:{sw.tag}", lambda sw=sw: check(sw)) for sw in self.swarms]


class SwarmFirst(_SwarmWorkload):
    """First-order runs through all three force-model branches, then compare."""

    name = "swarm_first"
    probe_points = 700
    probe_ref_s = 0.06

    def __init__(self, seed, workdir, n_part=2000, steps=4):
        super().__init__(seed, workdir, n_part, steps)

    def setup(self, runner):
        self._solve_ref(runner, REF3D, "ref3d")
        self._solve_ref(runner, REF2D, "ref2d")
        morse_like = ["--potential", "morse_like", "-n", "2", "--p", "0.5", "-C", "0.6",
                      "-l", "0.2"]
        self.swarms = [
            self._swarm("qm3d", potentials.QuasiMorse(REF3D), _model_flags(REF3D), 1.0,
                        ref="ref3d"),
            self._swarm("qm2d", potentials.QuasiMorse(REF2D), _model_flags(REF2D), 0.5,
                        ref="ref2d"),
            self._swarm("morse_like", potentials.MorseLike(0.5, 0.6, 0.2), morse_like, 0.005,
                        ball=0.1),
        ]
        self._finish_setup()


class SwarmSecond(_SwarmWorkload):
    """Second-order (self-propelled) run at small N, then compare."""

    name = "swarm_second"
    probe_points = 400
    probe_ref_s = 0.02

    def __init__(self, seed, workdir, n_part=400, steps=100):
        super().__init__(seed, workdir, n_part, steps)

    def setup(self, runner):
        self._solve_ref(runner, REF3D, "ref3d")
        self.swarms = [self._swarm("qm3d_second", potentials.QuasiMorse(REF3D),
                                   _model_flags(REF3D), 0.02, model="second", ref="ref3d")]
        self._finish_setup()


WORKLOADS = {w.name: w for w in (ProfilePipeline, SwarmFirst, SwarmSecond)}
