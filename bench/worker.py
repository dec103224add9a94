"""One benchmark process: set up a workload, signal READY, run the timed
phase (tracing off), the run-level checks and, with --trace 1, one traced
cycle; write everything measured to --result as JSON.

Started by run.py, which times the process from launch to READY as set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import flockdyn  # noqa: E402

if Path(flockdyn.__file__).resolve().parent != ROOT / "src" / "flockdyn":
    sys.exit(f"flockdyn imported from {flockdyn.__file__}, not from this checkout")

import envinfo  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

# speed probes each worker runs right after set-up, to scale its set-up time
# to the reference host speed
SETUP_PROBES = 9
# the rates each command kind contributes, named as in the report
RATES = {"phase": "phase_cells_per_s", "solve": "solves_per_s",
         "verify": "verify_points_per_s", "simulate": "particle_steps_per_s"}


def _cycle_wall(cycle):
    return sum(r.seconds for r in cycle)


def _typical_cycle_wall(cycles, field="seconds"):
    """Wall time of one cycle with each command at its median over the
    run's cycles, which are identical work: a burst of load on the host
    that slows one command of one cycle does not move it."""
    return sum(statistics.median(getattr(c[j], field) for c in cycles)
               for j in range(len(cycles[0])))


def _rates(cycles):
    """Work per second of each command kind, at reference host speed."""
    out = {}
    for kind, name in RATES.items():
        done = [r for c in cycles for r in c if r.kind == kind]
        seconds = sum(r.scaled for r in done)
        out[name] = sum(r.work for r in done) / seconds if seconds else 0.0
    return out


def measure(workload, runner, seconds, trace, trace_path=None):
    """Everything one run reports after set-up."""
    cycles = runner.cycles(workload, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    typical = _typical_cycle_wall(cycles)
    results = workload.setup_results + [r for c in cycles for r in c]
    problems = [p for r in results for p in r.problems]
    attempted, failed = len(results), sum(not r.ok for r in results)
    for name, check in workload.run_checks():
        found = workloads.checked(check)
        attempted += 1
        failed += bool(found)
        problems += found

    layers = {}
    if trace:
        tracer = Tracer()
        tracer.install(flockdyn)
        traced_runner = workloads.Runner(tracer)
        try:
            traced = traced_runner.cycles(workload, count=1)
        finally:
            tracer.uninstall()
        traced_wall = _cycle_wall(traced[0])
        layers = layer_metrics(tracer)
        layers["cli.failed"] = sum(not r.ok for r in traced[0])
        layers["trace.wall_s"] = traced_wall
        # against the last untraced cycle, the one nearest in time, so slow
        # drift of the host's speed between the two stays small
        layers["trace.overhead_frac"] = traced_wall / _cycle_wall(cycles[-1]) - 1.0
        layers["trace.unattributed_s"] = traced_wall - layers.pop("trace.self_s_total")
        attempted += len(traced[0])
        failed += layers["cli.failed"]
        problems += [p for r in traced[0] for p in r.problems]
        if trace_path is not None:
            tracer.write_jsonl(trace_path)

    readings = runner.readings
    layers.update(_rates(cycles))
    layers["failed_frac"] = failed / attempted
    layers["host.speed"] = workload.host_speed(runner.probes)
    layers["raw.wall_s"] = typical
    layers["simulate.l1_error"] = max(readings.get("l1_error", [0.0]))
    layers["convolution.quad_dev_rel_max"] = max(readings.get("quad_dev_rel", [0.0]))
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "cycles": len(cycles),
        "cycle_walls_s": [_cycle_wall(c) for c in cycles],
        "end_to_end": {
            "wall_s": _typical_cycle_wall(cycles, "scaled"),
            "peak_rss_mb": peak_rss_mb,
        },
        "per_layer": layers,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--result", default=None)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    runner = workloads.Runner()
    workload.setup(runner)
    print("READY", flush=True)
    print(f"SPEED {probes.setup_speed(SETUP_PROBES)!r}", flush=True)
    if args.setup_only:
        return 0
    t0 = time.perf_counter()
    out = measure(workload, runner, args.seconds, args.trace, args.trace_out)
    out["measure_s"] = time.perf_counter() - t0
    out["env"] = envinfo.record(ROOT, args.seed)
    with open(args.result, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
