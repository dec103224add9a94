"""flockdyn benchmark: one seeded workload, measured end to end, or per
layer with --trace 1.

    python3 bench/run.py --workload profile_pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Set-up is timed several times, each in a fresh worker process from launch
to READY, and reported as the median.  The last worker also runs the timed
phase.  End-to-end times are scaled to a reference host speed measured by
probes (probes.py); the raw times are reported per layer.  Every metric
named in BENCHMARK.json is printed with its unit; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
# set-up is measured in this many worker processes, the last of which runs
# the workload
SETUP_SAMPLES = 5
# the whole run must end within this many seconds
DEADLINE_S = 170.0
# BLAS threads pinned in every worker: one, which no host's nproc is below
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")
# the headline figures, printed for a reader in every run even where
# BENCHMARK.json lists them as per-layer metrics
REPORTED = ("setup_s", "wall_s", "peak_rss_mb", "failed_frac", "phase_cells_per_s",
            "solves_per_s", "verify_points_per_s", "particle_steps_per_s")


class BenchError(Exception):
    pass


def _worker_env():
    return {**os.environ, **{name: "1" for name in BLAS_ENV}}


def _launch(argv, deadline):
    """Start a worker; return the process, the seconds from launch to READY
    and the host speed the worker measured right after."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=_worker_env(),
                            cwd=str(ROOT))
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    speed = proc.stdout.readline().split()
    if line.strip() != "READY" or len(speed) != 2 or speed[0] != "SPEED":
        _stop(proc, deadline)
        raise BenchError(f"worker did not reach READY (exit {proc.returncode})")
    return proc, ready, float(speed[1])


def _stop(proc, deadline):
    """Wait for a worker until the run's deadline, then kill it."""
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    finally:
        proc.stdout.close()
    return proc.returncode


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "flockdyn" / "__init__.py").is_file():
        raise BenchError(f"no flockdyn sources under {ROOT / 'src'}")
    tag = f"{workload}-seed{seed}-trace{trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{tag}.json"
    trace_path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []  # (seconds to READY, host speed) per worker
    try:
        for i in range(SETUP_SAMPLES - 1):
            proc, *setup = _launch(base + ["--workdir", str(work / f"setup{i}"), "--setup-only"],
                                   deadline)
            if _stop(proc, deadline) != 0:
                raise BenchError("set-up worker failed")
            setups.append(setup)
        proc, *setup = _launch(base + ["--workdir", str(work / "run"), "--seconds", str(seconds),
                                       "--trace", str(trace), "--trace-out", str(trace_path),
                                       "--result", str(result_path)], deadline)
        setups.append(setup)
        if _stop(proc, deadline) != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(result_path) as fh:
        res = json.load(fh)
    res["setup_samples_s"] = setups
    res["end_to_end"]["setup_s"] = statistics.median(
        ready * speed for ready, speed in setups)
    res["per_layer"]["raw.setup_s"] = statistics.median(ready for ready, _ in setups)
    with open(result_path, "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    return res


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = {w["name"] for w in spec["workloads"]}
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(names)}")
        res = run(args.workload, args.seed, args.seconds, args.trace)
        measured = {**res["end_to_end"], **res["per_layer"]}
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        metrics = {}
        for m in wanted:
            value = measured[m["name"]]
            if not math.isfinite(value):
                raise BenchError(f"{m['name']} is not finite: {value}")
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"flockdyn benchmark: workload {args.workload}, seed {args.seed}, "
          f"{res['cycles']} cycles, trace {args.trace}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    for name in REPORTED:
        print(f"  {name:<24} {measured[name]:<14.6g} {units[name]}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<36} {m['value']:<14.6g} {m['unit']}")
    for problem in res["problems"]:
        print(f"  FAILED {problem}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
