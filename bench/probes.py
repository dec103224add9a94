"""Host-speed probes: fixed work that runs no program code.

The host a run shares can change speed by a large factor within minutes.
A probe run next to the commands times the same work every time, so its
median over a run tells how fast the host ran that kind of code then, and
no change to the program can move it.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

_PROBE_X = np.linspace(0.1, 10.0, 65536)
_PROBE_GRID = np.linspace(0.0, 12.0, 4096)
_PROBE_TABLE = np.exp(-_PROBE_GRID)
_PROBE_DOC = {f"k{i}": [0.5 * i, str(i), {"v": i}] for i in range(300)}
_PROBE_LOG_GRID = np.linspace(math.log(1e-7), math.log(1e4), 16384)
_PROBE_W = np.exp(-np.exp(_PROBE_LOG_GRID))


def _probe_simpson(f, a, b, fa, fm, fb, whole, depth):
    m = 0.5 * (a + b)
    flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth >= 10 or abs(left + right - whole) < 1e-10:
        return left + right
    return (_probe_simpson(f, a, m, fa, flm, fm, left, depth + 1)
            + _probe_simpson(f, m, b, fm, frm, fb, right, depth + 1))


def interpreter_probe():
    """An interpreter loop, array arithmetic, adaptive quadrature of an
    integrand made of small numpy calls, and a JSON round trip: the kind of
    work the analytic commands do."""
    acc = 0
    for i in range(50000):
        acc += i * i % 7
    for _ in range(4):
        np.sqrt(np.interp(1.1 * _PROBE_X, _PROBE_GRID, _PROBE_TABLE) + _PROBE_X)

    def f(s):
        return float(np.exp(-s) * np.sqrt(s + 1.0) * np.interp(s, _PROBE_GRID, _PROBE_TABLE))

    fa, fm, fb = f(0.0), f(2.5), f(5.0)
    _probe_simpson(f, 0.0, 5.0, fa, fm, fb, 5.0 / 6.0 * (fa + 4.0 * fm + fb), 0)
    json.loads(json.dumps(_PROBE_DOC, sort_keys=True))


def pair_probe(points):
    """One dense pair pass over a fixed point cloud: Gram distances, a
    log-grid table lookup and two reductions, the kind of work the swarm
    commands do."""
    x = points
    r2 = np.einsum("ik,ik->i", x, x)
    d2 = np.maximum(r2[:, None] + r2[None, :] - 2.0 * (x @ x.T), 1e-12)
    w = np.interp(0.5 * np.log(d2), _PROBE_LOG_GRID, _PROBE_W)
    w.sum(axis=1)[:, None] * x - w @ x


# median interpreter_probe() seconds on the host the baseline was measured on
INTERPRETER_REF_S = 0.015


def timed(probe, *args):
    """Seconds one probe call takes."""
    t0 = time.perf_counter()
    probe(*args)
    return time.perf_counter() - t0


def setup_speed(count):
    """Host speed for set-up, which is interpreter work in every workload:
    start-up, imports, solving and writing files."""
    return INTERPRETER_REF_S / statistics.median(timed(interpreter_probe) for _ in range(count))
