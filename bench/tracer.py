"""Span tracing from outside the program.

``Tracer.install`` replaces every public function of the traced modules,
at every module binding that holds it (so names re-imported by another
module, such as ``simulate.potential_force_magnitude`` or the ``cli``
imports, are traced too), with a wrapper that records one span per call:
name, parent span, start, end and the number of points the call evaluated.
Spans stay in compact arrays in memory until ``write_jsonl``.
``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array

import numpy as np

LAYERS = ("specfun", "potentials", "solver", "convolution", "simulate", "cli")


def _default_points(args):
    """(points, scalar) for f(first, x, ...): the size of the second
    positional argument, which is the evaluation point(s) for the specfun,
    potentials and density functions; 1 for anything else."""
    if len(args) > 1:
        x = args[1]
        if isinstance(x, np.ndarray):
            return x.size, x.ndim == 0
        if isinstance(x, (float, int, np.number)) and not isinstance(x, bool):
            return 1, True
    return 1, False


def _particles(args):
    return args[0].positions.shape[0], False


def _dimension(args):
    return args[0].n, False


# functions whose "points" field holds something other than _default_points
_POINTS = {
    "simulate.step_first_order": _particles,
    "simulate.step_second_order": _particles,
    "simulate.interaction_energy": _particles,
    "solver.solve_profile": _dimension,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self.scalar = array("b")
        self.on = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, qualname, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        extract = _POINTS.get(qualname, _default_points)
        parent, start, end = self.parent, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            sid = len(parent)
            pts, scalar = extract(args)
            parent.append(stack[-1] if stack else -1)
            self.name_id.append(name_id)
            self.points.append(pts)
            self.scalar.append(scalar)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = time.perf_counter()
                start[sid] = t0
                stack.pop()

        return traced

    def install(self, package):
        """Wrap the public functions of ``package``'s LAYERS modules at every
        binding in those modules and in the package namespace."""
        modules = [getattr(package, layer) for layer in LAYERS]
        prefix = package.__name__ + "."
        wrappers = {}
        for mod in modules:
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not obj.__name__.startswith("_")
                        and obj.__module__ == mod.__name__):
                    layer = mod.__name__[len(prefix):]
                    wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj)
        for mod in modules + [package]:
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def __len__(self):
        return len(self.parent)

    def span_names(self):
        return [self.names[i] for i in self.name_id]

    def write_jsonl(self, path):
        names = self.span_names()
        with open(path, "w") as fh:
            for i in range(len(self)):
                fh.write(json.dumps({
                    "id": i, "parent": self.parent[i], "name": names[i],
                    "start": self.start[i], "end": self.end[i],
                    "points": self.points[i], "scalar": bool(self.scalar[i]),
                }) + "\n")


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and times derived from the recorded spans.

    A layer's calls are its entry spans (parent in another layer or none);
    its self time sums span durations minus the durations of direct child
    spans.  Metrics of a layer the workload never called read 0.
    """
    n = len(tracer)
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    start = np.frombuffer(tracer.start, dtype=np.float64)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - start
    points = np.frombuffer(tracer.points, dtype=np.int64)
    scalar = np.frombuffer(tracer.scalar, dtype=np.int8).astype(bool)
    layer_of_name = np.array([LAYERS.index(q.split(".", 1)[0]) for q in tracer.names],
                             dtype=np.int64)
    layer = layer_of_name[name_id]
    has_parent = parent >= 0
    child_time = np.zeros(n)
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time
    entry = ~has_parent
    entry[has_parent] = layer[parent[has_parent]] != layer[has_parent]

    def idx(qualname):
        if qualname not in tracer.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(name_id == tracer.names.index(qualname))

    def total(*qualnames):
        return float(sum(dur[idx(q)].sum() for q in qualnames))

    def in_layer(name):
        return layer == LAYERS.index(name)

    out = {}
    for L in ("specfun", "potentials"):
        e = entry & in_layer(L)
        out[f"{L}.calls"] = int(e.sum())
        out[f"{L}.points"] = int(points[e].sum())
        out[f"{L}.self_s"] = float(self_time[in_layer(L)].sum())
    e = entry & in_layer("specfun")
    sc, vec = e & scalar, e & ~scalar
    out["specfun.scalar_calls"] = int(sc.sum())
    out["specfun.us_per_scalar_call"] = (
        1e6 * float(dur[sc].sum()) / int(sc.sum()) if sc.any() else 0.0)
    out["specfun.ns_per_vector_point"] = (
        1e9 * float(dur[vec].sum()) / int(points[vec].sum()) if vec.any() else 0.0)

    solves = idx("solver.solve_profile")
    out["solver.solve_calls"] = len(solves)
    for dim in (2, 3):
        out[f"solver.solve{dim}d_ms_p50"] = 1e3 * _pct(dur[solves[points[solves] == dim]], 50)
    dets = len(idx("solver.flock_determinant"))
    out["solver.det_calls"] = dets
    out["solver.det_calls_per_solve"] = dets / len(solves) if len(solves) else 0.0
    out["solver.self_s"] = float(self_time[in_layer("solver")].sum())

    out["convolution.verify_calls"] = len(idx("convolution.verify_flock"))
    out["convolution.closed_s"] = total("convolution.convolution_closed")
    out["convolution.quad_s"] = total("convolution.convolution_quadrature")
    # density evaluations inside the quadrature route are its integrand
    # points; spans are numbered in call order on one thread, so a span's
    # descendants are the ids after it that start before it ends
    under_quad = np.zeros(n + 1, dtype=np.int64)
    for q in idx("convolution.convolution_quadrature"):
        under_quad[q + 1] += 1
        under_quad[np.searchsorted(start, start[q] + dur[q], side="right")] -= 1
    under_quad = np.cumsum(under_quad)[:n] > 0
    dens = idx("solver.density_eval")
    out["convolution.quad_points"] = int(points[dens[under_quad[dens]]].sum())
    out["convolution.self_s"] = float(self_time[in_layer("convolution")].sum())

    steps1, steps2 = idx("simulate.step_first_order"), idx("simulate.step_second_order")
    steps = np.concatenate([steps1, steps2])
    npart = points[steps].astype(np.float64)
    forces_per_step = np.concatenate([np.ones(len(steps1)), np.full(len(steps2), 2.0)])
    pair_evals = int((npart * (npart - 1.0) * forces_per_step).sum())
    step_time = float(dur[steps].sum())
    out["simulate.steps"] = len(steps)
    out["simulate.pair_evals"] = pair_evals
    out["simulate.step_ms_p50"] = 1e3 * _pct(dur[steps], 50)
    out["simulate.step_ms_p90"] = 1e3 * _pct(dur[steps], 90) if len(steps) >= 100 else 0.0
    out["simulate.pairs_per_s"] = pair_evals / step_time if step_time else 0.0
    out["simulate.energy_s"] = total("simulate.interaction_energy")
    out["simulate.compare_s"] = total("simulate.compare_profile", "simulate.radial_histogram")
    out["simulate.checkpoint_s"] = total("simulate.save_checkpoint", "simulate.load_checkpoint")
    out["simulate.self_s"] = float(self_time[in_layer("simulate")].sum())

    out["cli.commands"] = len(idx("cli.main"))
    out["cli.self_s"] = float(self_time[in_layer("cli")].sum())
    out["trace.spans"] = n
    out["trace.self_s_total"] = float(self_time.sum())
    return out
