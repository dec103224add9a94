"""Command-line surface: solve profiles, sweep phase diagrams, verify the
flock condition, enumerate determinant roots, evaluate radius asymptotics,
run particle simulations, and compare empirical histograms with analytic
profiles.  All outputs are CSV or JSON with a metadata header and are
byte-stable across runs (no timestamps).

Exit codes: 0 success, 2 regime/no-root, 3 numerical failure, 4 I/O,
5 bad arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import repeat, starmap

import numpy as np

from . import __version__
from .errors import (
    BracketFailureError,
    DegenerateDenominatorError,
    DomainError,
    FlockdynError,
    NoRootError,
    NumericalBlowupError,
    PositivityFailureError,
    QuadratureNonConvergenceError,
    RegimeError,
    VerificationFailureError,
)
from .potentials import (
    ModelParams,
    Morse,
    MorseLike,
    QuasiMorse,
    Region,
    Sign,
    phase_grid,
)
from .convolution import verify_flock
from .simulate import (
    FromFile,
    Gaussian,
    SimConfig,
    UniformBall,
    compare_profile,
    load_checkpoint,
    radial_histogram,
    run,
    save_checkpoint,
)
from .solver import (
    EllLimit,
    FlockProfile,
    asymptotic_radius,
    density_eval,
    enumerate_roots,
    find_support_radius,
    solve_profile,
)
from . import specfun

EXIT_OK = 0
EXIT_NO_ROOT = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4
EXIT_USAGE = 5

_NUMERICAL_ERRORS = (
    BracketFailureError,
    DegenerateDenominatorError,
    NumericalBlowupError,
    PositivityFailureError,
    QuadratureNonConvergenceError,
    VerificationFailureError,
    OverflowError,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; the contract here is 5."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _meta_lines(args_dict: dict) -> list[str]:
    cfg = json.dumps(args_dict, sort_keys=True)
    return [f"# flockdyn {__version__}", f"# config: {cfg}"]


def _cell_format(v) -> str:
    return "{:.17g}" if isinstance(v, float) else "{}"


def _csv_lines(rows):
    """The CSV lines of ``rows``.  Every column holds one type, so its
    format is chosen from the first row: 17 significant digits for a float,
    str otherwise."""
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return
    line = ",".join(map(_cell_format, first)) + "\n"
    yield line.format(*first)
    yield from starmap(line.format, rows)


def _write_csv(path: str, header: list[str], lines, meta: dict) -> None:
    """Write the metadata header, the column header and the already
    formatted ``lines`` as they are produced."""
    with open(path, "w") as fh:
        for line in _meta_lines(meta):
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _write_json(path: str, payload: dict, meta: dict) -> None:
    doc = {"meta": {"tool": "flockdyn", "version": __version__, "config": meta}}
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _model_params(args) -> ModelParams:
    return ModelParams(n=args.dimension, C=args.C, ell=args.ell, k=args.k)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-n", "--dimension", type=int, required=True, choices=(2, 3))
    p.add_argument("-C", type=float, required=True, help="repulsion strength")
    p.add_argument("-l", "--ell", type=float, required=True, help="repulsion length scale")
    p.add_argument("-k", type=float, required=True, help="decay rate")


def _cmd_solve(args) -> int:
    if args.grid < 2:
        raise _UsageError(f"--grid must be at least 2, got {args.grid}")
    params = _model_params(args)
    profile = solve_profile(
        params, root_index=args.root_index, allow_nonbiological=args.allow_nonbiological
    )
    meta = {"subcommand": "solve", **params.to_dict(), "grid": args.grid}
    _write_json(f"{args.output}.json", {"profile": profile.to_dict()}, meta)
    grid = np.linspace(0.0, profile.R_star, args.grid)
    rho = density_eval(profile, grid)
    _write_csv(
        f"{args.output}.csv",
        ["r", "rho"],
        _csv_lines(zip(grid.tolist(), rho.tolist())),
        meta,
    )
    print(
        f"solved: R* = {profile.R_star:.12g}, A = {profile.A:.12g}, "
        f"mu1 = {profile.mu1:.12g}, mu2 = {profile.mu2:.12g}, D = {profile.D:.12g}"
    )
    return EXIT_OK


#: the C rows of one block of the phase CSV, whose text is built and filled
#: at once.  Small blocks keep the transient strings small.  The size also
#: moves the process's peak RSS through the allocator: of 1, 4 and 16 rows,
#: 4 measured lowest in the benchmark's profile_pipeline
_PHASE_BLOCK_ROWS = 4

#: region and sign names by code; the code -1 of an invalid cell picks the last
_REGION_NAMES = [r.value for r in Region] + ["invalid"]
_SIGN_NAMES = [s.value for s in Sign] + ["invalid"]

#: the class columns of a phase cell and a slot for its A, by the code
#: ((region * 4 + a_sign) * 2 + biologically_relevant) * 2 + h_stable
_PHASE_CLASSES = tuple(
    f",{region},{sign},{bio},{h_stable},%.17g\n"
    for region in _REGION_NAMES
    for sign in _SIGN_NAMES
    for bio in (0, 1)
    for h_stable in (0, 1)
)


def _phase_lines(grid):
    """The grid's CSV text in blocks of C rows, C outer and ell inner.  Each
    C and ell is formatted once; every A of a block is filled by one ``%``."""
    ells = [f"{v:.17g}" for v in grid.ell.tolist()]
    # numpy's % takes the code -1 to the last name
    region = grid.region % len(_REGION_NAMES)
    sign = grid.a_sign % len(_SIGN_NAMES)
    code = (region * len(_SIGN_NAMES) + sign) * 2 + grid.biologically_relevant
    code = (code * 2 + grid.h_stable).tolist()
    for start in range(0, grid.C.size, _PHASE_BLOCK_ROWS):
        block = slice(start, start + _PHASE_BLOCK_ROWS)
        parts = []
        for c, row in zip(grid.C[block].tolist(), code[block]):
            # the C, ell and class strings of each cell in turn
            cells = [f"{c:.17g},"] * (3 * len(ells))
            cells[1::3] = ells
            cells[2::3] = map(_PHASE_CLASSES.__getitem__, row)
            parts += cells
        yield "".join(parts) % tuple(grid.A[block].ravel().tolist())


def _cmd_phase(args) -> int:
    if args.resolution < 1:
        raise _UsageError(f"--resolution must be at least 1, got {args.resolution}")
    window = {"--c-min": args.c_min, "--c-max": args.c_max,
              "--ell-min": args.ell_min, "--ell-max": args.ell_max}
    for flag, value in window.items():
        if not math.isfinite(value):
            raise _UsageError(f"{flag} must be finite, got {value}")
    grid = phase_grid(
        args.dimension,
        np.linspace(args.c_min, args.c_max, args.resolution),
        np.linspace(args.ell_min, args.ell_max, args.resolution),
        args.k,
    )
    meta = {
        "subcommand": "phase",
        "dimension": args.dimension,
        "k": args.k,
        "c_range": [args.c_min, args.c_max],
        "ell_range": [args.ell_min, args.ell_max],
        "resolution": args.resolution,
    }
    _write_csv(
        args.output,
        ["C", "ell", "region", "a_sign", "biologically_relevant", "h_stable", "A"],
        _phase_lines(grid),
        meta,
    )
    print(f"phase grid written: {grid.A.size} cells -> {args.output}")
    return EXIT_OK


def _read_profile(path: str) -> FlockProfile:
    """The profile of a ``solve`` JSON file, or of a bare profile object."""
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "profile" in doc:
        doc = doc["profile"]
    return FlockProfile.from_dict(doc)


def _cmd_verify(args) -> int:
    profile = _read_profile(args.profile)
    report = verify_flock(profile, grid_size=args.grid)
    meta = {"subcommand": "verify", "profile": args.profile, "grid": args.grid}
    if args.output:
        if args.format == "json":
            _write_json(f"{args.output}", {"report": report.to_dict()}, meta)
        else:
            rows = zip(report.r_grid.tolist(), report.closed_form.tolist(),
                       report.quadrature.tolist(), repeat(report.D))
            _write_csv(args.output, ["r", "closed", "quadrature", "D"], _csv_lines(rows), meta)
    print(
        f"verified: sup|closed-D| = {report.sup_dev_closed:.3e}, "
        f"sup|quad-D| = {report.sup_dev_quad:.3e}, cross = {report.cross_dev:.3e}"
    )
    return EXIT_OK


def _cmd_roots(args) -> int:
    params = _model_params(args)
    roots = enumerate_roots(
        params, args.count, allow_nonbiological=args.allow_nonbiological
    )
    _, bracket = find_support_radius(
        params, allow_nonbiological=args.allow_nonbiological
    )
    meta = {"subcommand": "roots", **params.to_dict(), "count": args.count}
    payload = {
        "roots": [{"R": r, "index": j} for r, j in roots],
        "first_bracket": {"lo": bracket.lo, "hi": bracket.hi},
    }
    _write_json(args.output, payload, meta)
    for r, j in roots:
        print(f"root {j}: R = {r:.12g}")
    return EXIT_OK


def _cmd_asymptotics(args) -> int:
    limit = EllLimit.UPPER if args.sweep_ell == "upper" else EllLimit.LOWER
    C, k, n = args.C, args.k, args.dimension
    if n == 3:
        ell_hi, ell_lo = C ** (-1.0 / 3.0), 1.0 / C
    else:
        ell_hi, ell_lo = C**-0.5, 1e-3
    rows = []
    deltas = [args.delta0 * args.ratio**-m for m in range(args.steps)]
    for d in deltas:
        if n == 3:
            ell = ell_hi * (1.0 - d) if limit is EllLimit.UPPER else ell_lo * (1.0 + d)
        else:
            ell = ell_hi * (1.0 - d) if limit is EllLimit.UPPER else d
        params = ModelParams(n=n, C=C, ell=ell, k=k)
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("ignore")
            r_formula = asymptotic_radius(params, limit)
        r_solver, _ = find_support_radius(params)
        rows.append((ell, r_formula, r_solver, abs(r_formula / r_solver - 1.0)))
    meta = {
        "subcommand": "asymptotics",
        "dimension": n,
        "C": C,
        "k": k,
        "sweep_ell": args.sweep_ell,
        "steps": args.steps,
    }
    _write_csv(args.output, ["ell", "R_formula", "R_solver", "rel_dev"], _csv_lines(rows), meta)
    for ell, rf, rs, dev in rows:
        print(f"ell = {ell:.10g}: formula {rf:.8g}, solver {rs:.8g}, dev {dev:.3e}")
    return EXIT_OK


def _potential_from_args(args):
    if args.potential == "quasi_morse":
        return QuasiMorse(
            ModelParams(n=args.dimension, C=args.C, ell=args.ell, k=args.k)
        )
    if args.potential == "morse":
        return Morse(C_R=args.C, C_A=args.CA, ell_R=args.ell, ell_A=args.la)
    return MorseLike(p=args.p, C=args.C, ell=args.ell)


def _cmd_simulate(args) -> int:
    potential = _potential_from_args(args)
    if args.init.startswith("ball:"):
        init = UniformBall(radius=float(args.init.split(":", 1)[1]))
    elif args.init.startswith("gauss:"):
        init = Gaussian(sigma=float(args.init.split(":", 1)[1]))
    elif args.init.startswith("file:"):
        init = FromFile(path=args.init.split(":", 1)[1])
    else:
        raise _UsageError(f"bad --init {args.init!r}; use ball:R, gauss:S or file:PATH")
    config = SimConfig(
        potential=potential,
        dimension=args.dimension,
        N=args.N,
        dt=args.dt,
        steps=args.steps,
        model=args.model,
        alpha=args.alpha,
        beta=args.beta,
        seed=args.seed,
        init=init,
        record_stride=args.stride,
        tabulated_forces=not args.exact_forces,
        stop_when_converged=args.stop_when_converged,
    )
    state, summary = run(config)
    csv_path, meta_path = save_checkpoint(state, config, args.output)
    with open(f"{args.output}.records.jsonl", "w") as fh:
        for rec in summary.records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(
        f"simulated {summary.steps_run} steps (converged: {summary.converged}); "
        f"state -> {csv_path}, sidecar -> {meta_path}"
    )
    return EXIT_OK


def _cmd_compare(args) -> int:
    state, _ = load_checkpoint(args.state)
    profile = _read_profile(args.profile)
    hist = radial_histogram(state, args.bins)
    l1, support = compare_profile(hist, profile)
    meta = {
        "subcommand": "compare",
        "state": args.state,
        "profile": args.profile,
        "bins": args.bins,
    }
    edges, density = hist.bin_edges.tolist(), hist.density.tolist()
    payload = {
        "l1_error": l1,
        "support_error": support,
        "histogram": {"bin_edges": edges, "density": density},
    }
    base = args.output[:-5] if args.output.endswith(".json") else args.output
    _write_json(f"{base}.json", payload, meta)
    _write_csv(
        f"{base}.csv",
        ["r_lo", "r_hi", "density"],
        _csv_lines(zip(edges[:-1], edges[1:], density)),
        meta,
    )
    print(f"l1_error = {l1:.4f}, support_error = {support:.4f}")
    return EXIT_OK


def _cmd_specfun_table(args) -> int:
    orders = [float(v) for v in args.orders.split(",")]
    kind, lo, hi, num = args.x_grid.split(":")
    lo, hi, num = float(lo), float(hi), int(num)
    xs = np.geomspace(lo, hi, num) if kind == "log" else np.linspace(lo, hi, num)
    rows = [
        (
            nu,
            x,
            specfun.bessel_j(nu, x),
            specfun.bessel_i(nu, x, scaled=args.scaled),
            specfun.bessel_k(nu, x, scaled=args.scaled),
        )
        for nu in orders
        for x in xs.tolist()
    ]
    meta = {
        "subcommand": "specfun-table",
        "orders": args.orders,
        "x_grid": args.x_grid,
        "scaled": args.scaled,
    }
    _write_csv(args.output, ["nu", "x", "J", "I", "K"], _csv_lines(rows), meta)
    print(f"{len(rows)} rows -> {args.output}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="flockdyn", description=__doc__)
    parser.add_argument("--config", help="JSON file with flag values", default=None)
    # metavar hides undocumented subcommands from the usage brace list
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    parser.subcommands = sub.choices

    p = sub.add_parser("solve", help="solve a flock profile and export (r, rho)")
    _add_model_flags(p)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--root-index", type=int, default=1)
    p.add_argument("--allow-nonbiological", action="store_true")
    p.add_argument("-o", "--output", default="profile")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("phase", help="classify a (C, ell) grid")
    p.add_argument("-n", "--dimension", type=int, required=True, choices=(2, 3))
    p.add_argument("-k", type=float, default=1.0)
    p.add_argument("--c-min", type=float, default=0.2)
    p.add_argument("--c-max", type=float, default=4.0)
    p.add_argument("--ell-min", type=float, default=0.05)
    p.add_argument("--ell-max", type=float, default=1.2)
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("-o", "--output", default="phase.csv")
    p.set_defaults(func=_cmd_phase)

    p = sub.add_parser("verify", help="re-check W*rho = D for a solved profile")
    p.add_argument("--profile", required=True, help="JSON written by solve")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("roots", help="enumerate determinant roots")
    _add_model_flags(p)
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--allow-nonbiological", action="store_true")
    p.add_argument("-o", "--output", default="roots.json")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("asymptotics", help="support-radius asymptotics sweep")
    p.add_argument("-n", "--dimension", type=int, required=True, choices=(2, 3))
    p.add_argument("-C", type=float, required=True)
    p.add_argument("-k", type=float, required=True)
    p.add_argument("--sweep-ell", choices=("upper", "lower"), required=True)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--delta0", type=float, default=0.02)
    p.add_argument("--ratio", type=float, default=5.0)
    p.add_argument("-o", "--output", default="asymptotics.csv")
    p.set_defaults(func=_cmd_asymptotics)

    p = sub.add_parser("simulate", help="run an N-body simulation")
    p.add_argument("--potential", choices=("quasi_morse", "morse", "morse_like"),
                   default="quasi_morse")
    p.add_argument("-n", "--dimension", type=int, required=True, choices=(2, 3))
    p.add_argument("-C", "--C", type=float, required=True)
    p.add_argument("-l", "--ell", type=float, required=True)
    p.add_argument("-k", type=float, default=1.0)
    p.add_argument("--p", type=float, default=1.0, help="Morse-like exponent")
    p.add_argument("--CA", type=float, default=1.0, help="Morse attraction strength")
    p.add_argument("--la", type=float, default=1.0, help="Morse attraction scale")
    p.add_argument("-N", type=int, default=1000)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--model", choices=("first", "second"), default="first")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", default="ball:1.0")
    p.add_argument("--stride", type=int, default=100)
    p.add_argument("--exact-forces", action="store_true")
    p.add_argument("--stop-when-converged", action="store_true")
    p.add_argument("-o", "--output", default="state")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="compare a state checkpoint with a profile")
    p.add_argument("--state", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("-o", "--output", default="compare",
                   help="prefix for the .json report and .csv histogram")
    p.set_defaults(func=_cmd_compare)

    # intentionally undocumented: golden-file regression dumps
    p = sub.add_parser("specfun-table")
    p.add_argument("--orders", default="0,0.5,1,1.5")
    p.add_argument("--x-grid", default="log:0.01:100:25")
    p.add_argument("--scaled", action="store_true")
    p.add_argument("-o", "--output", default="specfun.csv")
    p.set_defaults(func=_cmd_specfun_table)

    return parser


def _config_value(key: str, action: argparse.Action, value):
    """``value`` checked and converted as argparse does for the flag."""
    if action.nargs == 0:  # a switch such as --allow-nonbiological
        if not isinstance(value, bool):
            raise _UsageError(f"--config: {key!r} must be true or false, got {value!r}")
        return value
    if value is None and action.default is None and not action.required:
        return None
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise _UsageError(f"--config: {key!r} must be a string or a number, got {value!r}")
    try:
        value = (action.type or str)(str(value))
    except ValueError:
        raise _UsageError(f"--config: {key!r}: invalid value {value!r}") from None
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(str, action.choices))
        raise _UsageError(f"--config: {key!r} must be one of {choices}, got {value!r}")
    return value


def _apply_config(subparser: argparse.ArgumentParser, args) -> None:
    """Replace flag values with those of the --config JSON object, keyed by
    the flag's destination name (``grid``, ``dimension``, ``C``, ...)."""
    with open(args.config) as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise _UsageError(f"--config: {args.config} must hold a JSON object")
    actions = {a.dest: a for a in subparser._actions if a.dest != "help"}
    for key, value in overrides.items():
        if key not in actions:
            raise _UsageError(f"--config: {key!r} is not a flag of {args.subcommand}")
        setattr(args, key, _config_value(key, actions[key], value))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config(parser.subcommands[args.subcommand], args)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoRootError, RegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_ROOT
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DomainError, FlockdynError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console()
