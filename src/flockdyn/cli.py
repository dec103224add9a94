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
import sys

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
    aggregate_param,
    classify,
    potential_from_dict,
    potential_to_dict,
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


def _write_csv(path: str, header: list[str], rows, meta: dict) -> None:
    with open(path, "w") as fh:
        for line in _meta_lines(meta):
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
                + "\n"
            )


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
        [(float(r), float(d)) for r, d in zip(grid, rho)],
        meta,
    )
    print(
        f"solved: R* = {profile.R_star:.12g}, A = {profile.A:.12g}, "
        f"mu1 = {profile.mu1:.12g}, mu2 = {profile.mu2:.12g}, D = {profile.D:.12g}"
    )
    return EXIT_OK


def _phase_cell(n, c, ell, k):
    try:
        params = ModelParams(n=n, C=c, ell=ell, k=k)
        regime = classify(params)
        try:
            a_val = aggregate_param(params)[0]
        except DegenerateDenominatorError:
            a_val = float("nan")
        return (
            c,
            ell,
            regime.region.value,
            regime.a_sign.value,
            int(regime.biologically_relevant),
            int(regime.h_stable),
            a_val,
        )
    except DomainError:
        return (c, ell, "invalid", "invalid", 0, 0, float("nan"))


def _cmd_phase(args) -> int:
    cs = np.linspace(args.c_min, args.c_max, args.resolution)
    ells = np.linspace(args.ell_min, args.ell_max, args.resolution)
    rows = [
        _phase_cell(args.dimension, float(c), float(ell), args.k)
        for c in cs
        for ell in ells
    ]
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
        rows,
        meta,
    )
    print(f"phase grid written: {len(rows)} cells -> {args.output}")
    return EXIT_OK


def _read_profile(path: str) -> FlockProfile:
    """The profile of a ``solve`` JSON file, or of a bare profile object."""
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "profile" in doc:
        doc = doc["profile"]
    if not isinstance(doc, dict):
        raise DomainError(f"{path}: a profile must be a JSON object")
    return FlockProfile.from_dict(doc)


def _cmd_verify(args) -> int:
    profile = _read_profile(args.profile)
    report = verify_flock(profile, grid_size=args.grid)
    meta = {"subcommand": "verify", "profile": args.profile, "grid": args.grid}
    if args.output:
        if args.format == "json":
            _write_json(f"{args.output}", {"report": report.to_dict()}, meta)
        else:
            with open(args.output, "w") as fh:
                for line in _meta_lines(meta):
                    fh.write(line + "\n")
                report.write_csv(fh)
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
    _write_csv(args.output, ["ell", "R_formula", "R_solver", "rel_dev"], rows, meta)
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
    payload = {
        "l1_error": l1,
        "support_error": support,
        "histogram": {
            "bin_edges": [float(v) for v in hist.bin_edges],
            "density": [float(v) for v in hist.density],
        },
    }
    base = args.output[:-5] if args.output.endswith(".json") else args.output
    _write_json(f"{base}.json", payload, meta)
    _write_csv(
        f"{base}.csv",
        ["r_lo", "r_hi", "density"],
        [
            (float(lo), float(hi), float(d))
            for lo, hi, d in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.density)
        ],
        meta,
    )
    print(f"l1_error = {l1:.4f}, support_error = {support:.4f}")
    return EXIT_OK


def _cmd_specfun_table(args) -> int:
    orders = [float(v) for v in args.orders.split(",")]
    kind, lo, hi, num = args.x_grid.split(":")
    lo, hi, num = float(lo), float(hi), int(num)
    xs = np.geomspace(lo, hi, num) if kind == "log" else np.linspace(lo, hi, num)
    rows = []
    for nu in orders:
        for x in xs:
            rows.append(
                (
                    nu,
                    float(x),
                    specfun.bessel_j(nu, float(x)),
                    specfun.bessel_i(nu, float(x), scaled=args.scaled),
                    specfun.bessel_k(nu, float(x), scaled=args.scaled),
                )
            )
    meta = {
        "subcommand": "specfun-table",
        "orders": args.orders,
        "x_grid": args.x_grid,
        "scaled": args.scaled,
    }
    _write_csv(args.output, ["nu", "x", "J", "I", "K"], rows, meta)
    print(f"{len(rows)} rows -> {args.output}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="flockdyn", description=__doc__)
    parser.add_argument("--config", help="JSON file with flag values", default=None)
    # metavar hides undocumented subcommands from the usage brace list
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            with open(args.config) as fh:
                overrides = json.load(fh)
            for key, value in overrides.items():
                setattr(args, key, value)
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
