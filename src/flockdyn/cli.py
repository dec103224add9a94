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
import warnings

import numpy as np

from . import __version__
from ._codec import (
    BLOCK_FIELDS,
    FIELD_BYTES,
    FINITE,
    POSITIVE,
    at_least,
    domains,
    g17_rows,
    read_json,
    table_lines,
    tag_table,
    text,
    write_json,
)
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
    PotentialSpec,
    QuasiMorse,
    Region,
    Sign,
    aggregate_param,
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
    _bracket_edges,
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


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; the contract here is 5."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


#: the exit code of an error, by the first entry its class matches
_EXIT_CODES = (
    ((_UsageError,), EXIT_USAGE),
    ((NoRootError, RegimeError), EXIT_NO_ROOT),
    ((BracketFailureError, DegenerateDenominatorError, NumericalBlowupError,
      PositivityFailureError, QuadratureNonConvergenceError, VerificationFailureError,
      ArithmeticError, MemoryError), EXIT_NUMERICAL),
    ((OSError,), EXIT_IO),
    ((DomainError, FlockdynError, ValueError), EXIT_USAGE),
)
_ERRORS = sum((kinds for kinds, _ in _EXIT_CODES), ())


def _write_csv(path: str, header: list[str], lines, meta: dict) -> None:
    """Write the metadata header, the column header and the already
    formatted ``lines``, such as ``table_lines(rows)``, as they come."""
    with open(path, "w") as fh:
        fh.write(f"# flockdyn {__version__}\n# config: {json.dumps(meta, sort_keys=True)}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _with_meta(payload: dict, meta: dict) -> dict:
    """A command's JSON document: its ``payload`` and a ``meta`` object."""
    return {"meta": {"tool": "flockdyn", "version": __version__, "config": meta}, **payload}


def _refusal(flag: str, domain, value) -> _UsageError:
    return _UsageError(f"{flag} must be {domain.text}, got {value!r}")


def _flag(p: argparse.ArgumentParser, *names, sets=(), domain=None, **kwargs) -> None:
    """Add the flag ``names`` to ``p``, as ``add_argument`` does with
    ``kwargs``.  ``sets`` holds the (record class, field name) of each field
    its value sets, and ``domain`` the values it takes, by default the
    domain that its first field declares."""
    action = p.add_argument(*names, **kwargs)
    action.sets = sets
    action.domain = domain or (domains(sets[0][0]).get(sets[0][1]) if sets else None)


def _record(args, cls, **given):
    """The ``cls`` of the ``given`` fields and of those its flags set."""
    return cls(**{name: value for (owner, name), value in args.fields.items() if owner is cls},
               **given)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-n", "--dimension", type=int, required=True, choices=(2, 3))
    _flag(p, "-C", sets=((ModelParams, "C"),), type=float, required=True,
          help="repulsion strength")
    _flag(p, "-l", "--ell", sets=((ModelParams, "ell"),), type=float, required=True,
          help="repulsion length scale")
    _flag(p, "-k", sets=((ModelParams, "k"),), type=float, required=True, help="decay rate")


def _cmd_solve(args) -> int:
    params = _record(args, ModelParams, n=args.dimension)
    profile = solve_profile(
        params, root_index=args.root_index, allow_nonbiological=args.allow_nonbiological
    )
    meta = {"subcommand": "solve", **params.to_dict(), "grid": args.grid}
    # the rows first, so that a grid too large for memory writes no file
    grid = np.linspace(0.0, profile.R_star, args.grid)
    rows = np.column_stack([grid, density_eval(profile, grid)])
    write_json(f"{args.output}.json", _with_meta({"profile": profile.to_dict()}, meta))
    _write_csv(f"{args.output}.csv", ["r", "rho"], table_lines(rows), meta)
    print(
        f"solved: R* = {profile.R_star:.12g}, A = {profile.A:.12g}, "
        f"mu1 = {profile.mu1:.12g}, mu2 = {profile.mu2:.12g}, D = {profile.D:.12g}"
    )
    return EXIT_OK


#: region and sign names by code; the code -1 of an invalid cell picks the last
_REGION_NAMES = [r.value for r in Region] + ["invalid"]
_SIGN_NAMES = [s.value for s in Sign] + ["invalid"]

#: the class columns of a phase cell, between its ell and its A, by the code
#: ((region * 4 + a_sign) * 2 + biologically_relevant) * 2 + h_stable
_PHASE_CLASSES = tuple(
    f"{region},{sign},{bio},{h_stable},"
    for region in _REGION_NAMES
    for sign in _SIGN_NAMES
    for bio in (0, 1)
    for h_stable in (0, 1)
)


def _padded(texts, right: bool) -> np.ndarray:
    """The texts as rows of uint8, NUL padded to the longest on the left
    (``right``-aligned) or on the right."""
    width = max(map(len, texts))
    pad = str.rjust if right else str.ljust
    return np.frombuffer("".join(pad(t, width, "\0") for t in texts).encode(),
                         dtype=np.uint8).reshape(len(texts), width)


def _phase_lines(grid):
    """The grid's CSV text, C outer and ell inner, in blocks of whole rows
    of C of about ``BLOCK_FIELDS`` cells.  A block is one byte matrix, a
    line per cell: its C text, its ell text, its class text, gathered by
    its class code, and its A, each NUL padded; ``text`` drops the NULs.  C
    and the class are right-aligned and ell left-aligned, so that a line's
    bytes lie in few runs."""
    c_text, ell_text = (text(g17_rows(v, ",")).split(",")[:-1] for v in (grid.C, grid.ell))
    c_part = _padded([t + "," for t in c_text], right=True)
    ell_part = _padded([t + "," for t in ell_text], right=False)
    class_part = _padded(_PHASE_CLASSES, right=True)
    edges = np.cumsum([0, c_part.shape[1], ell_part.shape[1], class_part.shape[1]])
    # numpy's % takes the code -1 to the last name
    region = grid.region % len(_REGION_NAMES)
    sign = grid.a_sign % len(_SIGN_NAMES)
    code = (region * len(_SIGN_NAMES) + sign) * 2 + grid.biologically_relevant
    code = code * 2 + grid.h_stable
    rows = max(1, BLOCK_FIELDS // grid.ell.size)
    for start in range(0, grid.C.size, rows):
        stop = min(start + rows, grid.C.size)
        lines = np.empty((stop - start, grid.ell.size, edges[-1] + FIELD_BYTES), dtype=np.uint8)
        lines[..., : edges[1]] = c_part[start:stop, None]
        lines[..., edges[1] : edges[2]] = ell_part
        lines[..., edges[2] : edges[3]] = class_part.take(code[start:stop], axis=0)
        lines[..., edges[3] :] = g17_rows(grid.A[start:stop], "\n")
        yield text(lines)


def _cmd_phase(args) -> int:
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
    doc = read_json(path)
    if isinstance(doc, dict) and "profile" in doc:
        doc = doc["profile"]
    return FlockProfile.from_dict(doc)


def _cmd_verify(args) -> int:
    profile = _read_profile(args.profile)
    report = verify_flock(profile, grid_size=args.grid)
    meta = {"subcommand": "verify", "profile": args.profile, "grid": args.grid}
    if args.output:
        if args.format == "json":
            write_json(args.output, _with_meta({"report": report.to_dict()}, meta))
        else:
            rows = np.column_stack([report.r_grid, report.closed_form, report.quadrature,
                                    np.full_like(report.r_grid, report.D)])
            _write_csv(args.output, ["r", "closed", "quadrature", "D"], table_lines(rows), meta)
    print(
        f"verified: sup|closed-D| = {report.sup_dev_closed:.3e}, "
        f"sup|quad-D| = {report.sup_dev_quad:.3e}, cross = {report.cross_dev:.3e}"
    )
    return EXIT_OK


def _cmd_roots(args) -> int:
    params = _record(args, ModelParams, n=args.dimension)
    roots = enumerate_roots(
        params, args.count, allow_nonbiological=args.allow_nonbiological
    )
    # the first bracket is the one the enumeration refined its first root on
    lo, hi = _bracket_edges(params, aggregate_param(params)[1], 1)
    meta = {"subcommand": "roots", **params.to_dict(), "count": args.count}
    payload = {
        "roots": [{"R": r, "index": j} for r, j in roots],
        "first_bracket": {"lo": lo, "hi": hi},
    }
    write_json(args.output, _with_meta(payload, meta))
    for r, j in roots:
        print(f"root {j}: R = {r:.12g}")
    return EXIT_OK


def _cmd_asymptotics(args) -> int:
    C, k, n = args.C, args.k, args.dimension
    limit = EllLimit(args.sweep_ell)
    # the open interval of ell in region I, whose ends the sweep approaches
    ell_lo, ell_hi = (1.0 / C, C ** (-1.0 / 3.0)) if n == 3 else (0.0, C**-0.5)
    try:
        deltas = [args.delta0 * args.ratio**-m for m in range(args.steps)]
    except OverflowError:
        deltas = [math.inf]
    if not math.isfinite(deltas[-1]):
        raise _UsageError(f"--delta0 * --ratio^-m overflows for m < --steps = {args.steps}")
    if limit is EllLimit.UPPER:
        ells = [ell_hi * (1.0 - d) for d in deltas]
    else:
        ells = [ell_lo * (1.0 + d) if n == 3 else d for d in deltas]
    for m, ell in enumerate(ells):
        # an empty interval (3-D, C <= 1) is left to the solver's regime check
        if ell_lo < ell_hi and not ell_lo < ell < ell_hi:
            raise _UsageError(f"--delta0 * --ratio^-m at m = {m} gives ell = {ell!r}, outside "
                              f"region I's open interval ({ell_lo!r}, {ell_hi!r})")
    rows = []
    for ell in ells:
        params = _record(args, ModelParams, n=n, ell=ell)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
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
    _write_csv(args.output, ["ell", "R_formula", "R_solver", "rel_dev"], table_lines(rows), meta)
    for ell, rf, rs, dev in rows:
        print(f"ell = {ell:.10g}: formula {rf:.8g}, solver {rs:.8g}, dev {dev:.3e}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    potential_cls = tag_table(PotentialSpec)[args.potential]
    potential = (QuasiMorse(_record(args, ModelParams, n=args.dimension))
                 if potential_cls is QuasiMorse else _record(args, potential_cls))
    kind, colon, value = args.init.partition(":")
    try:
        make = {"ball:": UniformBall, "gauss:": Gaussian, "file:": FromFile}[kind + colon]
        # float("") refuses an empty R or S, and so an empty PATH too
        init = make(value if make is FromFile and value else float(value))
    except DomainError as exc:  # a ValueError, whose handler would catch it too
        raise _refusal("--init", exc.domain, exc.value) from None
    except (KeyError, ValueError):
        raise _UsageError(f"bad --init {args.init!r}; use ball:R, gauss:S or file:PATH") from None
    try:
        config = _record(args, SimConfig, potential=potential, dimension=args.dimension,
                         init=init, tabulated_forces=not args.exact_forces)
    except DomainError as exc:
        # min_separation, and dt without --dt, are derived from -l
        field = exc.field[1] if exc.field and exc.field[0] is SimConfig else None
        if field == "min_separation" or (field == "dt" and args.dt is None):
            raise _refusal(f"-l: the {field} derived from it", exc.domain, exc.value) from None
        raise
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
    n_part = len(state.positions)
    if args.bins > n_part:
        raise _UsageError(f"--bins must be at most the {n_part} particles of --state, "
                          f"got {args.bins}")
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
        "histogram": {"bin_edges": hist.bin_edges.tolist(), "density": hist.density.tolist()},
    }
    base = args.output[:-5] if args.output.endswith(".json") else args.output
    write_json(f"{base}.json", _with_meta(payload, meta))
    rows = np.column_stack([hist.bin_edges[:-1], hist.bin_edges[1:], hist.density])
    _write_csv(f"{base}.csv", ["r_lo", "r_hi", "density"], table_lines(rows), meta)
    print(f"l1_error = {l1:.4f}, support_error = {support:.4f}")
    return EXIT_OK


def _cmd_specfun_table(args) -> int:
    try:
        orders = [float(v) for v in args.orders.split(",")]
    except ValueError:
        orders = []
    if not orders or not all(nu in specfun._SUPPORTED_ORDERS for nu in orders):
        raise _UsageError(f"--orders must list orders of {specfun._SUPPORTED_ORDERS}, "
                          f"separated by commas, got {args.orders!r}")
    try:
        kind, lo, hi, num = args.x_grid.split(":")
        ends, num = np.array([float(lo), float(hi)]), int(num)
    except ValueError:
        kind = None
    # K is defined for x > 0 alone
    if kind not in ("lin", "log") or num < 1 or not (np.isfinite(ends) & (ends > 0.0)).all():
        raise _UsageError(f"--x-grid must be KIND:LO:HI:NUM with KIND log or lin, finite "
                          f"LO and HI > 0 and NUM >= 1, got {args.x_grid!r}")
    xs = np.geomspace(*ends, num) if kind == "log" else np.linspace(*ends, num)
    # one array call per function and order: an element of an array call
    # equals the float call at that element, bit for bit
    rows = np.concatenate([
        np.column_stack([
            np.full(xs.size, nu),
            xs,
            specfun.bessel_j(nu, xs),
            specfun.bessel_i(nu, xs, scaled=args.scaled),
            specfun.bessel_k(nu, xs, scaled=args.scaled),
        ])
        for nu in orders
    ])
    meta = {
        "subcommand": "specfun-table",
        "orders": args.orders,
        "x_grid": args.x_grid,
        "scaled": args.scaled,
    }
    _write_csv(args.output, ["nu", "x", "J", "I", "K"], table_lines(rows), meta)
    print(f"{len(rows)} rows -> {args.output}")
    return EXIT_OK


def _solve_flags(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)
    _flag(p, "--grid", domain=at_least(2), type=int, default=256)
    _flag(p, "--root-index", domain=at_least(1), type=int, default=1)
    p.add_argument("--allow-nonbiological", action="store_true")
    p.add_argument("-o", "--output", default="profile")


def _phase_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-n", "--dimension", type=int, required=True, choices=(2, 3))
    _flag(p, "-k", sets=((ModelParams, "k"),), type=float, default=1.0)
    # the ends of the grid's C and ell, whose invalid cells are classified too
    _flag(p, "--c-min", sets=((ModelParams, "C"),), domain=FINITE, type=float, default=0.2)
    _flag(p, "--c-max", sets=((ModelParams, "C"),), domain=FINITE, type=float, default=4.0)
    _flag(p, "--ell-min", sets=((ModelParams, "ell"),), domain=FINITE, type=float, default=0.05)
    _flag(p, "--ell-max", sets=((ModelParams, "ell"),), domain=FINITE, type=float, default=1.2)
    _flag(p, "--resolution", domain=at_least(1), type=int, default=64)
    p.add_argument("-o", "--output", default="phase.csv")


def _verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", required=True, help="JSON written by solve")
    _flag(p, "--grid", domain=at_least(2), type=int, default=256)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("-o", "--output", default=None)


def _roots_flags(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)
    _flag(p, "--count", domain=at_least(1), type=int, default=3)
    p.add_argument("--allow-nonbiological", action="store_true")
    p.add_argument("-o", "--output", default="roots.json")


def _asymptotics_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-n", "--dimension", type=int, required=True, choices=(2, 3))
    _flag(p, "-C", sets=((ModelParams, "C"),), type=float, required=True)
    _flag(p, "-k", sets=((ModelParams, "k"),), type=float, required=True)
    p.add_argument("--sweep-ell", choices=("upper", "lower"), required=True)
    _flag(p, "--steps", domain=at_least(1), type=int, default=5)
    _flag(p, "--delta0", domain=POSITIVE, type=float, default=0.02)
    _flag(p, "--ratio", domain=POSITIVE, type=float, default=5.0)
    p.add_argument("-o", "--output", default="asymptotics.csv")


def _simulate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--potential", choices=tuple(tag_table(PotentialSpec)), default="quasi_morse")
    p.add_argument("-n", "--dimension", type=int, required=True, choices=(2, 3))
    # -C and -l set the repulsion of every potential, which messages name after them
    _flag(p, "-C", "--C", sets=((ModelParams, "C"), (Morse, "C_R"), (MorseLike, "C")),
          type=float, required=True)
    _flag(p, "-l", "--ell", sets=((ModelParams, "ell"), (Morse, "ell_R"), (MorseLike, "ell")),
          type=float, required=True)
    _flag(p, "-k", sets=((ModelParams, "k"),), type=float, default=1.0)
    _flag(p, "--p", sets=((MorseLike, "p"),), type=float, default=1.0,
          help="Morse-like exponent")
    _flag(p, "--CA", sets=((Morse, "C_A"),), type=float, default=1.0,
          help="Morse attraction strength")
    _flag(p, "--la", sets=((Morse, "ell_A"),), type=float, default=1.0,
          help="Morse attraction scale")
    _flag(p, "-N", sets=((SimConfig, "N"),), type=int, default=1000)
    _flag(p, "--dt", sets=((SimConfig, "dt"),), type=float, default=None)
    # a run of no step would leave its records file empty
    _flag(p, "--steps", sets=((SimConfig, "steps"),), domain=at_least(1), type=int,
          default=1000)
    _flag(p, "--model", sets=((SimConfig, "model"),), choices=("first", "second"),
          default="first")
    _flag(p, "--alpha", sets=((SimConfig, "alpha"),), type=float, default=1.0)
    _flag(p, "--beta", sets=((SimConfig, "beta"),), type=float, default=0.5)
    _flag(p, "--seed", sets=((SimConfig, "seed"),), type=int, default=0)
    p.add_argument("--init", default="ball:1.0")
    _flag(p, "--stride", sets=((SimConfig, "record_stride"),), type=int, default=100)
    p.add_argument("--exact-forces", action="store_true")
    _flag(p, "--stop-when-converged", sets=((SimConfig, "stop_when_converged"),),
          action="store_true")
    p.add_argument("-o", "--output", default="state")


def _compare_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--state", required=True)
    p.add_argument("--profile", required=True)
    _flag(p, "--bins", domain=at_least(1), type=int, default=10)
    p.add_argument("-o", "--output", default="compare",
                   help="prefix for the .json report and .csv histogram")


def _specfun_table_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--orders", default="0,0.5,1,1.5")
    p.add_argument("--x-grid", default="log:0.01:100:25")
    p.add_argument("--scaled", action="store_true")
    p.add_argument("-o", "--output", default="specfun.csv")


#: name -> (help, flags, handler), in the order of ``--help``.  A
#: command without help is left out of the help; specfun-table is
#: intentionally undocumented (golden-file regression dumps)
_COMMANDS = {
    "solve": ("solve a flock profile and export (r, rho)", _solve_flags, _cmd_solve),
    "phase": ("classify a (C, ell) grid", _phase_flags, _cmd_phase),
    "verify": ("re-check W*rho = D for a solved profile", _verify_flags, _cmd_verify),
    "roots": ("enumerate determinant roots", _roots_flags, _cmd_roots),
    "asymptotics": ("support-radius asymptotics sweep", _asymptotics_flags, _cmd_asymptotics),
    "simulate": ("run an N-body simulation", _simulate_flags, _cmd_simulate),
    "compare": ("compare a state checkpoint with a profile", _compare_flags, _cmd_compare),
    "specfun-table": (None, _specfun_table_flags, _cmd_specfun_table),
}


def _check_flags(subparser: argparse.ArgumentParser, args) -> dict:
    """Refuse the first value of a ``_flag`` outside its domain, naming the
    flag, and return field -> flag; two flags that set one field are named
    together (``--ell-min/--ell-max``).  ``args.fields`` gets field -> value
    for ``_record``.  A value of None, an unset --dt, is left to the
    record's derived default."""
    named, args.fields = {}, {}
    for action in subparser._actions:
        if not hasattr(action, "sets"):
            continue
        flag, value = action.option_strings[0], getattr(args, action.dest)
        if value is not None and action.domain and not action.domain.test(value):
            raise _refusal(flag, action.domain, value)
        for field in action.sets:
            named[field] = f"{named[field]}/{flag}" if field in named else flag
            args.fields[field] = value
    return named


def _message(named: dict, exc: Exception) -> str:
    """The text of ``exc``, naming the ``named`` flags of the fields it carries
    (a rule across fields, or a derived overflow).  No flag sets a field of a
    record read from a file, so its errors keep their class and key."""
    if isinstance(exc, DomainError) and exc.field in named:
        return str(_refusal(named[exc.field], exc.domain, exc.value))
    flags = [named[field] for field in getattr(exc, "fields", ()) if field in named]
    # a bare MemoryError has no text
    message = str(exc) or type(exc).__name__
    return f"{', '.join(flags)}: {message}" if flags else message


def _is_config(token: str) -> bool:
    """Whether ``token`` is ``--config`` or a prefix of it, which argparse
    takes too, with or without ``=PATH``."""
    flag = token.partition("=")[0]
    return len(flag) > 2 and "--config".startswith(flag)


def _command_name(argv: list[str]):
    """(name, alone): the first token of ``argv`` that names a command, or
    None, and whether only ``--config`` and its path come before it.  The
    path after a separate ``--config`` is skipped, since it may be a file
    named like a command."""
    tokens = iter(argv)
    alone = True
    for token in tokens:
        if token in _COMMANDS:
            return token, alone
        if _is_config(token):
            if "=" not in token:
                next(tokens, None)
        else:
            alone = False
    return None, False


def _build_parser(argv: list[str]) -> _Parser:
    """Only the command ``argv`` names gets flags, ``-h`` included: argparse
    parses with that one alone, and the others' flags would cost about 2 ms
    on every call.  When nothing but ``--config`` comes before it, it is the
    only command added.  Otherwise every command is added, since argparse
    may list them all: in the top-level help (``-h`` before the command) or
    in the message for an invalid command."""
    parser = _Parser(prog="flockdyn", description=__doc__)
    parser.add_argument("--config", help="JSON file with flag values", default=None)
    # metavar hides undocumented subcommands from the usage brace list
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    parser.subcommands = sub.choices
    chosen, alone = _command_name(argv)
    for name, (help_, add_flags, _) in _COMMANDS.items():
        if alone and name != chosen:
            continue
        listed = {} if help_ is None else {"help": help_}
        p = sub.add_parser(name, add_help=name == chosen, **listed)
        if name == chosen:
            add_flags(p)
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
    overrides = read_json(args.config)
    if not isinstance(overrides, dict):
        raise _UsageError(f"--config: {args.config} must hold a JSON object")
    actions = {a.dest: a for a in subparser._actions if a.dest != "help"}
    for key, value in overrides.items():
        if key not in actions:
            raise _UsageError(f"--config: {key!r} is not a flag of {args.subcommand}")
        setattr(args, key, _config_value(key, actions[key], value))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    named = {}
    try:
        args = parser.parse_args(argv)
        subparser = parser.subcommands[args.subcommand]
        if args.config:
            _apply_config(subparser, args)
        named = _check_flags(subparser, args)
        return _COMMANDS[args.subcommand][2](args)
    except _ERRORS as exc:
        print(f"error: {_message(named, exc)}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


def console() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console()
