"""Run a fixed list of flockdyn commands and print the SHA-256 of every file
they write, one ``sha256  file`` line each, sorted by file name.

    PYTHONPATH=src python tools/output_hashes.py OUTDIR

The outputs of flockdyn are byte-stable, so two checkouts that should give
the same results are compared with one ``diff`` of this script's output,
each run with its own ``PYTHONPATH`` and the same copy of the script, so
that a command added to the list runs in both.  The commands run in-process, inside
``OUTDIR`` and with relative paths, so that the metadata headers, which
record the paths a command was given, do not depend on where ``OUTDIR``
is.  The hashes depend on numpy's ``log`` and BLAS, so they compare two
checkouts on one machine; they are not golden values.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

from flockdyn import cli

_REF3D = ["-n", "3", "-C", "1.255", "-l", "0.8", "-k", "0.2"]
_REF2D = ["-n", "2", "-C", "1.1111111111111112", "-l", "0.75", "-k", "0.5"]
_MORSE = ["--potential", "morse", "-n", "3", "-C", "2.0", "-l", "0.5", "--CA", "1.0",
          "--la", "1.0"]
_MORSE_LIKE = ["--potential", "morse_like", "-n", "2", "--p", "0.5", "-C", "0.6", "-l", "0.2"]


def commands(n_part: int = 300, resolution: int = 256, x_points: int = 400) -> list[list[str]]:
    """The argv of each command, in the order they run.  ``n_part`` is the
    particle count of every ``simulate`` but three at N = 600 and 1000,
    whose passes are split across threads, ``resolution``
    the side of the second ``phase`` grid and ``x_points`` the length of the
    wide ``specfun-table`` grid."""
    run = ["-N", str(n_part), "--seed", "1", "--stride", "2", "--steps", "5"]
    qm3d = [*_REF3D, "--dt", "1.0", "--init", "ball:0.7"]
    return [
        ["solve", *_REF3D, "-o", "ref3d"],
        ["solve", *_REF2D, "-o", "ref2d"],
        # a higher root refines its own bracket alone
        ["solve", *_REF3D, "--root-index", "3", "-o", "ref3d_root3"],
        ["solve", *_REF2D, "--root-index", "3", "-o", "ref2d_root3"],
        ["solve", *_REF2D, "--root-index", "40", "-o", "ref2d_root40"],
        ["roots", *_REF3D, "--count", "3", "-o", "roots3d.json"],
        ["roots", *_REF2D, "--count", "3", "-o", "roots2d.json"],
        ["verify", "--profile", "ref3d.json", "-o", "verify3d.json"],
        ["verify", "--profile", "ref2d.json", "--format", "csv", "-o", "verify2d.csv"],
        ["verify", "--profile", "ref3d.json", "--format", "csv", "-o", "verify3d.csv"],
        ["asymptotics", "-n", "3", "-C", "1.255", "-k", "0.2", "--sweep-ell", "upper",
         "-o", "asymptotics3d.csv"],
        # the 2-D upper formula is the first zero of J_1
        ["asymptotics", "-n", "2", "-C", "1.1111111111111112", "-k", "0.5", "--sweep-ell",
         "upper", "-o", "asymptotics2d.csv"],
        # the lower sweeps: scalar Brent and Bessel calls that no other command makes
        # (in 2-D the balance equation's root below the first zero of J_0)
        ["asymptotics", "-n", "3", "-C", "1.255", "-k", "0.2", "--sweep-ell", "lower",
         "-o", "asymptotics3d_lower.csv"],
        ["asymptotics", "-n", "2", "-C", "1.1111111111111112", "-k", "0.5", "--sweep-ell",
         "lower", "-o", "asymptotics2d_lower.csv"],
        ["phase", "-n", "3", "-o", "phase3d.csv"],
        ["phase", "-n", "2", "--resolution", str(resolution), "-o", "phase2d.csv"],
        # invalid cells (C <= 0 or ell <= 0), A = 0 exactly (C = 4, ell = 0.5)
        # and degenerate cells, whose A is nan (C = 1)
        ["phase", "-n", "2", "--c-min", "-1", "--c-max", "4", "--ell-min", "-1", "--ell-max",
         "1.5", "--resolution", "11", "-o", "phase2d_edges.csv"],
        ["simulate", *qm3d, *run, "-o", "qm3d"],
        ["simulate", *qm3d, *run, "--exact-forces", "-o", "qm3d_exact"],
        # the checkpoint reader: the state and the sidecar's time of the first run
        ["simulate", *qm3d[:-2], "--init", "file:qm3d", *run, "-o", "qm3d_from_file"],
        ["simulate", *_REF2D, "--dt", "0.5", "--init", "ball:0.9", *run, "-o", "qm2d"],
        ["simulate", *_MORSE_LIKE, "--dt", "0.005", "--init", "ball:0.1", *run, "-o", "ml"],
        ["simulate", *_MORSE, "--dt", "0.01", "--init", "ball:1.0", *run, "-o", "morse"],
        # at the start most pairs are closer than min_separation = 5e-7, and
        # some below the tables' lower edge: the pair pass's clamp search and clip
        ["simulate", *_MORSE, "--dt", "0.01", "--init", "ball:3e-7", *run, "-o", "morse_close"],
        # the same in the exact mode: its clamp, with U'(min_sep) from the table
        ["simulate", *_MORSE, "--dt", "0.01", "--init", "ball:3e-7", *run, "--exact-forces",
         "-o", "morse_close_exact"],
        # pairs farther than half the tables' upper end, many beyond it: the clip
        ["simulate", *qm3d[:-2], "--init", "gauss:4000", *run, "-o", "qm3d_far"],
        ["simulate", *_REF3D, "--init", "ball:0.7", *run[:-4], "--model", "second",
         "--dt", "0.02", "--steps", "12", "--stride", "5", "-o", "qm3d_second"],
        # every step recorded: each end-of-step pass is fused
        ["simulate", *_REF3D, "--init", "ball:0.7", *run[:-4], "--model", "second",
         "--dt", "0.02", "--steps", "4", "--stride", "1", "-o", "qm3d_second_stride1"],
        # one step, whose record is the last: an energy-only pass alone
        ["simulate", *qm3d, *run[:-2], "--steps", "1", "-o", "qm3d_one_step"],
        # N = 600 spans four groups of row blocks in the pair pass, with
        # fused and energy-only passes for the records
        ["simulate", *qm3d, "-N", "600", *run[2:], "-o", "qm3d_n600"],
        # 2-D, a pass of ten groups: more than most hosts have threads
        ["simulate", *_REF2D, "--dt", "0.5", "--init", "ball:0.9", "-N", "1000", *run[2:-2],
         "--steps", "2", "-o", "qm2d_n1000"],
        # the close-pair cloud in a split pass: clamped pairs in every group
        ["simulate", *_MORSE, "--dt", "0.01", "--init", "ball:3e-7", "-N", "600", *run[2:],
         "-o", "morse_close_n600"],
        ["compare", "--state", "qm3d", "--profile", "ref3d.json", "--bins", "8",
         "-o", "compare3d.json"],
        ["compare", "--state", "qm2d", "--profile", "ref2d.json", "--bins", "8",
         "-o", "compare2d.json"],
        # a state with velocity columns
        ["compare", "--state", "qm3d_second", "--profile", "ref3d.json", "--bins", "8",
         "-o", "compare_second.json"],
        ["specfun-table", "-o", "specfun.csv"],
        ["specfun-table", "--orders=-1,-0.5,0,0.5,1,1.5,2,2.5,3,3.5",
         "--x-grid", f"log:1e-300:700:{x_points}", "-o", "specfun_wide.csv"],
        # dense across K's crossovers at 2 and 30 and the zero of the K_1
        # series sum near 0.9308, where the array loops stop element by element
        ["specfun-table", "--orders", "0,1,2,3", "--x-grid", "lin:0.5:40:4001", "--scaled",
         "-o", "specfun_dense.csv"],
    ]


def output_hashes(outdir, **sizes) -> list[str]:
    """Run ``commands(**sizes)`` inside ``outdir`` and return the
    ``sha256  file`` line of every file in it.  A command that exits
    non-zero raises ``RuntimeError`` with its messages."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        for argv in commands(**sizes):
            messages = io.StringIO()
            with contextlib.redirect_stdout(messages), contextlib.redirect_stderr(messages):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {code}: {messages.getvalue()}")
    finally:
        os.chdir(cwd)
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}"
            for path in sorted(outdir.iterdir()) if path.is_file()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", help="directory the commands write into")
    args = parser.parse_args(argv)
    try:
        lines = output_hashes(args.outdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
