"""End-to-end CLI tests: subcommand behaviour, exit-code contract, metadata
headers, and byte-stability of outputs."""

import hashlib
import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flockdyn.cli import main
from flockdyn.errors import DegenerateDenominatorError, DomainError
from flockdyn.potentials import ModelParams, aggregate_param, classify

REF3D_FLAGS = ["-n", "3", "-C", "1.255", "-l", "0.8", "-k", "0.2"]


def read(path):
    return Path(path).read_bytes()


# ----------------------------------------------------------------- solve


def test_solve_writes_profile_and_density(tmp_path, capsys):
    out = str(tmp_path / "ref3d")
    assert main(["solve", *REF3D_FLAGS, "--grid", "32", "-o", out]) == 0
    doc = json.loads(Path(out + ".json").read_text())
    assert doc["meta"]["tool"] == "flockdyn"
    prof = doc["profile"]
    assert prof["A"] == pytest.approx(5.585, abs=1e-12)
    assert set(prof) == {
        "n", "C", "ell", "k", "A", "a", "R_star", "mu1", "mu2", "D", "root_index",
    }
    lines = Path(out + ".csv").read_text().splitlines()
    assert lines[0].startswith("# flockdyn ")
    assert lines[1].startswith("# config:")
    assert lines[2] == "r,rho"
    assert len(lines) == 3 + 32
    assert "solved:" in capsys.readouterr().out


def test_solve_exit_codes(tmp_path):
    os.chdir(tmp_path)
    # A < 0: regime/no-root code
    assert main(["solve", "-n", "3", "-C", "3.0", "-l", "0.9", "-k", "0.5"]) == 2
    # outside the biological regime without the opt-in flag
    assert main(["solve", "-n", "3", "-C", "0.8", "-l", "1.1", "-k", "0.5"]) == 2
    assert (
        main(["solve", "-n", "3", "-C", "0.8", "-l", "1.1", "-k", "0.5",
              "--allow-nonbiological", "-o", str(tmp_path / "nb")])
        == 0
    )
    # bad arguments
    assert main(["solve", "-n", "3", "-C", "oops", "-l", "0.8", "-k", "0.2"]) == 5
    assert main(["bogus-subcommand"]) == 5
    # invalid parameter values caught by validation
    assert main(["solve", "-n", "3", "-C", "-1.0", "-l", "0.8", "-k", "0.2"]) == 5


@pytest.mark.parametrize("flag", ["-C", "-l", "-k"])
def test_solve_rejects_nonfinite_params(tmp_path, capsys, flag):
    # -C inf once exited 2 with A = nan, -k inf exited 3
    flags = {"-C": "1.255", "-l": "0.8", "-k": "0.2", flag: "inf"}
    out = tmp_path / "inf"
    argv = ["solve", "-n", "3"] + [v for kv in flags.items() for v in kv]
    assert main([*argv, "-o", str(out)]) == 5
    assert "finite" in capsys.readouterr().err
    assert not Path(str(out) + ".json").exists()


@pytest.mark.parametrize("grid", ["0", "1"])
def test_solve_rejects_tiny_grid(tmp_path, grid):
    # --grid 0 once exited 0 with a header-only CSV
    out = tmp_path / "g"
    assert main(["solve", *REF3D_FLAGS, "--grid", grid, "-o", str(out)]) == 5
    assert not Path(str(out) + ".csv").exists()


def test_profile_with_missing_key_is_rejected(tmp_path, capsys):
    # verify and compare once escaped with a KeyError traceback
    prof = str(tmp_path / "prof")
    assert main(["solve", *REF3D_FLAGS, "--grid", "8", "-o", prof]) == 0
    doc = json.loads(Path(prof + ".json").read_text())
    del doc["profile"]["R_star"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    state = str(tmp_path / "state")
    assert main(["simulate", *REF3D_FLAGS, "-N", "8", "--steps", "1",
                 "-o", state]) == 0
    capsys.readouterr()
    assert main(["verify", "--profile", str(broken), "--grid", "8"]) == 5
    assert "'R_star'" in capsys.readouterr().err
    assert main(["compare", "--state", state, "--profile", str(broken),
                 "-o", str(tmp_path / "cmp")]) == 5
    assert "'R_star'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "broken",
    [
        lambda doc: [1, 2],
        lambda doc: "text",
        lambda doc: {"profile": [1, 2]},
        lambda doc: {"profile": {**doc["profile"], "n": None}},
        # once truncated or coerced, then verified (exit 0) or failed (exit 3)
        lambda doc: {"profile": {**doc["profile"], "n": 3.7}},
        lambda doc: {"profile": {**doc["profile"], "n": "3"}},
        lambda doc: {"profile": {**doc["profile"], "root_index": 0}},
        lambda doc: {"profile": {**doc["profile"], "a": True}},
        lambda doc: {"profile": {**doc["profile"], "mu1": math.nan}},
    ],
)
def test_profile_that_is_not_an_object_is_rejected(tmp_path, capsys, broken):
    # verify and compare once escaped with a TypeError traceback
    prof = str(tmp_path / "prof")
    assert main(["solve", *REF3D_FLAGS, "--grid", "8", "-o", prof]) == 0
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(broken(json.loads(Path(prof + ".json").read_text()))))
    state = str(tmp_path / "state")
    assert main(["simulate", *REF3D_FLAGS, "-N", "8", "--steps", "1",
                 "-o", state]) == 0
    capsys.readouterr()
    assert main(["verify", "--profile", str(bad), "--grid", "8"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert main(["compare", "--state", state, "--profile", str(bad),
                 "-o", str(tmp_path / "cmp")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_solve_verify_round_trip(tmp_path, capsys):
    out = str(tmp_path / "prof")
    assert main(["solve", *REF3D_FLAGS, "-o", out]) == 0
    assert main(["verify", "--profile", out + ".json", "--grid", "32"]) == 0
    assert "verified:" in capsys.readouterr().out
    # CSV report variant carries the metadata header and the 4 columns
    rep = str(tmp_path / "report.csv")
    assert main(["verify", "--profile", out + ".json", "--grid", "16",
                 "--format", "csv", "-o", rep]) == 0
    lines = Path(rep).read_text().splitlines()
    assert lines[0].startswith("# flockdyn")
    assert lines[2] == "r,closed,quadrature,D"
    assert len(lines) == 3 + 16


def test_config_file_replaces_flags(tmp_path):
    cfg_path = tmp_path / "overrides.json"
    cfg_path.write_text(json.dumps({"grid": 7}))
    out = str(tmp_path / "cfgd")
    assert main(["--config", str(cfg_path), "solve", *REF3D_FLAGS,
                 "--grid", "99", "-o", out]) == 0
    lines = Path(out + ".csv").read_text().splitlines()
    assert len(lines) == 3 + 7  # config file overrode the flag


def test_config_file_with_every_kind_of_value(tmp_path):
    cfg_path = tmp_path / "overrides.json"
    cfg_path.write_text(json.dumps(
        {"dimension": 3, "C": 1.255, "ell": "0.8", "k": 0.2, "grid": 5,
         "allow_nonbiological": False, "output": str(tmp_path / "cfgd")}))
    assert main(["--config", str(cfg_path), "solve", "-n", "2", "-C", "9",
                 "-l", "9", "-k", "9"]) == 0
    doc = json.loads((tmp_path / "cfgd.json").read_text())
    assert doc["meta"]["config"]["C"] == 1.255
    assert doc["meta"]["config"]["n"] == 3
    assert len((tmp_path / "cfgd.csv").read_text().splitlines()) == 3 + 5


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"bogus": 1}, "'bogus'"),
        ({"subcommand": "phase"}, "'subcommand'"),
        ({"resolution": 8}, "'resolution'"),  # a flag of phase, not of solve
        ({"C": "abc"}, "'C'"),
        ({"C": [1.0]}, "'C'"),
        ({"grid": 7.5}, "'grid'"),
        ({"grid": True}, "'grid'"),
        ({"dimension": 4}, "'dimension'"),
        ({"allow_nonbiological": 1}, "'allow_nonbiological'"),
        ({"output": None}, "'output'"),
    ],
)
def test_config_file_is_validated(tmp_path, capsys, overrides, key):
    # unknown keys were silently accepted; {"C": "abc"} escaped as a TypeError
    cfg_path = tmp_path / "overrides.json"
    cfg_path.write_text(json.dumps(overrides))
    out = tmp_path / "cfgd"
    assert main(["--config", str(cfg_path), "solve", *REF3D_FLAGS, "-o", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: --config: ") and err.count("\n") == 1
    assert key in err
    assert not Path(str(out) + ".json").exists()


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg_path = tmp_path / "overrides.json"
    cfg_path.write_text("[1, 2]")
    assert main(["--config", str(cfg_path), "solve", *REF3D_FLAGS,
                 "-o", str(tmp_path / "x")]) == 5
    assert "JSON object" in capsys.readouterr().err


def test_outputs_byte_stable(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert main(["solve", *REF3D_FLAGS, "--grid", "16", "-o", out]) == 0
    assert read(out1 + ".csv") == read(out2 + ".csv")
    assert read(out1 + ".json") == read(out2 + ".json")


# ----------------------------------------------------------------- phase


def test_phase_grid_recovers_separatrix(tmp_path):
    out = str(tmp_path / "phase.csv")
    assert (
        main(["phase", "-n", "3", "--c-min", "1.0", "--c-max", "3.0",
              "--ell-min", "0.4", "--ell-max", "1.0", "--resolution", "24",
              "-o", out]) == 0
    )
    rows = [
        line.split(",")
        for line in Path(out).read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("C,")
    ]
    assert len(rows) == 24 * 24
    saw_i = saw_ii = False
    for cells in rows:
        c, ell = float(cells[0]), float(cells[1])
        region, sign = cells[2], cells[3]
        product = c * ell**3
        if abs(product - 1.0) <= 1e-9:
            continue
        # full sign: numerator (1 - C ell^3) times denominator (C ell^3 - ell^2)
        expected = "positive" if (1.0 - product) * (product - ell * ell) > 0 else "negative"
        assert sign == expected
        # inside the biologically relevant regime the region splits along
        # C ell^3 = 1 and the sign is decided by the numerator alone
        if cells[4] == "1":
            assert region == ("region_i" if product < 1.0 else "region_ii")
            assert sign == ("positive" if product < 1.0 else "negative")
            saw_i |= region == "region_i"
            saw_ii |= region == "region_ii"
    assert saw_i and saw_ii  # the window straddles the separatrix


def test_phase_window_entirely_outside(tmp_path):
    # a window below C ell^(n-2) = 1 classifies every cell as outside
    out = str(tmp_path / "out.csv")
    assert (
        main(["phase", "-n", "2", "--c-min", "0.1", "--c-max", "0.9",
              "--ell-min", "0.1", "--ell-max", "0.9", "--resolution", "6",
              "-o", out]) == 0
    )
    rows = [
        line.split(",")
        for line in Path(out).read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("C,")
    ]
    assert all(cells[2] == "outside" for cells in rows)


def test_phase_deterministic_row_major(tmp_path):
    out1 = str(tmp_path / "first.csv")
    out2 = str(tmp_path / "second.csv")
    args = ["phase", "-n", "2", "--resolution", "8"]
    assert main([*args, "-o", out1]) == 0
    assert main([*args, "-o", out2]) == 0
    assert read(out1) == read(out2)
    # row-major: C outer, ell inner, on the default linspace grids
    rows = [line.split(",") for line in Path(out1).read_text().splitlines()[3:]]
    expected = [
        (float(c), float(ell))
        for c in np.linspace(0.2, 4.0, 8)
        for ell in np.linspace(0.05, 1.2, 8)
    ]
    assert [(float(r[0]), float(r[1])) for r in rows] == expected


PHASE_HEADER = "C,ell,region,a_sign,biologically_relevant,h_stable,A\n"


def reference_phase(n, cs, ells, k):
    """The phase CSV body of the per-cell rule: ModelParams, classify and
    aggregate_param at every cell, nan on a degenerate denominator and
    "invalid" where ModelParams rejects the cell."""
    lines = [PHASE_HEADER]
    for c in cs:
        for ell in ells:
            c, ell = float(c), float(ell)
            try:
                params = ModelParams(n=n, C=c, ell=ell, k=k)
                regime = classify(params)
                try:
                    a_val = aggregate_param(params)[0]
                except DegenerateDenominatorError:
                    a_val = float("nan")
                row = (c, ell, regime.region.value, regime.a_sign.value,
                       int(regime.biologically_relevant), int(regime.h_stable), a_val)
            except DomainError:
                row = (c, ell, "invalid", "invalid", 0, 0, float("nan"))
            lines.append(",".join(
                f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")
    return "".join(lines)


def lattice(draw, target, resolution):
    """(lo, hi) whose linspace hits ``target`` exactly: a dyadic step."""
    step = draw(st.sampled_from((1.0, 0.5, 0.25, 0.125)))
    below = draw(st.integers(0, resolution - 1))
    return target - below * step, target + (resolution - 1 - below) * step


@st.composite
def phase_windows(draw):
    """(n, k, resolution, c_min, c_max, ell_min, ell_max), from random
    windows with C <= 0 and ell <= 0 cells, windows through the separatrix
    C ell^n = 1 or the degenerate C ell^n = ell^2 exactly, and the default
    window."""
    n = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(("random", "separatrix", "degenerate", "default")))
    if kind == "default":
        return n, 1.0, 64, 0.2, 4.0, 0.05, 1.2
    k = draw(st.floats(0.05, 5.0))
    resolution = draw(st.integers(1, 12))
    if kind == "random":
        bound = st.floats(-2.0, 10.0, allow_nan=False)
        c_lo, c_hi = draw(bound), draw(bound)
        e_lo, e_hi = draw(st.floats(-0.5, 1.5)), draw(st.floats(-0.5, 1.5))
        return n, k, resolution, c_lo, c_hi, e_lo, e_hi
    # 3-D: C = 8, ell = 0.5 is on the separatrix, C = 2, ell = 0.5 has
    # C ell^3 = ell^2; 2-D: C = 4, ell = 0.5 and C = 1 at any ell
    c = {("separatrix", 3): 8.0, ("separatrix", 2): 4.0,
         ("degenerate", 3): 2.0, ("degenerate", 2): 1.0}[kind, n]
    return (n, k, resolution, *lattice(draw, c, resolution),
            *lattice(draw, 0.5, resolution))


@settings(max_examples=60, deadline=None)
@given(window=phase_windows())
def test_phase_grid_equals_the_per_cell_rule(tmp_path_factory, window):
    n, k, resolution, c_min, c_max, ell_min, ell_max = window
    out = tmp_path_factory.mktemp("phase") / "phase.csv"
    argv = ["phase", "-n", str(n), "-k", repr(k), "--resolution", str(resolution),
            f"--c-min={c_min!r}", f"--c-max={c_max!r}",
            f"--ell-min={ell_min!r}", f"--ell-max={ell_max!r}", "-o", str(out)]
    assert main(argv) == 0
    body = out.read_text().split("\n", 2)[2]
    cs = np.linspace(c_min, c_max, resolution)
    ells = np.linspace(ell_min, ell_max, resolution)
    assert body == reference_phase(n, cs, ells, k)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("resolution", [1, 15, 16, 17, 33])
def test_phase_blocks_equal_the_per_cell_rule(tmp_path, n, resolution):
    # the CSV is written in blocks of C rows: one row, whole blocks only,
    # and partial last blocks; the dyadic window is centred on a degenerate
    # cell (A = nan) and reaches C <= 0 and ell <= 0
    c = 2.0 if n == 3 else 1.0
    below = resolution // 2
    c_min, ell_min = c - 0.5 * below, 0.5 - 0.125 * below
    c_max = c_min + 0.5 * (resolution - 1)
    ell_max = ell_min + 0.125 * (resolution - 1)
    out = tmp_path / "phase.csv"
    assert main(["phase", "-n", str(n), "-k", "0.7", "--resolution", str(resolution),
                 f"--c-min={c_min!r}", f"--c-max={c_max!r}",
                 f"--ell-min={ell_min!r}", f"--ell-max={ell_max!r}",
                 "-o", str(out)]) == 0
    body = out.read_text().split("\n", 2)[2]
    cs = np.linspace(c_min, c_max, resolution)
    ells = np.linspace(ell_min, ell_max, resolution)
    assert body == reference_phase(n, cs, ells, 0.7)
    (cell,) = [line for line in body.splitlines() if line.startswith(f"{c:.17g},0.5,")]
    assert cell.endswith(",nan")  # the degenerate denominator
    assert (",invalid," in body) == (resolution > 1)


@pytest.mark.parametrize(
    "n, sha256, size",
    [
        (2, "6cc8c3968e039a0c570fd52bdce7cc9de314fc6e970c8e7105a9ee9eeaf00533", 5_264_139),
        (3, "e9d6768c71f9c2f24dc4bbf4fd0a6d00b8913f35a0862a7f47d6853978d4661f", 5_248_512),
    ],
)
def test_phase_256_grid_bytes_are_pinned(tmp_path, n, sha256, size):
    # the whole file of the benchmark's 256 x 256 grids, default window, k = 1
    out = tmp_path / "phase.csv"
    assert main(["phase", "-n", str(n), "--resolution", "256", "-o", str(out)]) == 0
    data = read(out)
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == sha256


def test_phase_memory_stays_small(tmp_path):
    # the CSV text is built a block at a time; the text of the whole grid at
    # once peaks near 20 MB
    out = tmp_path / "phase.csv"
    tracemalloc.start()
    try:
        assert main(["phase", "-n", "3", "--resolution", "256", "-o", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6e6


def test_phase_dyadic_windows_hit_the_special_cells(tmp_path):
    # dyadic windows like those of phase_windows reach the 3-D cells
    # C ell^3 = 1 (A = 0) and C ell^3 = ell^2 (A = nan) exactly
    for c_min, c_max, cell, expect in (("4", "12", "8,0.5,", ",zero,"),
                                       ("1", "5", "2,0.5,", ",nan")):
        out = tmp_path / "special.csv"
        assert main(["phase", "-n", "3", "--c-min", c_min, "--c-max", c_max,
                     "--ell-min", "0.25", "--ell-max", "0.75", "--resolution", "5",
                     "-o", str(out)]) == 0
        (row,) = [line for line in out.read_text().splitlines() if line.startswith(cell)]
        assert expect in row and "invalid" not in row


@pytest.mark.parametrize(
    "flags",
    [
        ["--resolution", "0"],
        ["--resolution", "-3"],
        ["--c-min", "inf"],
        ["--c-max", "nan"],
        ["--ell-min=-inf"],
        ["--ell-max", "nan"],
        ["-k", "0"],
        ["-k", "-1"],
        ["-k", "inf"],
        ["-k", "nan"],
    ],
)
def test_phase_rejects_bad_inputs(tmp_path, capsys, flags):
    # each once exited 0: a header-only CSV, nan C rows with a RuntimeWarning,
    # or every cell written as invalid
    out = tmp_path / "bad.csv"
    assert main(["phase", "-n", "3", *flags, "-o", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_phase_keeps_invalid_cells_of_a_finite_window(tmp_path):
    out = tmp_path / "neg.csv"
    assert main(["phase", "-n", "2", "--c-min", "-1", "--c-max", "1",
                 "--ell-min", "-1", "--ell-max", "1", "--resolution", "3",
                 "-o", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
    invalid = [(r[0], r[1]) for r in rows if r[2] == "invalid"]
    assert invalid == [("-1", "-1"), ("-1", "0"), ("-1", "1"), ("0", "-1"),
                       ("0", "0"), ("0", "1"), ("1", "-1"), ("1", "0")]
    assert all(r[3:] == ["invalid", "0", "0", "nan"] for r in rows if r[2] == "invalid")


# ------------------------------------------------------------------ roots


def test_roots_output(tmp_path):
    out = str(tmp_path / "roots.json")
    assert main(["roots", *REF3D_FLAGS, "--count", "3", "-o", out]) == 0
    doc = json.loads(Path(out).read_text())
    radii = [entry["R"] for entry in doc["roots"]]
    assert len(radii) == 3
    assert all(a < b for a, b in zip(radii, radii[1:]))
    assert doc["first_bracket"]["lo"] < radii[0] < doc["first_bracket"]["hi"]


# ------------------------------------------------------------- asymptotics


def test_asymptotics_sweep_trend(tmp_path):
    out = str(tmp_path / "asym.csv")
    assert (
        main(["asymptotics", "-n", "3", "-C", "1.255", "-k", "0.2",
              "--sweep-ell", "upper", "--steps", "4", "-o", out]) == 0
    )
    rows = [
        line.split(",")
        for line in Path(out).read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("ell,")
    ]
    devs = [float(r[3]) for r in rows]
    assert len(devs) == 4
    assert all(b < a for a, b in zip(devs, devs[1:]))


# ------------------------------------------------- simulate + compare chain


def test_simulate_and_compare_chain(tmp_path):
    state_out = str(tmp_path / "state")
    profile_out = str(tmp_path / "prof")
    assert main(["solve", *REF3D_FLAGS, "-o", profile_out]) == 0
    assert (
        main(["simulate", "--potential", "quasi_morse", *REF3D_FLAGS,
              "-N", "64", "--dt", "0.5", "--steps", "200", "--seed", "3",
              "--init", "ball:0.73", "-o", state_out]) == 0
    )
    assert Path(state_out + ".csv").exists()
    assert Path(state_out + ".json").exists()
    records = [
        json.loads(line)
        for line in Path(state_out + ".records.jsonl").read_text().splitlines()
    ]
    assert records and "interaction_energy" in records[0]
    compare_out = str(tmp_path / "cmp")
    assert (
        main(["compare", "--state", state_out, "--profile", profile_out + ".json",
              "--bins", "6", "-o", compare_out]) == 0
    )
    doc = json.loads(Path(compare_out + ".json").read_text())
    assert 0.0 <= doc["l1_error"] <= 2.0
    assert doc["support_error"] >= 0.0
    hist_lines = Path(compare_out + ".csv").read_text().splitlines()
    assert hist_lines[2] == "r_lo,r_hi,density"
    assert len(hist_lines) == 3 + 6


def test_simulate_morse_like_flags(tmp_path):
    out = str(tmp_path / "ml")
    assert (
        main(["simulate", "--potential", "morse_like", "-n", "2",
              "-C", "0.6", "-l", "0.2", "--p", "0.5", "-N", "32",
              "--dt", "0.01", "--steps", "50", "-o", out]) == 0
    )
    assert Path(out + ".csv").exists()


def test_simulate_bad_init_flag(tmp_path):
    assert (
        main(["simulate", "-n", "2", "-C", "0.6", "-l", "0.2", "-N", "8",
              "--steps", "1", "--init", "nonsense", "-o", str(tmp_path / "x")])
        == 5
    )


@pytest.mark.parametrize("counts", [["--stride", "0"], ["--steps", "-1"]])
def test_simulate_rejects_bad_counts(tmp_path, counts):
    # a zero stride used to escape as ZeroDivisionError, negative steps to
    # exit 0 after running nothing
    out = tmp_path / "x"
    assert main(["simulate", *REF3D_FLAGS, "-N", "8", *counts, "-o", str(out)]) == 5
    assert not Path(str(out) + ".csv").exists()


_MORSE_LIKE_FLAGS = ["--potential", "morse_like", "-n", "2", "-C", "0.6", "-l", "0.2"]


@pytest.mark.parametrize("flags", [
    [*REF3D_FLAGS, "--dt", "nan"],
    [*REF3D_FLAGS, "--dt", "inf"],
    [*_MORSE_LIKE_FLAGS, "--p", "nan"],
    [*REF3D_FLAGS, "--init", "ball:nan"],
    [*REF3D_FLAGS, "--init", "gauss:inf"],
    [*REF3D_FLAGS, "--model", "second", "--beta", "inf"],
], ids=["dt_nan", "dt_inf", "p_nan", "ball_nan", "gauss_inf", "beta_inf"])
def test_simulate_rejects_nonfinite_inputs(tmp_path, capsys, flags):
    # the first five once ran and exited 3 ("coordinate exceeded bound"),
    # --beta inf exited 0
    out = tmp_path / "x"
    assert main(["simulate", *flags, "-N", "8", "--steps", "2", "-o", str(out)]) == 5
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert not Path(str(out) + ".csv").exists()


_BAD_CHECKPOINTS = {
    # once an IndexError traceback (exit 1) from both commands
    "header_only": "x1,x2,x3\n",
    # compare once reported "histogram and profile dimensions differ"
    "ragged_row": "x1,x2,x3\n0.1,0.2,0.3\n0.4,0.5\n0.7,0.8,0.9\n",
    # compare once exited 0 with l1_error = nan
    "nonfinite": "x1,x2,x3\n0.1,0.2,0.3\nnan,0.5,0.6\n0.7,0.8,0.9\n",
}


@pytest.mark.parametrize("content", _BAD_CHECKPOINTS.values(), ids=_BAD_CHECKPOINTS.keys())
def test_simulate_rejects_bad_checkpoint(tmp_path, capsys, content):
    bad = tmp_path / "bad.csv"
    bad.write_text(content)
    out = tmp_path / "x"
    assert main(["simulate", *REF3D_FLAGS, "-N", "3", "--steps", "1",
                 "--init", f"file:{bad}", "-o", str(out)]) == 5
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert not Path(str(out) + ".csv").exists()


@pytest.mark.parametrize("content", _BAD_CHECKPOINTS.values(), ids=_BAD_CHECKPOINTS.keys())
def test_compare_rejects_bad_checkpoint(tmp_path, capsys, content):
    profile = str(tmp_path / "prof")
    assert main(["solve", *REF3D_FLAGS, "-o", profile]) == 0
    bad = tmp_path / "bad.csv"
    bad.write_text(content)
    out = tmp_path / "cmp"
    assert main(["compare", "--state", str(bad), "--profile", profile + ".json",
                 "--bins", "2", "-o", str(out)]) == 5
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert not Path(str(out) + ".json").exists()


# ---------------------------------------------------------- specfun table


def test_specfun_table_golden(tmp_path):
    out = str(tmp_path / "sft.csv")
    assert (
        main(["specfun-table", "--orders", "0,0.5", "--x-grid", "log:0.1:10:5",
              "-o", out]) == 0
    )
    lines = [
        line for line in Path(out).read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert lines[0] == "nu,x,J,I,K"
    assert len(lines) == 1 + 10
    # spot value: K_{1/2}(1) in the closed form
    import math

    for line in lines[1:]:
        nu, x, j, i, k = (float(v) for v in line.split(","))
        if nu == 0.5 and abs(x - 1.0) < 1e-9:
            assert k == pytest.approx(math.sqrt(math.pi / 2.0) / math.e, rel=1e-12)


def test_specfun_table_matches_golden_file(tmp_path):
    # byte-for-byte regression against the checked-in grid (validated
    # against an independent oracle when frozen)
    out = str(tmp_path / "regen.csv")
    assert (
        main(["specfun-table", "--orders=-1,-0.5,0,0.5,1,1.5,2,2.5,3,3.5",
              "--x-grid", "log:0.01:100:21", "--scaled", "-o", out]) == 0
    )
    golden = Path(__file__).parent / "data" / "specfun_golden.csv"
    assert read(out) == golden.read_bytes()


def test_specfun_table_hidden_from_help(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])  # argparse prints help and exits
    text = capsys.readouterr().out
    assert "solve" in text
    assert "specfun-table" not in text
