"""End-to-end CLI tests: subcommand behaviour, exit-code contract, metadata
headers, and byte-stability of outputs."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from flockdyn.cli import main

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
