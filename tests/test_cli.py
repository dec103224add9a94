"""End-to-end CLI tests: subcommand behaviour, exit-code contract, metadata
headers, and byte-stability of outputs."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flockdyn import cli
from flockdyn.cli import main
from flockdyn.errors import DegenerateDenominatorError, DomainError, ParameterOverflowError
from flockdyn.potentials import ModelParams, aggregate_param, classify
from flockdyn.simulate import load_checkpoint

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
    # -C inf once exited 2 with A = nan, -k inf exited 3; a value out of
    # range once named no flag ("C, ell and k must be strictly positive")
    out = tmp_path / "inf"
    for command in ("solve", "roots"):
        for value in ("inf", "nan", "0", "-1"):
            flags = {"-C": "1.255", "-l": "0.8", "-k": "0.2", flag: value}
            argv = [command, "-n", "3"] + [v for kv in flags.items() for v in kv]
            assert main([*argv, "-o", str(out)]) == 5
            err = capsys.readouterr().err
            assert err == f"error: {flag} must be positive and finite, got {float(value)}\n"
            assert not out.exists() and not Path(str(out) + ".json").exists()


def test_solve_on_the_separatrix_names_it(tmp_path, capsys):
    # A = 9.993e-05 > 0 here, but |1 - C ell^n| <= EPS_A: the message once
    # said "no flock profile exists for A = 9.993e-05 <= 0"
    assert main(["solve", "-n", "2", "-C", "1.000000000019998", "-l", "0.99999999999",
                 "-k", "1", "-o", str(tmp_path / "sep")]) == 2
    assert capsys.readouterr().err == ("error: no flock profile exists on the separatrix "
                                       "|1 - C ell^n| <= EPS_A = 1e-10 (existence requires A > 0)\n")


@pytest.mark.parametrize("argv, flag", [
    (["solve", *REF3D_FLAGS, "-l", "1e308"], "-l: "),
    (["roots", *REF3D_FLAGS, "-l", "1e308"], "-l: "),
    (["phase", "-n", "3", "--ell-min", "1e308"], "--ell-min/--ell-max: "),
    (["phase", "-n", "2", "--ell-max", "1e308"], "--ell-min/--ell-max: "),
])
def test_ell_power_overflow_names_the_flag(tmp_path, capsys, argv, flag):
    # each once exited 3 with only "(34, 'Numerical result out of range')"
    out = tmp_path / "out"
    assert main([*argv, "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}ell^n overflows the double range at ell = ")
    assert err.count("\n") == 1 and not list(tmp_path.iterdir())


def test_bad_profile_value_names_the_class_and_the_key(tmp_path, capsys):
    # a record read from a file is named by its class and key, never by a flag
    prof = tmp_path / "prof.json"
    assert main(["solve", *REF3D_FLAGS, "--grid", "8", "-o", str(prof)[:-5]]) == 0
    doc = json.loads(prof.read_text())
    prof.write_text(json.dumps({"profile": {**doc["profile"], "k": -1.0}}))
    capsys.readouterr()
    assert main(["verify", "--profile", str(prof), "--grid", "8"]) == 5
    assert capsys.readouterr().err == (
        f"error: {prof}: ModelParams: 'k' must be positive and finite, got -1.0\n")


def test_profile_number_past_the_double_range_names_the_class_and_the_key(tmp_path, capsys):
    # a JSON integer past the double range once exited 3 with only "int too
    # large to convert to float"
    prof = tmp_path / "prof.json"
    assert main(["solve", *REF3D_FLAGS, "--grid", "8", "-o", str(prof)[:-5]]) == 0
    text = prof.read_text().replace('"k": 0.2', '"k": 1' + "0" * 400)
    assert '"k": 1000' in text
    prof.write_text(text)
    capsys.readouterr()
    assert main(["verify", "--profile", str(prof), "--grid", "8"]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prof}: ModelParams: 'k' must be float, got 1000")
    assert err.count("\n") == 1


@pytest.mark.parametrize("content, reason", [
    ("{time: 1}", "Expecting property name"),
    # once a RecursionError traceback
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
], ids=["unquoted_key", "nested_too_deep"])
def test_unparseable_json_input_names_its_file(tmp_path, capsys, content, reason):
    # each once printed only json's "Expecting property name enclosed in
    # double quotes: line 1 column 2 (char 1)", naming no file
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    state = str(tmp_path / "state")
    assert main(["simulate", *REF3D_FLAGS, "-N", "8", "--steps", "1", "-o", state]) == 0
    for argv in (["verify", "--profile", str(bad)],
                 ["compare", "--state", state, "--profile", str(bad), "-o", str(tmp_path / "c")],
                 ["--config", str(bad), "solve", *REF3D_FLAGS, "-o", str(tmp_path / "s")]):
        capsys.readouterr()
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not JSON: {reason}")
        assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bad.json", "state.csv", "state.json", "state.records.jsonl"]


def _profile_commands(tmp_path, profile):
    """verify and compare of a small state, each with ``profile``."""
    state = str(tmp_path / "state")
    assert main(["simulate", *REF3D_FLAGS, "-N", "8", "--steps", "1", "-o", state]) == 0
    return (["verify", "--profile", str(profile), "--grid", "8", "-o", str(tmp_path / "v.json")],
            ["compare", "--state", state, "--profile", str(profile), "--bins", "4",
             "-o", str(tmp_path / "cmp")])


def test_a_json_input_that_is_not_a_profile_names_its_file(tmp_path, capsys):
    # a simulate sidecar once gave only "ModelParams: no 'n' entry", and
    # compare reads two files
    for argv in _profile_commands(tmp_path, tmp_path / "state.json"):
        capsys.readouterr()
        assert main(argv) == 5
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'state.json'}: ModelParams: no 'n' entry\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "state.csv", "state.json", "state.records.jsonl"]


@pytest.mark.parametrize("field", ["mu1", "mu2"])
def test_a_profile_whose_density_overflows_is_refused_naming_its_file(tmp_path, capsys, field):
    # at mu1 = 1e308 compare once exited 0 with two numpy overflow warnings
    # and wrote "l1_error": Infinity, and verify printed a warning before
    # its exit 3
    prof = tmp_path / "prof.json"
    assert main(["solve", *REF3D_FLAGS, "--grid", "8", "-o", str(prof)[:-5]]) == 0
    doc = json.loads(prof.read_text())
    prof.write_text(json.dumps({"profile": {**doc["profile"], field: 1e308}}))
    (tmp_path / "prof.csv").unlink()
    for argv in _profile_commands(tmp_path, prof):
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert not caught
        assert capsys.readouterr().err == (
            f"error: {prof}: the profile's values overflow the double range\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "prof.json", "state.csv", "state.json", "state.records.jsonl"]


def test_out_of_memory_exits_3_and_writes_nothing(tmp_path):
    # once a numpy _ArrayMemoryError traceback, after ref.json was written.
    # The address-space limit makes the allocation fail before it touches
    # any memory
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
             "from flockdyn.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", child, "solve", *REF3D_FLAGS, "--grid", str(10**12), "-o", "ref"],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ") and len(proc.stderr) > 8
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not list(tmp_path.iterdir())


def test_a_memory_error_without_text_is_named(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "solve_profile", exhausted)
    assert main(["solve", *REF3D_FLAGS, "-o", str(tmp_path / "ref")]) == 3
    assert capsys.readouterr().err == "error: MemoryError\n"


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
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert main(["compare", "--state", state, "--profile", str(bad),
                 "-o", str(tmp_path / "cmp")]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1


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


def test_config_null_leaves_dt_to_be_derived(tmp_path):
    # {"dt": null} replaces --dt 0.5 with no value: dt = 0.01 min(1, ell)
    cfg_path = tmp_path / "overrides.json"
    cfg_path.write_text(json.dumps({"dt": None}))
    out = tmp_path / "sim"
    assert main(["--config", str(cfg_path), "simulate", *REF3D_FLAGS, "-N", "3", "--steps", "1",
                 "--dt", "0.5", "-o", str(out)]) == 0
    config = json.loads((tmp_path / "sim.json").read_text())["config"]
    assert config["dt"] == 0.01 * 0.8


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
    aggregate_param at every cell, nan on a degenerate denominator, the
    signed infinity of an A that aggregate_param refuses as past the double
    range, and "invalid" where ModelParams rejects the cell."""
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
                except ParameterOverflowError:
                    a_val = math.copysign(math.inf, (1.0 - c * ell**n) / (c * ell**n - ell * ell))
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
# A = k^2 (1 - C ell^2) / ((C - 1) ell^2) overflows to -inf
@example(window=(2, 1.0, 1, 0.5, 0.5, 2.3362147868591978e-157, 2.3362147868591978e-157))
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


@pytest.mark.parametrize("flags", [
    ["--ratio", "0"],
    ["--ratio", "inf"],
    ["--delta0", "0"],
    ["--steps", "0"],
    ["--steps", "-2"],
    ["--ratio", "-5"],
    ["--delta0", "-0.01"],
    ["--ratio", "1e-300", "--steps", "3"],
    ["--delta0", "2", "--steps", "2"],
    ["--ratio", "1e300", "--steps", "3"],
    ["-C", "0"],
], ids=["ratio_0", "ratio_inf", "delta0_0", "steps_0", "steps_neg", "ratio_neg", "delta0_neg",
        "ratio_overflow", "delta0_past_the_end", "ratio_underflow", "C_0"])
def test_asymptotics_rejects_bad_inputs(tmp_path, capsys, flags):
    # the first three once ended in a ZeroDivisionError traceback, the
    # --steps cases wrote a header-only CSV, the next two exited 5 with
    # only "math domain error" and ratio_overflow exited 3 with only "(34,
    # 'Numerical result out of range')".  A swept ell outside region I
    # exited 5 naming neither flag (delta0_past_the_end: ell <= 0) or 2 with
    # "no flock profile exists for A = 0" (ratio_underflow: ell on the
    # separatrix); -C 0 ended in a ZeroDivisionError traceback
    out = tmp_path / "asym.csv"
    assert main(["asymptotics", "-n", "3", "-C", "1.255", "-k", "0.2",
                 "--sweep-ell", "upper", *flags, "-o", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flags[0] in err
    assert not out.exists()


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


@pytest.mark.parametrize("init", ["ball:abc", "gauss:", "ball", "cube:1.0", "file:"])
def test_simulate_bad_init_value_names_the_flag(tmp_path, capsys, init):
    # "ball:abc" once gave only "could not convert string to float: 'abc'",
    # and "file:" exit 4 with "No such file or directory: '.csv'"
    out = tmp_path / "x"
    assert main(["simulate", *REF3D_FLAGS, "-N", "8", "--steps", "1", "--init", init,
                 "-o", str(out)]) == 5
    assert capsys.readouterr().err == (
        f"error: bad --init {init!r}; use ball:R, gauss:S or file:PATH\n")
    assert not Path(str(out) + ".csv").exists()


def test_simulate_refuses_an_initial_state_beyond_the_bound(tmp_path, capsys):
    # once a force pass on overflowing d^2 (three RuntimeWarnings, errors
    # under this suite's filter), then exit 3 "coordinate exceeded bound
    # 1e+06 at step 0"
    out = tmp_path / "x"
    assert main(["simulate", *REF3D_FLAGS, "-N", "8", "--steps", "2", "--init", "gauss:1e200",
                 "-o", str(out)]) == 5
    assert capsys.readouterr().err == "error: initial state exceeds the blowup bound 1e+06\n"
    assert not Path(str(out) + ".csv").exists()


@pytest.mark.parametrize("counts", [["--stride", "0"], ["--steps", "-1"], ["-N", "1"],
                                    ["--seed", "-1"], ["--steps", "0"]])
def test_simulate_rejects_bad_counts(tmp_path, capsys, counts):
    # a zero stride used to escape as ZeroDivisionError, negative steps to
    # exit 0 after running nothing; --steps and -N then named no flag
    # ("steps must be non-negative", "need at least two particles"), and
    # --seed -1 only numpy's "expected non-negative integer"; --steps 0 exited
    # 0 with an empty records file
    out = tmp_path / "x"
    assert main(["simulate", *REF3D_FLAGS, "-N", "8", *counts, "-o", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {counts[0]} must be at least ") and err.count("\n") == 1
    assert not Path(str(out) + ".csv").exists()


@pytest.mark.parametrize("flags", [
    ["--dt", "0"],
    ["--dt", "-1"],
    ["--dt", "nan"],
    ["--alpha", "inf"],
    ["--beta", "nan"],
    ["--alpha", "0", "--model", "second"],
    ["--beta", "-1", "--model", "second"],
    ["--init", "ball:nan"],
    ["--init", "gauss:inf"],
    ["-C", "-1"],
    ["-l", "0"],
    ["-k", "nan"],
    ["--CA", "nan", "--potential", "morse"],
    ["--la", "0", "--potential", "morse"],
    ["-l", "inf", "--potential", "morse"],
    ["--p", "nan", "--potential", "morse_like"],
    ["-C", "0", "--potential", "morse_like"],
], ids=["dt_0", "dt_neg", "dt_nan", "alpha_inf", "beta_nan", "second_alpha_0",
        "second_beta_neg", "ball_nan", "gauss_inf", "C_neg", "l_0", "k_nan", "morse_CA_nan",
        "morse_la_0", "morse_l_inf", "morse_like_p_nan", "morse_like_C_0"])
def test_simulate_bad_value_names_the_flag(tmp_path, capsys, flags):
    # each once named only the field: "dt must be positive and finite",
    # "alpha and beta must be finite", "second-order runs need alpha, beta > 0",
    # "ball radius must be positive and finite", "C, ell and k must be
    # strictly positive", "Morse strengths and scales must be positive and
    # finite", "MorseLike requires finite p, C, ell > 0"
    out = tmp_path / "x"
    assert main(["simulate", *REF3D_FLAGS, "-N", "8", "--steps", "2", *flags,
                 "-o", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[0]} must be ") and err.count("\n") == 1
    assert not Path(str(out) + ".csv").exists()


@pytest.mark.parametrize("flags", [["--dt", "1e308"], ["--alpha", "1e308"]])
def test_simulate_propulsion_overflow_names_the_flags(tmp_path, capsys, flags):
    # --dt once exited 3 with only "math range error"; --alpha ran through
    # RuntimeWarnings to "coordinate exceeded bound 1e+06 at step 0"
    out = tmp_path / "x"
    assert main(["simulate", *REF3D_FLAGS, "-N", "8", "--steps", "2", "--model", "second",
                 *flags, "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: --alpha, --dt: the propulsion factor exp(alpha dt) overflows ")
    assert err.count("\n") == 1 and not list(tmp_path.iterdir())


@pytest.mark.parametrize("ell, field", [("5e-324", "dt"), ("1e-320", "min_separation")])
def test_simulate_derived_value_names_ell(tmp_path, capsys, ell, field):
    # both derive from ell and underflow to 0; dt was once refused as
    # "--dt must be positive and finite, got 0.0", though no --dt was given
    out = tmp_path / "x"
    assert main(["simulate", "-n", "3", "-C", "1.255", "-l", ell, "-k", "0.2", "-N", "8",
                 "--steps", "2", "-o", str(out)]) == 5
    assert capsys.readouterr().err == (
        f"error: -l: the {field} derived from it must be positive and finite, got 0.0\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags", [["-k", "1e308"], ["-C", "1e308"], ["-k", "1e-320"]])
def test_simulate_exact_force_overflow_names_the_flags(tmp_path, capsys, flags):
    # -k once exited 3 with "(34, 'Numerical result out of range')", -C ran
    # through RuntimeWarnings to "coordinate exceeded bound 1e+06 at step 0";
    # the exact mode now refuses what the tabulated one does.  -k 1e-320,
    # where k min_sep underflows to 0, once exited 5 naming bessel_k_pair
    for mode in ([], ["--exact-forces"]):
        out = tmp_path / "x"
        assert main(["simulate", *REF3D_FLAGS, "-N", "8", "--steps", "2", *flags, *mode,
                     "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: -C, -l, -k: the force table of QuasiMorse(")
        assert err.endswith(" has a non-finite entry\n") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())


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


_STATE = "x1,x2,x3\n0.1,0.2,0.3\n0.4,0.5,0.6\n0.7,0.8,0.9\n"
#: name -> (checkpoint CSV, its JSON sidecar or None)
_BAD_CHECKPOINTS = {
    # once an IndexError traceback (exit 1) from both commands
    "header_only": ("x1,x2,x3\n", None),
    # compare once reported "histogram and profile dimensions differ"
    "ragged_row": ("x1,x2,x3\n0.1,0.2,0.3\n0.4,0.5\n0.7,0.8,0.9\n", None),
    # compare once exited 0 with l1_error = nan
    "nonfinite": ("x1,x2,x3\n0.1,0.2,0.3\nnan,0.5,0.6\n0.7,0.8,0.9\n", None),
    "non_numeric": ("x1,x2,x3\n0.1,0.2,0.3\n0.4,abc,0.6\n0.7,0.8,0.9\n", None),
    "no_coordinate_columns": ("v1,v2,v3\n0.1,0.2,0.3\n", None),
    # once read by position: the velocities as positions, (N, 1) velocities
    # and a column foo as a coordinate
    "velocities_first": ("v1,v2,v3,x1,x2,x3\n" + "0.1,0.2,0.3,0.4,0.5,0.6\n" * 3, None),
    "one_velocity_column": ("x1,x2,x3,v1\n" + "0.1,0.2,0.3,0.4\n" * 3, None),
    "unknown_column": ("x1,foo,x2\n" + "0.1,0.2,0.3\n" * 3, None),
    # once an AttributeError and a TypeError traceback
    "sidecar_not_an_object": (_STATE, "[1]"),
    "sidecar_time_a_list": (_STATE, '{"time": [1]}'),
    # once a message that named no file
    "sidecar_not_json": (_STATE, "{time: 1}"),
    "sidecar_empty": (_STATE, ""),
    "sidecar_time_text": (_STATE, '{"time": "abc"}'),
    # once accepted
    "sidecar_time_nan": (_STATE, '{"time": NaN}'),
    "sidecar_time_inf": (_STATE, '{"time": 1e400}'),
    "sidecar_time_huge_int": (_STATE, '{"time": 1' + "0" * 400 + "}"),
    "sidecar_time_bool": (_STATE, '{"time": true}'),
}


def _bad_checkpoint(tmp_path, case):
    """The CSV path of ``case`` written under tmp_path, and the path its
    error must name."""
    content, sidecar = case
    bad = tmp_path / "bad.csv"
    bad.write_text(content)
    if sidecar is None:
        return bad, bad
    meta = tmp_path / "bad.json"
    meta.write_text(sidecar)
    return bad, meta


@pytest.mark.parametrize("case", _BAD_CHECKPOINTS.values(), ids=_BAD_CHECKPOINTS.keys())
def test_simulate_rejects_bad_checkpoint(tmp_path, capsys, case):
    bad, named = _bad_checkpoint(tmp_path, case)
    out = tmp_path / "x"
    assert main(["simulate", *REF3D_FLAGS, "-N", "3", "--steps", "1",
                 "--init", f"file:{bad}", "-o", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: ") and err.count("\n") == 1
    assert not Path(str(out) + ".csv").exists()


def test_bad_checkpoint_field_names_the_file_and_line(tmp_path, capsys):
    # once only "error: could not convert string to float: 'abc'"
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2,x3\n0.1,0.2,0.3\n0.4,abc,0.6\n0.7,0.8,0.9\n")
    assert main(["simulate", *REF3D_FLAGS, "-N", "3", "--steps", "1",
                 "--init", f"file:{bad}", "-o", str(tmp_path / "x")]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 3: ") and err.count("\n") == 1
    assert err.rstrip().endswith("'abc'")


def test_checkpoint_without_a_sidecar_starts_at_time_zero(tmp_path):
    path = tmp_path / "state.csv"
    path.write_text(_STATE)
    state, meta = load_checkpoint(str(path))
    assert meta is None and state.time == 0.0 and state.positions.shape == (3, 3)


@pytest.mark.parametrize("case", _BAD_CHECKPOINTS.values(), ids=_BAD_CHECKPOINTS.keys())
def test_compare_rejects_bad_checkpoint(tmp_path, capsys, case):
    profile = str(tmp_path / "prof")
    assert main(["solve", *REF3D_FLAGS, "-o", profile]) == 0
    bad, named = _bad_checkpoint(tmp_path, case)
    out = tmp_path / "cmp"
    capsys.readouterr()
    assert main(["compare", "--state", str(bad), "--profile", profile + ".json",
                 "--bins", "2", "-o", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: ") and err.count("\n") == 1
    assert not Path(str(out) + ".json").exists()


# ------------------------------------------------- every numeric flag

_SIMULATE = ["simulate", "-N", "8", "--steps", "2"]
_SIMULATED = ["out.csv", "out.json", "out.records.jsonl"]
#: (base invocation, the outputs a run of it writes, its numeric flags), so
#: that every numeric flag of every command is swept from a small run
_SWEEP = [
    (["solve", *REF3D_FLAGS, "--grid", "8", "-o", "out"], ["out.json", "out.csv"],
     ["-C", "-l", "-k", "--grid", "--root-index"]),
    (["phase", "-n", "3", "--resolution", "4", "-o", "out.csv"], ["out.csv"],
     ["-k", "--c-min", "--c-max", "--ell-min", "--ell-max", "--resolution"]),
    (["verify", "--profile", "prof.json", "--grid", "8", "-o", "out.json"], ["out.json"],
     ["--grid"]),
    (["roots", *REF3D_FLAGS, "--count", "2", "-o", "out.json"], ["out.json"],
     ["-C", "-l", "-k", "--count"]),
    (["asymptotics", "-n", "3", "-C", "1.255", "-k", "0.2", "--sweep-ell", "upper",
      "--steps", "2", "-o", "out.csv"], ["out.csv"],
     ["-C", "-k", "--steps", "--delta0", "--ratio"]),
    ([*_SIMULATE, *REF3D_FLAGS, "-o", "out"], _SIMULATED,
     ["-C", "-l", "-k", "-N", "--dt", "--steps", "--seed", "--stride", "--alpha", "--beta"]),
    ([*_SIMULATE, *REF3D_FLAGS, "--model", "second", "-o", "out"], _SIMULATED,
     ["--dt", "--alpha", "--beta"]),
    ([*_SIMULATE, "--potential", "morse", "-n", "3", "-C", "2.0", "-l", "0.5", "-o", "out"],
     _SIMULATED, ["--CA", "--la"]),
    ([*_SIMULATE, *_MORSE_LIKE_FLAGS, "--p", "0.5", "-o", "out"], _SIMULATED, ["--p"]),
    ([*_SIMULATE, *REF3D_FLAGS, "--exact-forces", "-o", "out"], _SIMULATED,
     ["-C", "-l", "-k", "--dt"]),
    ([*_SIMULATE, *_MORSE_LIKE_FLAGS, "--p", "0.5", "--exact-forces", "-o", "out"], _SIMULATED,
     ["--p", "-C", "-l"]),
    (["compare", "--state", "state", "--profile", "prof.json", "--bins", "2", "-o", "out"],
     ["out.json", "out.csv"], ["--bins"]),
]
_BAD_VALUES = ["nan", "inf", "-inf", "0", "-0", "-1", "1e308", "1e-308"]


def test_every_numeric_flag_at_every_bad_value(tmp_path, monkeypatch, capsys):
    # 360 runs.  Once 20 of them named no flag (phase -k, simulate --seed -1),
    # printed an errno tuple or "math range error", raised a RuntimeWarning
    # (an error under this suite's filter) or exited 0 with particles that
    # never moved (simulate -l 1e-308).  solve, roots and asymptotics at -k
    # 1e308 and 1e-308 once gave a wrong answer (exit 3, "flock_determinant
    # requires R > 0", and exit 2, A = 0); they are refused, naming -k
    monkeypatch.chdir(tmp_path)
    assert main(["solve", *REF3D_FLAGS, "--grid", "8", "-o", "prof"]) == 0
    assert main([*_SIMULATE, *REF3D_FLAGS, "-o", "state"]) == 0
    failures = []
    for base, outputs, flags in _SWEEP:
        for flag in flags:
            for value in _BAD_VALUES:
                for path in tmp_path.glob("out*"):
                    path.unlink()
                capsys.readouterr()
                argv = [*base, f"{flag}={value}"]
                try:
                    code = main(argv)
                except Exception as exc:  # a RuntimeWarning included
                    failures.append(f"{argv}: raised {exc!r}")
                    continue
                err = capsys.readouterr().err
                lines = err.splitlines()
                if code == 0:
                    ok = all(Path(out).exists() and Path(out).stat().st_size for out in outputs)
                else:
                    ok = (code in (2, 3, 5) and err.endswith("\n") and lines[-1].startswith("error: ")
                          and sum(line.startswith("error") for line in lines) == 1
                          and not any(text in err for text in
                                      ("Traceback", "(34,", "math range error"))
                          and (code != 5 or flag in lines[-1]))
                if not ok:
                    failures.append(f"{argv}: exit {code}, stderr {err!r}")
    assert not failures, "\n".join(failures)


_REF2D_FLAGS = ["-n", "2", "-C", "1.1111111111111112", "-l", "0.75", "-k", "0.5"]


@pytest.mark.parametrize("command", ["solve", "roots", "asymptotics"])
@pytest.mark.parametrize("flags", [_REF2D_FLAGS, REF3D_FLAGS], ids=["2d", "3d"])
@pytest.mark.parametrize("k", ["1e-308", "1e308", "1e-160", "1e160", "1e-120"])
def test_a_k_out_of_range_is_refused_naming_the_flag(tmp_path, capsys, command, flags, k):
    # k^2 A_1 underflowed to A = 0 at 1e-308 (exit 2, "no flock profile
    # exists for A = 0"), A was inf at 1e308 (exit 3, "flock_determinant
    # requires R > 0"), and a 3-D solve at 1e-120, whose R*^3 overflows,
    # exited 3 with "(34, 'Numerical result out of range')"
    out = tmp_path / "out"
    argv = [command, *flags, "-k", k, "-o", str(out)]
    if command == "asymptotics":
        argv = [command, *flags[:4], "-k", k, "--sweep-ell", "upper", "--steps", "2",
                "-o", str(out)]
    refused = k != "1e-120" or (command == "solve" and flags is REF3D_FLAGS)
    code = main(argv)
    err = capsys.readouterr().err
    if not refused:
        assert code == 0 and err == ""
        return
    assert code == 3 and err.startswith("error: -k: ") and err.count("\n") == 1
    assert f"at k = {float(k)!r}" in err
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("grid", [
    "foo:0.1:1:3",
    "log:0.1:1:0",
    "log:0.1:1",
    "log:0:1:3",
    "lin:0.1:nan:3",
    "lin:0.1:1:2.5",
])
def test_specfun_table_rejects_bad_x_grid(tmp_path, capsys, grid):
    # the first once ran as a linear grid, the second wrote a header-only
    # CSV, the third exited 5 with an unpacking message
    out = tmp_path / "sf.csv"
    assert main(["specfun-table", "--x-grid", grid, "-o", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: --x-grid") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("orders", ["abc", "0,7"])
def test_specfun_table_rejects_bad_orders(tmp_path, capsys, orders):
    out = tmp_path / "sf.csv"
    assert main(["specfun-table", "--orders", orders, "-o", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: --orders") and err.count("\n") == 1
    assert not out.exists()


def test_specfun_table_at_the_top_of_the_double_range(tmp_path, capsys):
    # integer-order J once took minutes here (its recurrence grew with x);
    # scaled, the table is written, and raw I stops with a clean overflow
    out = tmp_path / "sf.csv"
    start = time.perf_counter()
    assert main(["specfun-table", "--x-grid", "lin:1e308:1e308:2", "--scaled",
                 "-o", str(out)]) == 0
    assert time.perf_counter() - start < 1.0
    rows = [line.split(",") for line in read(out).decode().splitlines()
            if line and not line.startswith("#")][1:]
    values = [float(v) for row in rows for v in row[2:]]
    assert len(rows) == 8 and all(math.isfinite(v) and v != 0.0 for v in values)
    capsys.readouterr()
    assert main(["specfun-table", "--x-grid", "lin:1e308:1e308:2", "-o",
                 str(tmp_path / "raw.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: raw bessel_i") and err.count("\n") == 1
    assert not (tmp_path / "raw.csv").exists()


def test_specfun_table_at_the_smallest_subnormal(tmp_path, capsys):
    # order -1/2's series starts from x^nu 2^-nu where x/2 rounds to 0; this
    # once ended in a traceback with a divide-by-zero warning, then exited 3
    out = tmp_path / "sf.csv"
    assert main(["specfun-table", "--orders=-0.5", "--x-grid", "log:5e-324:1:3",
                 "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line and not line.startswith("#")]
    assert rows[0] == ["nu", "x", "J", "I", "K"] and len(rows) == 4
    first = dict(zip(rows[0], map(float, rows[1])))
    assert first["x"] == 5e-324
    value = math.sqrt(2.0 / math.pi) / math.sqrt(5e-324)  # sqrt(2 / (pi x)), 3.6e161
    assert first["J"] == first["I"] == pytest.approx(value, rel=1e-15)


def test_compare_rejects_zero_bins(tmp_path, capsys):
    # 0 once exited 0 with l1_error = 1.0002 from an empty histogram; both
    # values then exited 5 with "bins must be between 1 and the 2 particles"
    profile = str(tmp_path / "prof")
    assert main(["solve", *REF3D_FLAGS, "-o", profile]) == 0
    state = tmp_path / "state.csv"
    state.write_text("x1,x2,x3\n0.1,0.2,0.3\n0.4,0.5,0.6\n")
    out = tmp_path / "cmp"
    capsys.readouterr()
    for bins in ("0", "3"):  # the state holds 2 particles
        assert main(["compare", "--state", str(state), "--profile", profile + ".json",
                     "--bins", bins, "-o", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: --bins must be at ") and err.count("\n") == 1
        assert not Path(str(out) + ".json").exists()


def test_specfun_table_hidden_from_help(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])  # argparse prints help and exits
    text = capsys.readouterr().out
    assert "solve" in text
    assert "specfun-table" not in text


# ------------------------------------------------------------- the parser

_COMMAND_NAMES = ["solve", "phase", "verify", "roots", "asymptotics", "simulate", "compare",
                  "specfun-table"]
# argparse's help layout and messages differ between Python versions; the
# snapshots in tests/data/help are Python 3.11's at 80 columns
_PY311 = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                            reason="snapshots of Python 3.11's argparse output")


@_PY311
@pytest.mark.parametrize("command", [None, *_COMMAND_NAMES])
def test_help_matches_the_snapshot(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main(["--help"] if command is None else [command, "--help"])
    assert stop.value.code == 0
    snapshot = Path(__file__).parent / "data" / "help" / f"{command or 'flockdyn'}.txt"
    assert capsys.readouterr().out.encode() == snapshot.read_bytes()


@_PY311
@pytest.mark.parametrize("argv, message", [
    (["bogus"], "argument SUBCOMMAND: invalid choice: 'bogus' (choose from 'solve', 'phase', "
                "'verify', 'roots', 'asymptotics', 'simulate', 'compare', 'specfun-table')"),
    ([], "the following arguments are required: SUBCOMMAND"),
    (["--config", "solve"], "the following arguments are required: SUBCOMMAND"),
    (["solve", *REF3D_FLAGS, "--resolution", "8"], "unrecognized arguments: --resolution 8"),
    (["bogus", "solve"], "argument SUBCOMMAND: invalid choice: 'bogus' (choose from 'solve', "
                         "'phase', 'verify', 'roots', 'asymptotics', 'simulate', 'compare', "
                         "'specfun-table')"),
])
def test_usage_errors_keep_their_messages(capsys, argv, message):
    assert main(argv) == 5
    usage = "usage: flockdyn [-h] [--config CONFIG] SUBCOMMAND ...\n"
    assert capsys.readouterr().err == f"{usage}error: {message}\n"


@pytest.mark.parametrize("head", [
    ["--config", "cfg.json"],
    ["--config=cfg.json"],
    ["--config", "phase"],  # a config file named like a command
    ["--config=phase"],
    ["--conf", "phase"],  # argparse takes a prefix of --config
])
def test_config_before_the_command_in_every_form(tmp_path, monkeypatch, head):
    monkeypatch.chdir(tmp_path)
    for name in ("cfg.json", "phase"):
        Path(name).write_text(json.dumps({"grid": 7}))
    assert main([*head, "solve", *REF3D_FLAGS, "--grid", "99", "-o", "out"]) == 0
    assert len(Path("out.csv").read_text().splitlines()) == 3 + 7


def test_main_builds_only_the_chosen_commands_flags(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("phase").write_text("{}")
    added, commands = [], []
    add_argument = argparse.ArgumentParser.add_argument
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, *args, **kwargs):
        if args != ("-h", "--help"):
            added.append(self.prog)
        return add_argument(self, *args, **kwargs)

    def parser_spy(self, name, **kwargs):
        commands.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", parser_spy)
    # only --config may come before the command for it to be built alone
    for head in ([], ["--config", "phase"], ["--conf=phase"]):
        added.clear()
        commands.clear()
        assert main([*head, "solve", *REF3D_FLAGS, "--grid", "4", "-o", "p"]) == 0
        assert set(added) == {"flockdyn", "flockdyn solve"}
        assert commands == ["solve"]
    assert list(cli._COMMANDS) == _COMMAND_NAMES  # every command has a help snapshot


@_PY311
@pytest.mark.parametrize("head", [["-h"], ["--he"], ["--config", "cfg.json", "--help"]])
def test_help_before_the_command_lists_every_command(monkeypatch, capsys, head):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main([*head, "solve", *REF3D_FLAGS])
    snapshot = Path(__file__).parent / "data" / "help" / "flockdyn.txt"
    assert capsys.readouterr().out.encode() == snapshot.read_bytes()
