"""Smoke test of ``tools/output_hashes.py`` at small sizes."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_hashes.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("output_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_hashes_lists_every_output_and_repeats(tmp_path):
    tool = _load_tool()
    sizes = dict(n_part=40, resolution=8, x_points=20)
    lines = tool.output_hashes(tmp_path / "a", **sizes)
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    names = [line.split("  ")[1] for line in lines]
    assert names == sorted(names)
    for tag in ("qm3d", "qm3d_exact", "qm3d_from_file", "qm2d", "ml", "morse", "morse_close",
                "morse_close_exact", "qm3d_far", "qm3d_second", "qm3d_second_stride1",
                "qm3d_one_step", "qm3d_n600", "qm2d_n1000", "morse_close_n600"):
        assert {f"{tag}.csv", f"{tag}.json", f"{tag}.records.jsonl"} <= set(names)
    assert {"ref3d.json", "ref2d.json", "roots3d.json", "roots3d_60.json", "roots2d_60.json",
            "roots2d_400.json", "verify3d.json", "verify2d.csv",
            "verify3d.csv",
            "asymptotics3d.csv", "asymptotics3d_lower.csv", "asymptotics2d_lower.csv",
            "phase3d.csv", "phase2d.csv", "phase2d_edges.csv", "compare3d.json",
            "compare_second.json", "compare_second.csv", "specfun.csv",
            "specfun_wide.csv", "specfun_dense.csv"} <= set(names)
    # the outputs are byte-stable and name no directory: a second run
    # elsewhere gives the same lines
    assert tool.output_hashes(tmp_path / "b", **sizes) == lines


@pytest.mark.parametrize("stderr, code", [("", 2), ("a warning\n", 0)],
                         ids=["exit_2", "stderr_at_exit_0"])
def test_output_hashes_refuses_a_failed_or_noisy_command(tmp_path, monkeypatch, stderr, code):
    # a command that exits 0 but prints a warning once passed the byte gate
    tool = _load_tool()

    def main(argv):
        print("done")
        sys.stderr.write(stderr)
        return code

    monkeypatch.setattr(tool.cli, "main", main)
    with pytest.raises(RuntimeError, match=rf"^solve .* exited {code}: done\n{stderr}$"):
        tool.output_hashes(tmp_path, n_part=40, resolution=8, x_points=20)
