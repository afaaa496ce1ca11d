"""The comparison logic of ``tools/same_outputs.py``, on small hand-made output directories."""

import argparse
import importlib.util
import math
import struct
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "same_outputs", Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

CSV = "# manifest=nonlinear_manifest.ini\nt,theta_l2\n0,1.5\n0.10000000000000001,0.25\n"
COEFFS = np.array([1 + 2j, 0.5, 0.0], dtype="<c16")


def _run_dir(path: Path, stamps=("2026-01-01T00:00:00", "2026-01-01T00:00:02")) -> Path:
    path.mkdir()
    (path / "nonlinear_manifest.ini").write_text(
        f"[run]\ncommand = nonlinear\nstarted = {stamps[0]}\nfinished = {stamps[1]}\n"
        "outputs = nonlinear_diagnostics.csv, nonlinear_final.ckpt\n")
    (path / "nonlinear_diagnostics.csv").write_text(CSV)
    head = struct.pack("<4sIIIIdd", b"STCV", 1, 3, 1, 1, 1.0, 0.1)
    (path / "nonlinear_final.ckpt").write_bytes(head + COEFFS.tobytes())
    (path / "exit_status").write_text("0\n")
    return path


def _flip(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 1
    path.write_bytes(bytes(data))


def test_a_changed_manifest_stamp_is_no_difference(tmp_path):
    old = _run_dir(tmp_path / "old")
    new = _run_dir(tmp_path / "new", ("2026-02-03T04:05:06", "2026-02-03T04:05:09"))
    assert same_outputs.compare_dirs(old, new) == []
    # an aborted run leaves finished empty: that is a difference
    aborted = _run_dir(tmp_path / "aborted", ("2026-02-03T04:05:06", ""))
    assert same_outputs.compare_dirs(old, aborted) == [
        ("nonlinear_manifest.ini", "run.finished", math.inf)]


def test_a_manifest_is_compared_key_by_key(tmp_path):
    old = _run_dir(tmp_path / "old")
    manifest = old / "nonlinear_manifest.ini"
    manifest.write_text(manifest.read_text() + "\n[config]\nmode = nonlinear\nseed = 5\n")
    new = _run_dir(tmp_path / "new")
    manifest = new / "nonlinear_manifest.ini"
    manifest.write_text(manifest.read_text().replace("command = nonlinear", "command = linear")
                        + "\n[config]\nseed = 5\n")
    assert same_outputs.compare_dirs(old, new) == [
        ("nonlinear_manifest.ini", "run.command", math.inf),
        ("nonlinear_manifest.ini", "config.mode", math.inf)]
    # a manifest that does not parse is one bytes row
    manifest.write_text("seed = 5\n")
    assert same_outputs.compare_dirs(old, new) == [
        ("nonlinear_manifest.ini", "bytes", math.inf)]


def test_a_flipped_byte_is_reported_per_column_and_per_checkpoint(tmp_path):
    old = _run_dir(tmp_path / "old")
    new = _run_dir(tmp_path / "new")
    _flip(new / "nonlinear_diagnostics.csv", len(CSV) - 2)      # 0.25 -> 0.24
    _flip(new / "nonlinear_final.ckpt", 36)                      # 1 + 2j -> (1 + 2^-52) + 2j
    _flip(new / "exit_status", 0)
    (new / "plot_nonlinear.py").write_text("")
    got = same_outputs.compare_dirs(old, new)
    assert got == [("exit_status", "bytes", math.inf),
                   ("nonlinear_diagnostics.csv", "theta_l2", pytest.approx(0.01 / 0.25)),
                   ("nonlinear_final.ckpt", "coefficients", 2.0 ** -52 / abs(1 + 2j)),
                   ("plot_nonlinear.py", "missing in old", math.inf)]


def test_equal_values_in_other_bytes_show_as_zero(tmp_path):
    old = _run_dir(tmp_path / "old")
    new = _run_dir(tmp_path / "new")
    (new / "nonlinear_diagnostics.csv").write_text(CSV.replace("0.25", "2.5e-1"))
    assert same_outputs.compare_dirs(old, new) == [
        ("nonlinear_diagnostics.csv", "bytes, values equal", 0.0)]


def test_the_tightest_matching_tolerance_holds():
    tolerances = {"*": 1e-12, "t": 0.0, "u?_l2": 1e-10}
    assert same_outputs.tolerance_of("theta_l2", tolerances) == 1e-12
    assert same_outputs.tolerance_of("t", tolerances) == 0.0
    assert same_outputs.tolerance_of("u1_l2", tolerances) == 1e-12
    assert same_outputs.tolerance_of("u1_l2", {"u?_l2": 1e-10}) == 1e-10
    assert same_outputs.tolerance_of("coefficients", {"u?_l2": 1e-10}) == 0.0
    # an intended change of a manifest key is stated with an infinite tolerance
    assert same_outputs._parse_tolerance("config.mode=inf") == ("config.mode", math.inf)
    assert same_outputs.tolerance_of("config.mode", {"config.mode": math.inf}) == math.inf
    with pytest.raises(argparse.ArgumentTypeError):
        same_outputs._parse_tolerance("config.mode=nan")
