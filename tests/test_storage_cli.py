import argparse
import configparser
import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _hermitian import symmetrized
from strata import cli, simulate
from strata.cli import main
from strata.config import SimConfig
from strata.diagnostics import DiagnosticRow, compute_row
from strata.lattice import Lattice, SpectralField
from strata.simulate import SimState, run_simulation
from strata.storage import (
    CheckpointError,
    checkpoint_bytes,
    load_checkpoint,
    read_csv_columns,
    save_checkpoint,
    state_from_checkpoint,
    write_csv,
)


def _random_state(nx=4, ny=8, nz=4, seed=0, t=3.5):
    lat = Lattice(nx, ny, nz)
    rng = np.random.default_rng(seed)
    c = rng.normal(size=lat.shape) + 1j * rng.normal(size=lat.shape)
    return SimState(t, symmetrized(SpectralField(lat, c)))


class TestCheckpoint:
    def test_roundtrip_bit_exact(self):
        st0 = _random_state(seed=7)
        back = state_from_checkpoint(checkpoint_bytes(st0))
        assert back.t == st0.t
        assert back.field.lattice == st0.field.lattice
        assert np.array_equal(back.field.coeffs, st0.field.coeffs)

    def test_file_roundtrip(self, tmp_path):
        st0 = _random_state(seed=1)
        path = tmp_path / "state.ckpt"
        save_checkpoint(path, st0)
        back = load_checkpoint(path)
        assert np.array_equal(back.field.coeffs, st0.field.coeffs)

    def test_corrupted_magic(self):
        data = checkpoint_bytes(_random_state())
        with pytest.raises(CheckpointError, match="magic"):
            state_from_checkpoint(b"XXXX" + data[4:])

    def test_bad_version(self):
        data = bytearray(checkpoint_bytes(_random_state()))
        data[4:8] = struct.pack("<I", 99)
        with pytest.raises(CheckpointError, match="version"):
            state_from_checkpoint(bytes(data))

    def test_truncation(self):
        data = checkpoint_bytes(_random_state())
        with pytest.raises(CheckpointError, match="size|truncated"):
            state_from_checkpoint(data[:-8])
        with pytest.raises(CheckpointError):
            state_from_checkpoint(data[:10])

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, tmp_path, t):
        path = tmp_path / "state.ckpt"
        save_checkpoint(path, _random_state())
        data = bytearray(path.read_bytes())
        data[28:36] = struct.pack("<d", t)      # the header's t, after ly
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="non-finite time"):
            load_checkpoint(path)

    def test_golden_bytes_layout(self):
        # handcrafted little-endian file, as a foreign writer would produce it
        lat = Lattice(2, 2, 2, ly=8 * math.pi)
        coeffs = np.arange(8, dtype=np.complex128).reshape(2, 2, 2)
        coeffs = coeffs + 1j * (coeffs / 7.0)
        golden = (b"STCV" + struct.pack("<I", 1) + struct.pack("<III", 2, 2, 2)
                  + struct.pack("<d", 8 * math.pi) + struct.pack("<d", 1.25))
        for v in coeffs.ravel(order="C"):
            golden += struct.pack("<dd", v.real, v.imag)
        st = state_from_checkpoint(golden)
        assert st.t == 1.25
        assert st.field.lattice.ly == 8 * math.pi
        assert np.array_equal(st.field.coeffs, coeffs)
        # and our writer emits exactly those bytes back
        assert checkpoint_bytes(st) == golden

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**31))
    def test_roundtrip_property(self, hx, hy, hz, seed):
        st0 = _random_state(2 * hx, 2 * hy, 2 * hz, seed=seed)
        back = state_from_checkpoint(checkpoint_bytes(st0))
        assert np.array_equal(back.field.coeffs, st0.field.coeffs)


def _packed_state(shape, fraction, seed, t=2.5):
    core = simulate._core(Lattice(*shape), fraction)
    rng = np.random.default_rng(seed)
    c = rng.normal(size=core.full_idx.size) + 1j * rng.normal(size=core.full_idx.size)
    c[0] = c[0].real
    return SimState(t, core=core, packed=c)


class TestStreamedCheckpoint:
    """``save_checkpoint`` writes the header, then the field from its own buffer."""

    @staticmethod
    def _saved(state):
        with tempfile.TemporaryDirectory() as d:
            save_checkpoint(os.path.join(d, "s.ckpt"), state)
            assert os.listdir(d) == ["s.ckpt"]          # no .tmp left behind
            with open(os.path.join(d, "s.ckpt"), "rb") as fh:
                return fh.read()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 6),
           st.sampled_from([0.5, 2.0 / 3.0, 0.8, 1.0]), st.integers(0, 2**31))
    def test_file_is_checkpoint_bytes(self, hx, hy, hz, fraction, seed):
        packed = _packed_state((2 * hx, 2 * hy, 2 * hz), fraction, seed)
        data = self._saved(packed)
        assert data == checkpoint_bytes(packed)
        assert packed._field is None                   # nothing cached on the state
        # the same field without a core, as loaded
        loaded = state_from_checkpoint(data)
        assert self._saved(loaded) == data
        # and from a field that is not contiguous
        lat = loaded.field.lattice
        wide = np.zeros((2 * lat.nx, lat.ny, lat.nz), dtype=np.complex128)
        wide[::2] = loaded.field.coeffs
        strided = SimState(loaded.t, SpectralField(lat, wide[::2]))
        assert not strided.field.coeffs.flags.c_contiguous
        assert self._saved(strided) == data

    def test_criterion_8_golden_bytes(self):
        coeffs = (np.arange(8, dtype=np.complex128) * (1 - 0.5j)).reshape(2, 2, 2)
        golden = (b"STCV" + struct.pack("<I", 1) + struct.pack("<III", 2, 2, 2)
                  + struct.pack("<d", 8 * math.pi) + struct.pack("<d", 0.75))
        for v in coeffs.ravel(order="C"):
            golden += struct.pack("<dd", v.real, v.imag)
        assert self._saved(SimState(0.75, SpectralField(Lattice(2, 2, 2), coeffs))) == golden


class TestCsv:
    def test_roundtrip_with_manifest_comment(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["t", "x"], [[0.0, 1.5], [1.0, 2.5]], manifest_name="m.ini")
        text = path.read_text()
        assert text.startswith("# manifest=m.ini\n")
        cols = read_csv_columns(path)
        assert cols["t"] == ["0", "1"]
        assert cols["x"] == ["1.5", "2.5"]


# the flags each toy model and weights action reads, beside --out and --quiet
_READS = {
    ("toy", "orr"): {"--k", "--kappa"},
    ("toy", "zeromode"): {"--tmax"},
    ("toy", "liftup"): {"--tmax", "--epsilon"},
    ("toy", "semigroup"): {"--m"},
    ("weights", "table"): {"--iota", "--cstar"},
    ("weights", "totalgrowth"): {"--iota-max", "--cstar"},
    ("weights", "ratios"): {"--cstar", "--samples", "--lemma", "--seed"},
}
# a valid value of each flag a toy model or weights action once took
_VALUES = {"toy": {"--k": "2", "--kappa": "0.5", "--tmax": "50", "--epsilon": "0.01",
                  "--m": "1", "--seed": "4"},
          "weights": {"--iota": "10", "--iota-max": "100", "--cstar": "1",
                      "--samples": "5", "--lemma": "rNR", "--seed": "9"}}


class TestCli:
    CFG = """
[lattice]
nx = 8
ny = 16
nz = 8

[init]
recipe = random
seed = 11
init_kmax = 2

[run]
epsilon = 1e-3
dt = 0.1
t_end = 2.0
output_every = 1.0
"""

    def _write_cfg(self, tmp_path, extra=""):
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.CFG + extra)
        return str(cfg)

    def test_print_defaults(self, capsys):
        assert main(["linear", "--print-defaults"]) == 0
        out = capsys.readouterr().out
        assert "[lattice]" in out and "dt = 0.1" in out
        # the command is the mode: both commands print one text, with no mode key
        assert main(["nonlinear", "--print-defaults"]) == 0
        assert capsys.readouterr().out == out
        assert not [ln for ln in out.splitlines() if ln.startswith("mode")]
        assert SimConfig.from_text(out, {"mode": "nonlinear"}).mode == "nonlinear"

    @pytest.mark.parametrize("argv", [["missing.ini"], ["--seed", "5"], ["--out", "res"]],
                             ids=["config", "seed", "out"])
    def test_print_defaults_reads_nothing_else(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(["linear", "--print-defaults", *argv]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and captured.out == ""
        assert not (tmp_path / "res").exists()

    def test_linear_run_outputs(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "res"
        assert main(["linear", cfg, "--out", str(out)]) == 0
        csv_path = out / "linear_diagnostics.csv"
        assert csv_path.exists()
        assert (out / "linear_manifest.ini").exists()
        assert (out / "plot_linear.py").exists()
        cols = read_csv_columns(csv_path)
        assert len(cols["t"]) == 3  # t = 0, 1, 2
        text = csv_path.read_text()
        assert text.startswith("# manifest=linear_manifest.ini")
        manifest = (out / "linear_manifest.ini").read_text()
        assert "sigma_min_resolved" in manifest
        assert "seed = 11" in manifest

    def test_deterministic_csv_bytes(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["nonlinear", cfg, "--out", str(out_a), "--quiet"]) == 0
        assert main(["nonlinear", cfg, "--out", str(out_b), "--quiet"]) == 0
        a = (out_a / "nonlinear_diagnostics.csv").read_bytes()
        b = (out_b / "nonlinear_diagnostics.csv").read_bytes()
        assert a == b
        # different seed changes the bytes
        out_c = tmp_path / "c"
        assert main(["nonlinear", cfg, "--out", str(out_c), "--seed", "12",
                     "--quiet"]) == 0
        assert (out_c / "nonlinear_diagnostics.csv").read_bytes() != a

    def test_nonlinear_writes_checkpoint(self, tmp_path):
        cfg = self._write_cfg(tmp_path, extra="checkpoint_every = 1.0\n")
        out = tmp_path / "res"
        assert main(["nonlinear", cfg, "--out", str(out), "--quiet"]) == 0
        ckpts = sorted(p.name for p in out.glob("*.ckpt"))
        assert "nonlinear_final.ckpt" in ckpts
        assert len(ckpts) >= 3
        final = load_checkpoint(out / "nonlinear_final.ckpt")
        assert final.t == pytest.approx(2.0)

    @pytest.mark.parametrize("recipe, dealias", [
        ("single", 2.0 / 3.0), ("multimode", 2.0 / 3.0), ("random", 2.0 / 3.0), ("random", 1.0),
    ], ids=["single", "multimode", "random", "dealias-one"])
    def test_last_theta_l2_is_the_final_checkpoint_l2(self, tmp_path, recipe, dealias):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[lattice]\nnx = 8\nny = 16\nnz = 8\n"
                       "[run]\nepsilon = 0.1\ndt = 0.1\nt_end = 1.0\n"
                       f"output_every = 0.5\ndealias = {dealias}\n[init]\nrecipe = {recipe}\n")
        out = tmp_path / "res"
        assert main(["nonlinear", str(cfg), "--out", str(out), "--quiet"]) == 0
        theta = read_csv_columns(out / "nonlinear_diagnostics.csv")["theta_l2"]
        assert float(theta[-1]) == load_checkpoint(out / "nonlinear_final.ckpt").field.l2()

    def test_the_cli_writes_what_run_simulation_hands_on(self, tmp_path):
        # both iterate simulate.run_states: the CSV holds compute_row of the
        # row states, each periodic checkpoint the bytes of its state
        path = tmp_path / "run.ini"
        path.write_text("[lattice]\nnx = 8\nny = 16\nnz = 8\n[init]\ninit_kmax = 2\n"
                        "[run]\noutput_every = 0.3\nt_end = 2.0\ncheckpoint_every = 0.5\n")
        out = tmp_path / "res"
        assert main(["nonlinear", str(path), "--out", str(out), "--quiet"]) == 0
        cfg = SimConfig.from_file(str(path), {"mode": "nonlinear"})
        rows, ckpts = [], {}
        run_simulation(cfg, on_row=lambda s: rows.append(compute_row(s, cfg.weight_params)),
                       on_checkpoint=lambda s: ckpts.update(
                           {f"nonlinear_t{s.t:08.2f}.ckpt": checkpoint_bytes(s)}))
        write_csv(tmp_path / "want.csv", DiagnosticRow.header(), [r.values() for r in rows],
                  manifest_name="nonlinear_manifest.ini")
        csv = (out / "nonlinear_diagnostics.csv").read_bytes()
        assert len(rows) == 7 and csv == (tmp_path / "want.csv").read_bytes()
        assert len(ckpts) == 4
        assert {p.name: p.read_bytes() for p in out.glob("nonlinear_t*.ckpt")} == ckpts

    def test_negative_checkpoint_spacing_exit_2(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, extra="checkpoint_every = -0.1\n")
        out = tmp_path / "res"
        assert main(["nonlinear", cfg, "--out", str(out)]) == 2
        assert "checkpoint_every" in capsys.readouterr().err
        assert not out.exists()     # rejected before the manifest is written

    @pytest.mark.parametrize("dt, every, names", [
        (0.001, 0.001, ["t00000.001", "t00000.002", "t00000.003"]),
        (0.005, 0.01, ["t00000.01"]),
        (0.01, 0.02, ["t00000.02"]),
    ], ids=["spacing-0.001", "spacing-0.01", "spacing-0.02"])
    def test_checkpoint_names_are_unique(self, tmp_path, dt, every, names):
        # spacings below 0.01 get more decimals; from 0.01 on the names keep two
        cfg = tmp_path / "run.ini"
        cfg.write_text("[lattice]\nnx = 8\nny = 16\nnz = 8\n"
                       f"[run]\ndt = {dt}\nt_end = {3 * dt}\n"
                       f"output_every = {dt}\ncheckpoint_every = {every}\n")
        out = tmp_path / "res"
        assert main(["nonlinear", str(cfg), "--out", str(out), "--quiet"]) == 0
        want = [f"nonlinear_{n}.ckpt" for n in names]
        assert sorted(p.name for p in out.glob("*_t*.ckpt")) == want
        for name in want:
            assert load_checkpoint(out / name).t == pytest.approx(float(name[11:-5]))
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string((out / "nonlinear_manifest.ini").read_text())
        outputs = parser["run"]["outputs"].split(", ")
        assert [n for n in outputs if n.endswith(".ckpt")] == want + ["nonlinear_final.ckpt"]

    def test_zero_epsilon_run(self, tmp_path):
        cfg = tmp_path / "zero.ini"
        cfg.write_text("[lattice]\nnx = 8\nny = 16\nnz = 8\n"
                       "[run]\nepsilon = 0\ndt = 0.1\nt_end = 1.0\n")
        out = tmp_path / "res"
        assert main(["linear", str(cfg), "--out", str(out)]) == 0
        cols = read_csv_columns(out / "linear_diagnostics.csv")
        assert all(float(x) == 0.0 for x in cols["theta_l2"])

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\ndt = -1\n")
        assert main(["linear", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err
        assert main(["linear", str(tmp_path / "missing.ini")]) == 2

    @pytest.mark.parametrize("section, key, value", [
        ("lattice", "ly", "nan"),
        ("run", "epsilon", "nan"),
        ("run", "dt", "nan"),
        ("run", "t_end", "inf"),
        ("run", "output_every", "inf"),
        ("run", "dealias", "nan"),
        ("run", "checkpoint_every", "inf"),
        ("init", "lambda_in", "inf"),
        ("weights", "c_star", "nan"),
        ("weights", "s", "nan"),
        ("weights", "lambda_inf", "inf"),
        ("weights", "delta_tilde", "nan"),
        ("weights", "a", "nan"),
        ("weights", "sigmas", "212, 182, 152, 122, 92, 62, inf"),
    ])
    def test_non_finite_config_exit_2(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "res"
        assert main(["linear", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{key} must be finite" in err
        assert not out.exists()     # rejected before the manifest is written

    @pytest.mark.parametrize("mode, epsilon", [("linear", "1e160"), ("nonlinear", "1e300")])
    def test_epsilon_past_the_rescale_bound_exit_2(self, tmp_path, capsys, mode, epsilon):
        # epsilon^2 / delta_eta overflows: before the bound, linear wrote inf/NaN
        # columns with exit 0 and nonlinear a NaN t = 0 row before its abort
        cfg = tmp_path / "big.ini"
        cfg.write_text(f"[run]\nepsilon = {epsilon}\n")
        out = tmp_path / "res"
        assert main([mode, str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "epsilon" in err
        assert not out.exists()     # rejected before the manifest is written

    def test_large_epsilon_inside_the_bound_gives_finite_rows(self, tmp_path):
        cfg = tmp_path / "big.ini"
        cfg.write_text("[run]\nepsilon = 1e150\n")
        out = tmp_path / "res"
        assert main(["linear", str(cfg), "--out", str(out), "--quiet"]) == 0
        cols = read_csv_columns(out / "linear_diagnostics.csv")
        assert len(cols["t"]) == 101
        for name, vals in cols.items():
            assert all(math.isfinite(float(v)) for v in vals), name

    def test_vanishing_lambda_dot_gives_zero_ck_lambda(self, tmp_path):
        # a valid delta_tilde so small that lambda_dot underflows to -0.0
        cfg = tmp_path / "tiny.ini"
        cfg.write_text("[lattice]\nnx = 8\nny = 16\nnz = 8\n[weights]\ndelta_tilde = 5e-324\n")
        out = tmp_path / "res"
        assert main(["linear", str(cfg), "--out", str(out), "--quiet"]) == 0
        cols = read_csv_columns(out / "linear_diagnostics.csv")
        assert len(cols["t"]) == 101
        for name, vals in cols.items():
            assert all(math.isfinite(float(v)) for v in vals), name
        assert all(float(v) == 0.0 for v in cols["ck_lambda_l10"])
        assert any(float(v) > 0.0 for v in cols["gev_s1_l10"])

    @pytest.mark.parametrize("text, flags", [
        ("[init]\nseed = -5\n", []),
        ("", ["--seed", "-1"]),
    ], ids=["config-file", "flag"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, text, flags):
        cfg = tmp_path / "seed.ini"
        cfg.write_text(text)
        out = tmp_path / "res"
        assert main(["linear", str(cfg), *flags, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()     # rejected before the manifest is written

    @pytest.mark.parametrize("text", [
        "[lattice]\nnx = 2\nny = 2\nnz = 2\n[init]\nrecipe = multimode\n",
        # (1, 1, 1) lies outside the 3-mode kept set of a 0.2 dealias mask
        "[lattice]\nnx = 8\nny = 16\nnz = 8\n[run]\ndealias = 0.2\n"
        "[init]\nrecipe = single\n",
    ], ids=["2x2x2-multimode", "single-outside-dealias"])
    def test_empty_initial_field_exit_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "empty.ini"
        cfg.write_text(text)
        out = tmp_path / "res"
        assert main(["linear", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "linear_diagnostics.csv").exists()

    def test_unknown_flag_is_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["linear", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, kind, flag", [
        *((command, kind, flag) for (command, kind), reads in _READS.items()
          for flag in _VALUES[command] if flag not in reads),
        ("fit", None, "--out"), ("fit", None, "--seed"),
    ])
    def test_a_flag_the_command_does_not_read_is_an_error(self, tmp_path, capsys,
                                                         command, kind, flag):
        out = tmp_path / "res"
        if command == "fit":
            argv = ["fit", str(tmp_path / "series.csv"), "--column", "y", flag,
                    str(out) if flag == "--out" else "3"]
        else:
            argv = [command, kind, flag, _VALUES[command][flag], "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # the usage shown is the one of the command and kind that refuses the flag
        assert err.startswith(f"usage: strata {command} {kind} " if kind else "usage: strata fit ")
        assert f"unrecognized arguments: {flag}" in err
        assert not out.exists()

    def test_each_command_declares_exactly_the_flags_it_reads(self):
        def kinds(parser):
            (action,) = [a for a in parser._actions
                         if isinstance(a, argparse._SubParsersAction)]
            return action.choices

        def flags(parser):
            return {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}

        commands = kinds(cli._build_parser())
        for (command, kind), reads in _READS.items():
            assert flags(kinds(commands[command])[kind]) == reads | {"--out", "--quiet"}
        assert set(kinds(commands["toy"])) | set(kinds(commands["weights"])) == {
            kind for _, kind in _READS}
        for command in ("linear", "nonlinear"):
            assert flags(commands[command]) == {"--print-defaults", "--seed", "--out",
                                                "--quiet"}
        assert flags(commands["fit"]) == {"--column", "--time-column", "--tmin", "--tmax",
                                          "--min-r2", "--quiet"}

    def test_threads_key_is_an_unknown_config_key(self, tmp_path, capsys):
        # numpy.fft takes no worker count, so no config key sets one
        cfg = self._write_cfg(tmp_path, "threads = 2\n")
        out = tmp_path / "thr"
        assert main(["nonlinear", cfg, "--out", str(out), "--quiet"]) == 2
        assert "unknown key 'threads'" in capsys.readouterr().err
        assert not out.exists()

    def test_strata_out_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STRATA_OUT", str(tmp_path / "envout"))
        cfg = self._write_cfg(tmp_path)
        assert main(["linear", cfg, "--quiet"]) == 0
        assert (tmp_path / "envout" / "linear_diagnostics.csv").exists()

    def test_weights_table_contains_hand_value(self, tmp_path):
        out = tmp_path / "w"
        assert main(["weights", "table", "--iota", "10", "--out", str(out),
                     "--quiet"]) == 0
        cols = read_csv_columns(out / "weights_table_iota10.csv")
        rows = {float(t): float(w) for t, w in zip(cols["t"], cols["w_nr"])}
        assert rows[10.0] == pytest.approx(0.1, rel=1e-12)
        assert rows[7.5] == pytest.approx(1e-3, rel=1e-12)

    def test_weights_totalgrowth(self, tmp_path, capsys):
        out = tmp_path / "tg"
        assert main(["weights", "totalgrowth", "--iota-max", "100",
                     "--cstar", "1.0", "--out", str(out)]) == 0
        assert "pass=True" in capsys.readouterr().out

    def test_weights_ratio_sweep(self, tmp_path):
        out = tmp_path / "r"
        assert main(["weights", "ratios", "--samples", "500", "--lemma", "rNR",
                     "--out", str(out), "--quiet"]) == 0
        cols = read_csv_columns(out / "weights_ratio_sweeps.csv")
        assert cols["lemma"] == ["rNR"]
        assert float(cols["empirical_constant"][0]) <= 10.0

    def test_weights_ratio_rows_and_manifest_name_c_star(self, tmp_path):
        out = tmp_path / "r"
        assert main(["weights", "ratios", "--samples", "300", "--cstar", "0.5", "1",
                     "--lemma", "rNR", "--out", str(out), "--quiet"]) == 0
        cols = read_csv_columns(out / "weights_ratio_sweeps.csv")
        assert list(cols) == ["lemma", "samples", "empirical_constant", "worst_tuple",
                              "c_star"]
        assert [float(c) for c in cols["c_star"]] == [0.5, 1.0]
        lines = (out / "weights_ratios_manifest.ini").read_text().splitlines()
        assert {"cstar = 0.5 1.0", "lemma = rNR", "samples = 300"} <= set(lines)

    @pytest.mark.parametrize("action,argv", [
        ("table", ["--iota", "10"]),
        ("totalgrowth", ["--iota-max", "100"]),
    ])
    def test_weights_manifest_records_c_star(self, tmp_path, action, argv):
        out = tmp_path / "w"
        assert main(["weights", action, *argv, "--cstar", "0.5", "2",
                     "--out", str(out), "--quiet"]) == 0
        lines = (out / f"weights_{action}_manifest.ini").read_text().splitlines()
        assert "cstar = 0.5 2.0" in lines

    @pytest.mark.parametrize("argv", [
        ["table", "--iota", "0.5"],
        ["table", "--cstar", "-1"],
        ["totalgrowth", "--iota-max", "1"],
        ["ratios", "--cstar", "0"],
        ["ratios", "--samples", "0"],
        ["totalgrowth", "--cstar", "inf"],
        ["ratios", "--cstar", "1", "nan"],
        ["table", "--iota", "nan"],
        ["table", "--iota=-inf"],
        ["totalgrowth", "--iota-max", "inf"],
        ["totalgrowth", "--iota-max", "nan"],
        ["table", "--iota", "1.5e8"],
        ["table", "--iota=-1e30"],
        ["totalgrowth", "--iota-max", "1e30"],
        ["ratios", "--seed", "-1"],
    ])
    def test_weights_argument_errors_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "w"
        assert main(["weights", *argv, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()     # rejected before the manifest is written

    @pytest.mark.parametrize("argv", [
        ["orr", "--k", "0"],
        ["orr", "--k", "11"],
        ["orr", "--kappa", "nan"],
        ["liftup", "--epsilon", "inf"],
        ["zeromode", "--tmax", "nan"],
        ["zeromode", "--tmax", "-1"],
        ["zeromode", "--tmax", "0"],
        ["liftup", "--tmax", "inf"],
        ["semigroup", "--m", "nan"],
        ["semigroup", "--m", "-1"],
        ["semigroup", "--m", "0", "inf"],
        ["liftup", "--epsilon", "0"],
        ["liftup", "--tmax", "10"],
        # the envelope overflows, or is subnormal or 0
        ["liftup", "--epsilon", "1e155"],
        ["liftup", "--epsilon=-1e155"],
        ["liftup", "--epsilon", "1e154"],
        ["liftup", "--epsilon", "1e-162"],
        ["liftup", "--epsilon", "1e-160"],
    ])
    def test_toy_argument_errors_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "toy"
        assert main(["toy", *argv, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()     # rejected before the manifest is written

    def test_toy_liftup_prints_exponent(self, tmp_path, capsys):
        out = tmp_path / "toy"
        assert main(["toy", "liftup", "--out", str(out)]) == 0
        msg = capsys.readouterr().out
        assert "exponent" in msg
        val = float(msg.split("exponent:")[1].split("(")[0])
        assert val == pytest.approx(1.5, abs=0.1)
        assert (out / "toy_liftup.csv").exists()

    def test_fit_command(self, tmp_path, capsys):
        out = tmp_path / "fit"
        out.mkdir()
        t = np.geomspace(1, 100, 50)
        write_csv(out / "series.csv", ["t", "y"], np.c_[t, t**-2.5].tolist())
        assert main(["fit", str(out / "series.csv"), "--column", "y"]) == 0
        printed = capsys.readouterr().out.strip().splitlines()[-1]
        assert float(printed) == pytest.approx(-2.5, abs=1e-8)

    def test_fit_missing_column(self, tmp_path, capsys):
        out = tmp_path / "fit2"
        out.mkdir()
        write_csv(out / "series.csv", ["t", "y"], [[1.0, 1.0]] * 10)
        assert main(["fit", str(out / "series.csv"), "--column", "z"]) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_fit_nonfinite_value(self, tmp_path, capsys, bad):
        out = tmp_path / "fit3"
        out.mkdir()
        t = np.geomspace(1, 100, 20)
        rows = np.c_[t, t**2].tolist()
        rows[5][1] = bad
        write_csv(out / "series.csv", ["t", "y"], rows)
        assert main(["fit", str(out / "series.csv"), "--column", "y"]) == 2
        assert "fit error" in capsys.readouterr().err

    def test_fit_constant_time_column_exit_2(self, tmp_path, capsys):
        # one distinct time cannot carry a slope, however constant the values
        out = tmp_path / "fit5"
        out.mkdir()
        write_csv(out / "series.csv", ["t", "v"], [[3.0, 5.0]] * 8)
        assert main(["fit", str(out / "series.csv"), "--column", "v"]) == 2
        captured = capsys.readouterr()
        assert "fit error" in captured.err and "distinct" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--column", "label"],
                                      ["--column", "y", "--time-column", "label"]])
    def test_fit_non_numeric_column(self, tmp_path, capsys, argv):
        out = tmp_path / "fit4"
        out.mkdir()
        t = np.geomspace(1, 100, 20)
        write_csv(out / "series.csv", ["t", "y", "label"],
                  [[a, b, "(1, 2, 3)"] for a, b in zip(t, t**2)])
        assert main(["fit", str(out / "series.csv"), *argv]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'label'" in err

    @pytest.mark.parametrize("text", ["", "# manifest=m.ini\n", "t,y\n1,2\n2\n3,4\n",
                                      "t,y\n1,2,3\n"],
                             ids=["empty", "comment-only", "short-row", "long-row"])
    def test_fit_malformed_csv_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main(["fit", str(path), "--column", "y"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_fit_nan_min_r2_exit_2(self, tmp_path, capsys):
        # a NaN floor must not switch the r^2 check off; a floor <= 0 still does
        path = tmp_path / "series.csv"
        t = np.geomspace(1, 100, 40)
        write_csv(path, ["t", "y"], np.c_[t, t**-2 * np.exp(0.5 * np.sin(3 * np.log(t)))].tolist())
        assert main(["fit", str(path), "--column", "y"]) == 2            # r^2 = 0.985
        assert "fit error" in capsys.readouterr().err
        assert main(["fit", str(path), "--column", "y", "--min-r2", "nan"]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and "--min-r2" in captured.err
        assert captured.out == ""
        assert main(["fit", str(path), "--column", "y", "--min-r2", "0"]) == 0

    def test_out_path_that_is_a_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["linear", self._write_cfg(tmp_path), "--out", str(out), "--quiet"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("strata: ") and str(out) in line
        assert out.read_text() == ""

    def test_fit_of_a_directory_exit_2(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path), "--column", "t"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("strata: ") and str(tmp_path) in line

    def test_toy_orr_stiff_coupling_is_a_numerical_abort(self, tmp_path, capsys):
        # at kappa = 50 the integrator cannot hold its tolerance: exit 3 with
        # one line, the manifest written with no outputs and no finished stamp
        out = tmp_path / "orr"
        assert main(["toy", "orr", "--kappa", "50", "--out", str(out), "--quiet"]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("strata: numerical abort: ")
        assert sorted(p.name for p in out.iterdir()) == ["toy_orr_manifest.ini"]
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string((out / "toy_orr_manifest.ini").read_text())
        assert parser["run"]["outputs"] == "" and parser["run"]["finished"] == ""

    def test_toy_semigroup_high_moment_is_finite(self, tmp_path):
        # (sigma^2 + x^2)^75 alone overflows; the constant is about Gamma(151)
        out = tmp_path / "semigroup"
        assert main(["toy", "semigroup", "--m", "150", "--out", str(out), "--quiet"]) == 0
        (c,) = (float(x) for x in read_csv_columns(out / "toy_semigroup.csv")["constant"])
        assert c == pytest.approx(math.gamma(151), rel=1e-3)

    def test_toy_semigroup_overflow_is_a_numerical_abort(self, tmp_path, capsys):
        # the m = 200 integrand, about e^860, overflows float64: exit 3 with one
        # line, the manifest written with no outputs and no finished stamp
        out = tmp_path / "semigroup"
        assert main(["toy", "semigroup", "--m", "200", "--out", str(out), "--quiet"]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("strata: numerical abort: semigroup toy at m=200")
        assert sorted(p.name for p in out.iterdir()) == ["toy_semigroup_manifest.ini"]
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string((out / "toy_semigroup_manifest.ini").read_text())
        assert parser["run"]["outputs"] == "" and parser["run"]["finished"] == ""

    def test_toy_orr_report(self, tmp_path, capsys):
        out = tmp_path / "orr"
        assert main(["toy", "orr", "--k", "1", "--kappa", "1.0",
                     "--out", str(out)]) == 0
        msg = capsys.readouterr().out
        assert "amp_nonresonant ~ eta^" in msg
        cols = read_csv_columns(out / "toy_orr.csv")
        amps = [float(x) for x in cols["amp_nonresonant"]]
        assert all(b > a for a, b in zip(amps, amps[1:]))  # growth in eta

    def test_toy_zeromode_report(self, tmp_path, capsys):
        out = tmp_path / "zm"
        assert main(["toy", "zeromode", "--tmax", "1e3", "--out", str(out)]) == 0
        assert "uniform constant" in capsys.readouterr().out
        cols = read_csv_columns(out / "toy_zeromode.csv")
        assert max(float(x) for x in cols["constant"]) <= 50.0

    def test_toy_summary_schema(self, tmp_path):
        out = tmp_path / "toy"
        assert main(["toy", "semigroup", "--m", "0", "1.5", "--out", str(out),
                     "--quiet"]) == 0
        cols = read_csv_columns(out / "toy_semigroup_summary.csv")
        assert list(cols) == ["model", "params", "fitted_exponent", "r2", "constant"]
        assert cols["model"] == ["semigroup", "semigroup"]

    def test_numerical_abort_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "boom.ini"
        cfg.write_text("[lattice]\nnx = 8\nny = 16\nnz = 8\n"
                       "[init]\nrecipe = random\ninit_kmax = 2\n"
                       "[run]\nepsilon = 200.0\ndt = 5.0\nt_end = 50.0\n"
                       "output_every = 5.0\n")
        out = tmp_path / "res"
        assert main(["nonlinear", str(cfg), "--out", str(out), "--quiet"]) == 3
        assert "numerical abort" in capsys.readouterr().err
        # the partial diagnostics and the abort state are dumped for inspection
        assert (out / "nonlinear_abort.ckpt").exists()
        assert (out / "nonlinear_diagnostics.csv").exists()

    @pytest.mark.parametrize("argv, recorded", [
        (["orr", "--k", "2", "--kappa", "0.5"], ["model = orr", "k = 2", "kappa = 0.5"]),
        (["zeromode", "--tmax", "50"], ["model = zeromode", "tmax = 50.0"]),
        (["liftup", "--tmax", "500", "--epsilon", "0.01"],
         ["model = liftup", "tmax = 500.0", "epsilon = 0.01"]),
        (["semigroup", "--m", "0", "1.5"], ["model = semigroup", "m = 0.0 1.5"]),
    ], ids=["orr", "zeromode", "liftup", "semigroup"])
    def test_toy_manifest_records_model_arguments(self, tmp_path, argv, recorded):
        out = tmp_path / "toy"
        assert main(["toy", *argv, "--out", str(out), "--quiet"]) == 0
        text = (out / f"toy_{argv[0]}_manifest.ini").read_text()
        config = text.split("[config]\n")[1].splitlines()
        assert [ln for ln in config if ln and not ln.startswith("#")] == recorded

    ABORT_CFG = ("[lattice]\nnx = 8\nny = 16\nnz = 8\n[init]\nrecipe = random\ninit_kmax = 2\n"
                 "[run]\nepsilon = 200.0\ndt = 5.0\nt_end = 50.0\noutput_every = 5.0\n")
    EMPTY_CFG = "[lattice]\nnx = 2\nny = 2\nnz = 2\n[init]\nrecipe = multimode\n"

    @pytest.mark.parametrize("argv, cfg_text, code", [
        (["linear"], CFG, 0),
        (["nonlinear"], CFG, 0),
        (["nonlinear"], CFG + "checkpoint_every = 1.0\n", 0),
        (["nonlinear"], ABORT_CFG, 3),
        (["linear"], EMPTY_CFG, 2),
        (["toy", "orr", "--k", "1", "--kappa", "1.0"], None, 0),
        (["toy", "zeromode", "--tmax", "1e4"], None, 0),
        (["toy", "liftup"], None, 0),
        (["toy", "semigroup", "--m", "0", "1.5", "2.5", "3"], None, 0),
        (["weights", "table", "--iota", "10", "--cstar", "0.5", "1", "2"], None, 0),
        (["weights", "totalgrowth", "--cstar", "0.5", "1", "2"], None, 0),
        (["weights", "ratios", "--samples", "500", "--seed", "7"], None, 0),
    ], ids=["linear", "nonlinear", "nonlinear-checkpoints", "nonlinear-abort",
            "linear-empty-field", "toy-orr", "toy-zeromode", "toy-liftup", "toy-semigroup",
            "weights-table", "weights-totalgrowth", "weights-ratios"])
    def test_manifest_lists_exactly_the_files_written(self, tmp_path, argv, cfg_text, code):
        out = tmp_path / "res"
        if cfg_text is not None:
            (tmp_path / "run.ini").write_text(cfg_text)
            argv = [*argv, str(tmp_path / "run.ini")]
        assert main([*argv, "--out", str(out), "--quiet"]) == code
        (manifest,) = out.glob("*_manifest.ini")
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(manifest.read_text())
        outputs = [name for name in parser["run"]["outputs"].split(", ") if name]
        assert sorted(p.name for p in out.iterdir()) == sorted(outputs + [manifest.name])
        assert bool(parser["run"]["finished"]) == (code == 0)   # stamped on success only
