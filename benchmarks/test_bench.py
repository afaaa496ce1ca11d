"""Tests of the benchmark itself, on the --smoke workloads; no timing gates.

    python -m pytest benchmarks
"""

import csv
import json
import math
import shutil
import subprocess
import sys

import pytest

import bench
import checks
from tracer import WRAPPED, Tracer, _resolve, installed_wrappers

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = bench.workloads(smoke=True)


def _run(name, tmp_path, seed=3):
    from strata.cli import main

    out = tmp_path / name
    wl = WORKLOADS[name]
    assert main(wl.argv(tmp_path, seed, out)) == 0
    return wl, out


def _rewrite_csv(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        fh.writelines(comments)
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _set_column(name, value):
    def edit(rows):
        col = rows[0].index(name)
        for row in rows[1:]:
            row[col] = value
        return rows
    return edit


@pytest.fixture(scope="module")
def nonlinear_out(tmp_path_factory):
    return _run("nonlinear_desk", tmp_path_factory.mktemp("nl"))


def test_nonlinear_check_passes_on_real_output(nonlinear_out):
    wl, out = nonlinear_out
    assert wl.check(out) == []


@pytest.mark.parametrize("corrupt", ["nan_column", "mass_mode", "truncated_checkpoint",
                                     "theta_increase"])
def test_nonlinear_check_rejects_corruption(nonlinear_out, tmp_path, corrupt):
    wl, out = nonlinear_out
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    diag = bad / "nonlinear_diagnostics.csv"
    if corrupt == "nan_column":
        _rewrite_csv(diag, _set_column("u1_l2", "nan"))
    elif corrupt == "mass_mode":
        _rewrite_csv(diag, _set_column("mass_mode", "1e-3"))
    elif corrupt == "theta_increase":
        _rewrite_csv(diag, lambda rows: rows[:1] + rows[1:][::-1])
    else:
        ckpt = bad / "nonlinear_final.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-16])
    assert wl.check(bad)


def test_linear_check(tmp_path):
    wl, out = _run("linear_default", tmp_path)
    assert wl.check(out) == []
    _rewrite_csv(out / "linear_diagnostics.csv", lambda rows: rows[:-1])
    assert any("rows" in p for p in wl.check(out))


def test_weights_ratios_check(tmp_path):
    wl, out = _run("weights_ratios", tmp_path)
    assert wl.check(out) == []
    path = out / "weights_ratio_sweeps.csv"

    def nudge(rows):
        col = rows[0].index("empirical_constant")
        rows[1][col] = f"{float(rows[1][col]) * (1 + 1e-4):.6e}"
        return rows

    _rewrite_csv(path, nudge)
    assert any("rNR" in p for p in checks.check_weights_ratios(str(out)))


def _originals():
    bound = {}
    for module_name, attr_path, _, _ in WRAPPED:
        owner, attr = _resolve(module_name, attr_path)
        bound[(module_name, attr_path)] = vars(owner)[attr]
    return bound


def test_wrappers_are_removed_after_a_traced_call(tmp_path):
    before = _originals()
    wl = WORKLOADS["nonlinear_desk"]
    tracer = Tracer()
    assert tracer.run_main(wl.argv(tmp_path, 1, tmp_path / "out")) == 0
    assert installed_wrappers() == []
    assert _originals() == before
    names = set(tracer.names)
    assert {"cli.main", "simulate.step_nonlinear", "fft.ifftn"} <= names
    assert all(math.isfinite(e) for e in tracer.end)


def test_wrappers_are_removed_when_the_call_raises():
    before = _originals()
    with pytest.raises(SystemExit):
        Tracer().run_main(["no-such-command"])
    assert installed_wrappers() == []
    assert _originals() == before


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(bench.HERE / "bench.py"), "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload):
    result = _bench(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_timed_run_reports_every_end_to_end_metric():
    result = _bench("weights_ratios", trace=0)
    assert result["correct"] and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    copy = tmp_path / "bare"
    shutil.copytree(bench.HERE, copy / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(copy / "benchmarks" / "bench.py"), "--workload",
         "linear_default", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=copy)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
