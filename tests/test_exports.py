import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import strata

MODULES = ["strata"] + [f"strata.{m.name}" for m in pkgutil.iter_modules(strata.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_resolves(module_name):
    # a deleted function must not stay listed as public
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []


def test_import_leaves_scipy_integrate_to_the_first_toy_integration():
    # structural start-up check: a fresh interpreter, so no other test has loaded it
    script = (
        "import sys\n"
        "import strata, strata.cli\n"
        "print('scipy.integrate' in sys.modules)\n"
        "rep = strata.zero_mode_decay_bound(3.0, 1, 1e3)\n"
        "print('scipy.integrate' in sys.modules)\n"
        "print(repr((rep.sigma, rep.constant, rep.sup_weighted, rep.t_at_sup)))\n"
    )
    src = str(Path(strata.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after, values = proc.stdout.splitlines()
    assert before == "False"
    assert after == "True"
    rep = strata.zero_mode_decay_bound(3.0, 1, 1e3)
    assert values == repr((rep.sigma, rep.constant, rep.sup_weighted, rep.t_at_sup))


def test_no_scipy_module_on_the_import_or_the_nonlinear_run_path(tmp_path):
    # a fresh interpreter; the nonlinear run's states are real by
    # construction, so no row takes the c2c reality_defect (counted through a
    # wrapper)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[lattice]\nnx = 8\nny = 16\nnz = 8\n"
                   "[run]\nmode = nonlinear\nt_end = 0.5\noutput_every = 0.1\n"
                   "[init]\ninit_kmax = 2\n")
    script = (
        "import sys\n"
        "import strata, strata.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "calls, defect = [], strata.SpectralField.reality_defect\n"
        "strata.SpectralField.reality_defect = lambda f: calls.append(1) or defect(f)\n"
        f"code = strata.cli.main(['nonlinear', {str(cfg)!r}, '--quiet', "
        f"'--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, len(calls), sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(Path(strata.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "0 0 []"]
    assert (tmp_path / "out" / "nonlinear_diagnostics.csv").exists()
