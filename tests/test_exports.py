import ast
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


# imports kept for their side effect or as a name the benchmark tracer patches
UNREAD_IMPORTS = {
    "strata": {"numpy"},    # numpy.fft and numpy.random load with the package
    "strata.cli": {"locale"},
    "strata.diagnostics": {"velocity_symbol", "lattice_weights", "log_weighted_l2"},
}


@pytest.mark.parametrize("module_name", MODULES)
def test_no_unread_module_level_import(module_name):
    # a module-level import that nothing reads and that is not exported is dead
    module = importlib.import_module(module_name)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}
    unread = imported - read - set(getattr(module, "__all__", ()))
    assert unread == UNREAD_IMPORTS.get(module_name, set())


@pytest.mark.parametrize("module_name", MODULES)
def test_every_parameter_is_read(module_name):
    # a parameter that no line of its function or lambda reads is a dead knob,
    # such as an argument a refactor left behind
    module = importlib.import_module(module_name)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                  + [p for p in (a.vararg, a.kwarg) if p is not None]]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{getattr(node, 'name', 'lambda')}:{node.lineno} {p}" for p in params
                   if p not in read and p not in ("self", "cls")]
    assert unread == []


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
                   "[run]\nt_end = 0.5\noutput_every = 0.1\n"
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


def test_no_run_command_loads_numpy_ma(tmp_path):
    # a fresh interpreter: np.unique's own path loads numpy.ma, so the
    # weight tables spell it out, and nothing else on a run's path needs it
    cfg = tmp_path / "run.ini"
    cfg.write_text("[lattice]\nnx = 8\nny = 16\nnz = 8\n"
                   "[run]\nt_end = 0.3\noutput_every = 0.1\n")
    script = (
        "import sys\n"
        "import strata.cli\n"
        "print('numpy.ma' in sys.modules)\n"
        f"for argv in (['linear'], ['nonlinear', {str(cfg)!r}],\n"
        "             ['weights', 'ratios', '--samples', '300']):\n"
        f"    code = strata.cli.main(argv + ['--quiet', '--out', {str(tmp_path)!r} + '/' + argv[0]])\n"
        "    print(argv[0], code, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(strata.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "linear 0 False", "nonlinear 0 False",
                                        "weights 0 False"]
