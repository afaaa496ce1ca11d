import importlib
import pkgutil

import pytest

import strata

MODULES = ["strata"] + [f"strata.{m.name}" for m in pkgutil.iter_modules(strata.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_resolves(module_name):
    # a deleted function must not stay listed as public
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []
