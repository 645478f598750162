"""Every exported name resolves, in each module and in the package namespace."""

import importlib
import inspect
import pkgutil

import pytest

import mvfbm

MODULES = sorted(info.name for info in pkgutil.iter_modules(mvfbm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"mvfbm.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    namespace = {}
    exec(f"from mvfbm.{name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()


def test_package_reexports_only_module_exports():
    exported = {attr for name in MODULES for attr in importlib.import_module(f"mvfbm.{name}").__all__}
    public = {
        attr for attr, value in vars(mvfbm).items()
        if not attr.startswith("_") and not inspect.ismodule(value)
    }
    assert public - exported == set()
    namespace = {}
    exec("from mvfbm import *", namespace)
    assert public <= namespace.keys()


def test_importing_main_module_does_not_run_the_cli():
    module = importlib.import_module("mvfbm.__main__")
    assert callable(module.main)
