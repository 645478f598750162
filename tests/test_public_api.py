"""Every exported name resolves, in each module and in the package namespace,
and the package imports nothing at run time but the standard library and numpy."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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
    # test oracles stay out: the dense Cholesky sampler is imported from mvfbm.fbm
    oracles = {"preset_unstable_cubic", "CholeskySampler", "CovarianceFactorizationError"}
    assert oracles & namespace.keys() == set()


def test_importing_main_module_does_not_run_the_cli():
    module = importlib.import_module("mvfbm.__main__")
    assert callable(module.main)


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random costs 12-18 ms of start-up; only a run that draws may load it
    code = "import mvfbm.cli, sys; assert 'numpy.random' not in sys.modules"
    src = str(Path(mvfbm.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_a_run_without_a_pool_loads_no_pool_machinery(tmp_path):
    # only a --workers >= 2 pool needs them, and they cost about 2 MB of peak RSS
    code = f"""
import sys
import mvfbm.cli
small = ["--outdir", {str(tmp_path)!r}, "--seed", "3"]
assert mvfbm.cli.main(["--command", "convergence", "--workers", "1", "--particles", "8",
                       "--replications", "2", "--deltas", "2^-2,2^-3",
                       "--reference-delta", "2^-5"] + small) == 0
assert mvfbm.cli.main(["--command", "fbm-check", "--steps", "16", "--paths", "64"] + small) == 0
assert mvfbm.cli.main(["--command", "simulate", "--steps", "16", "--particles", "8"] + small) == 0
assert mvfbm.cli.main(["--command", "moments", "--deltas", "2^-2,2^-3", "--particles", "8"]
                      + small) == 0
assert mvfbm.cli.main(["--command", "chaos", "--workers", "1", "--steps", "16",
                       "--particle-counts", "4,8", "--replications", "2"] + small) == 0
print(sorted({{"multiprocessing", "concurrent.futures", "logging"}} & sys.modules.keys()))
"""
    src = str(Path(mvfbm.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.splitlines()[-1] == "[]"


def test_numpy_is_the_only_runtime_dependency():
    allowed = sys.stdlib_module_names | {"numpy"}
    imported = set()
    for source in Path(mvfbm.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                imported |= {(source.name, alias.name) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not a relative import
                imported.add((source.name, node.module))
    assert imported  # the scan found the modules' imports
    assert sorted((name, module) for name, module in imported
                  if module.partition(".")[0] not in allowed) == []


def test_a_rejected_argument_is_an_argument_error():
    # a check raises mvfbm.errors.ArgumentError, which the CLI exits 2 on, so that a bare
    # ValueError from anywhere else stays a defect; only the CLI's text parsers raise one,
    # and _convert types it as a ConfigError that names the option
    parsers = {"_number", "_list", "_boolean", "_one_of", "_label"}
    bare, parsed = [], []
    for source in Path(mvfbm.__file__).parent.glob("*.py"):
        for top in ast.parse(source.read_text(), str(source)).body:
            exempt = source.name == "cli.py" and getattr(top, "name", None) in parsers
            for node in ast.walk(top):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if isinstance(exc, ast.Name) and exc.id == "ValueError":
                        (parsed if exempt else bare).append(f"{source.name}:{node.lineno}")
    assert len(parsed) == len(parsers)  # the scan sees each parser's rejection
    assert bare == []
