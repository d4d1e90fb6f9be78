"""The package's public names."""

import ast
import importlib
import json
import os
from pathlib import Path

import pytest

import dpl_heatlab as dh
from helpers import fresh_python

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Test-only code that moved into tests/, with the module it left.
MOVED = {"CoefficientHistory": "series", "switch_on_transient": "series",
         "SourceState": "trajectory", "source_state": "trajectory",
         "with_lags": "model", "classical": "model",
         "REGIME_NAMES": "modes"}


def test_every_exported_name_resolves():
    assert len(set(dh.__all__)) == len(dh.__all__)
    for name in dh.__all__:
        getattr(dh, name)


def test_star_import_binds_each_export_from_its_home_module():
    namespace = {}
    exec("from dpl_heatlab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(dh.__all__)
    assert set(dh.__all__) <= set(dir(dh))
    for name, value in namespace.items():
        if name != "__version__":
            home = importlib.import_module(value.__module__)
            assert getattr(home, name) is value, name


def test_a_patch_in_the_home_module_shows_through_the_package(monkeypatch):
    # The tracer and the tests patch home modules; the package must not
    # hold on to the objects it first handed out.
    for name in dh.__all__:
        if name != "__version__":
            home = importlib.import_module(getattr(dh, name).__module__)
            monkeypatch.setattr(home, name, object())
            assert getattr(dh, name) is getattr(home, name), name


def _blas_env(**blas):
    """The environment with only the BLAS variables of ``blas`` set."""
    environ = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    return {**environ, **blas}


def test_importing_the_package_loads_no_numpy_and_no_submodule():
    code = ("import sys, dpl_heatlab; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'numpy' or m.startswith('dpl_heatlab.')))")
    assert fresh_python(code, env=_blas_env()).strip() == "[]"


_BLAS_AT_NUMPY_IMPORT = f"""
import json, os, sys

VARS = {BLAS_VARS!r}
seen = []


class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append({{v: os.environ.get(v) for v in VARS}})


sys.meta_path.insert(0, Probe())
from dpl_heatlab.__main__ import main

rc = main(["--version"])
print(json.dumps([rc, seen, {{v: os.environ.get(v) for v in VARS}}]))
"""


@pytest.mark.parametrize("caller", [{}, {"OPENBLAS_NUM_THREADS": "2"}],
                         ids=["unset", "caller-sets-openblas-2"])
def test_cli_entry_pins_blas_before_numpy_loads(caller):
    out = fresh_python(_BLAS_AT_NUMPY_IMPORT, env=_blas_env(**caller))
    version, probe = out.strip().splitlines()
    rc, seen, after = json.loads(probe)
    expected = {var: caller.get(var, "1") for var in BLAS_VARS}
    assert (version, rc) == (dh.__version__, 0)
    assert seen == [expected]
    assert after == expected


# Still in the package as the tests' reference integrator, but not public.
UNEXPORTED = ("QuadratureSpec", "integrate_columns", "QuadratureNotConverged")
# Unused names deleted outright, with the module they left.
REMOVED = {"load_scenario": "model", "ZERO_ANGULAR_VELOCITY": "errors",
           "temperature": "series", "earliest_escape_time": "trajectory",
           "default_truncation": "series"}


def test_test_only_names_left_the_package():
    for name, module in {**MOVED, **REMOVED}.items():
        assert name not in dh.__all__
        assert not hasattr(dh, name)
        assert not hasattr(importlib.import_module(f"dpl_heatlab.{module}"),
                           name)
    for name in UNEXPORTED:
        assert name not in dh.__all__
        assert not hasattr(dh, name)
    # The mode lookup by (m, n) is tests/helpers.index_of.
    assert not hasattr(dh.ModeTable, "index_of")


def test_no_package_module_imports_scipy():
    # numpy is the only runtime dependency; scipy is a test-only reference.
    package = Path(dh.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), path.name


# The FDM oracle cross-checks the series solver, so its march and input
# checks must stay an independent discretization of the PDE.
ORACLE_FUNCTIONS = ("solve_fdm", "checked_grid", "_source_factors",
                    "_source_grid", "_scheme", "_counts")


def test_fdm_march_uses_nothing_from_the_series_solver():
    from dpl_heatlab import fdm

    tree = ast.parse(Path(fdm.__file__).read_text(encoding="utf-8"))
    from_series = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                # ``from . import series`` binds the module itself.
                module = (node.module or alias.name).split(".")[-1]
                assert module != "modes"
                if module == "series":
                    from_series.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[-1] in ("modes", "series")
                           for alias in node.names)
    assert from_series   # the matched series does use them
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    for name in ORACLE_FUNCTIONS:
        used = {node.id for node in ast.walk(defs[name])
                if isinstance(node, ast.Name)}
        assert not used & from_series, (name, used & from_series)
