"""The package's public names."""

import ast
import importlib
from pathlib import Path

import dpl_heatlab as dh

# Loaded from fdm on first access, so that series-only commands skip the
# fdm import (about 5.5 ms measured with -X importtime).
LAZY = ("GaussianSourceFactors", "deviation_report",
        "project_gaussian_source_series", "solve_fdm")

# Test-only code that moved into tests/, with the module it left.
MOVED = {"CoefficientHistory": "series", "switch_on_transient": "series",
         "SourceState": "trajectory", "source_state": "trajectory",
         "with_lags": "model", "classical": "model"}


def test_every_exported_name_resolves():
    assert len(set(dh.__all__)) == len(dh.__all__)
    for name in dh.__all__:
        getattr(dh, name)
    fdm = importlib.import_module("dpl_heatlab.fdm")
    for name in LAZY:
        assert name in dh.__all__
        assert getattr(dh, name) is getattr(fdm, name)


# Still in the package as the tests' reference integrator, but not public.
UNEXPORTED = ("QuadratureSpec", "integrate_columns", "QuadratureNotConverged")


def test_test_only_names_left_the_package():
    for name, module in MOVED.items():
        assert name not in dh.__all__
        assert not hasattr(dh, name)
        assert not hasattr(importlib.import_module(f"dpl_heatlab.{module}"),
                           name)
    for name in UNEXPORTED:
        assert name not in dh.__all__
        assert not hasattr(dh, name)


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
