"""The library's one runtime dependency is numpy: every module of
``src/decqlearn`` imports only the standard library, numpy and the package
itself, and ``pyproject.toml`` declares numpy alone. Every name a module
exports, and every name the package imports, resolves."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_ALLOWED = set(sys.stdlib_module_names) | {"numpy", "decqlearn"}
_MODULES = sorted((_ROOT / "src" / "decqlearn").glob("*.py"))


def _imported(tree: ast.AST) -> set[str]:
    """The top-level names of the absolute imports in ``tree``; a relative
    import stays inside the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_package_has_modules():
    assert "exact_solver.py" in {path.name for path in _MODULES}


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.name)
def test_modules_import_only_stdlib_numpy_and_the_package(path):
    outside = _imported(ast.parse(path.read_text(), filename=str(path))) - _ALLOWED
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_the_import_scan_sees_a_third_party_module():
    tree = ast.parse("import numpy.linalg\nfrom scipy import sparse\nfrom . import game_model\n")
    assert _imported(tree) - _ALLOWED == {"scipy"}


def test_pyproject_depends_on_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((_ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower() for spec in project["dependencies"]]
    assert names == ["numpy"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.name)
def test_every_name_in_all_resolves(path):
    module = importlib.import_module("decqlearn" if path.stem == "__init__" else f"decqlearn.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{path.name} lists {missing} in __all__ but does not define them"


def test_every_name_the_package_imports_resolves():
    # a stale name in __init__.py fails the import itself; each imported
    # name must also be the one its module defines
    tree = ast.parse((_ROOT / "src" / "decqlearn" / "__init__.py").read_text())
    package = importlib.import_module("decqlearn")
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert ("exact_solver", "ExactAnalysis") in imported
    for module, name in imported:
        source = importlib.import_module(f"decqlearn.{module}")
        assert getattr(package, name) is getattr(source, name), f"{module}.{name}"
