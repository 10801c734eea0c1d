"""The library's one runtime dependency is numpy: every module of
``src/decqlearn`` imports only the standard library, numpy and the package
itself, and ``pyproject.toml`` declares numpy alone. Every name a module
exports, every name the package imports, and every name the benchmark
scripts read from the package, resolves."""

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


def _package_reads(tree: ast.AST) -> list[tuple[str, str]]:
    """The (dotted path, name) pairs that ``tree`` reads from the package:
    each name imported from a ``decqlearn`` module, and each attribute read
    through a name bound to a ``decqlearn`` module or one of its names (an
    ``import decqlearn``, or a ``from decqlearn import orchestrator``), in
    any scope."""
    reads, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "decqlearn":
                    bound[alias.asname or "decqlearn"] = alias.name if alias.asname else "decqlearn"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "decqlearn":
            for alias in node.names:
                reads.append((node.module, alias.name))
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            reads.append((bound[node.value.id], node.attr))
    return reads


def _defines(path: str, name: str) -> bool:
    """True iff the object at dotted path ``path`` of the package (a module,
    or a name a module defines) has attribute ``name``, a submodule
    included."""
    try:
        owner = importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, last = path.rpartition(".")
        owner = getattr(importlib.import_module(module), last, None)
    if hasattr(owner, name):
        return True
    try:
        importlib.import_module(f"{path}.{name}")
    except ImportError:
        return False
    return True


def test_every_name_the_benchmarks_read_resolves():
    # the benchmark scripts import the package by name from outside it, so
    # a deleted or renamed name would break them unseen by the package's own
    # tests
    reads = [
        read
        for path in sorted((_ROOT / "benchmarks").glob("*.py"))
        for read in _package_reads(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert ("decqlearn.acyclicity", "build_br_graph") in reads
    assert ("decqlearn.orchestrator", "sample_transition") in reads
    missing = sorted({f"{path}.{name}" for path, name in reads if not _defines(path, name)})
    assert not missing, f"the benchmarks read {missing}, which the package lacks"


def test_the_benchmark_scan_sees_module_bindings():
    tree = ast.parse(
        "import decqlearn\nfrom decqlearn import cli\nfrom decqlearn.acyclicity import build_br_graph as b\n"
        "def f():\n    from decqlearn import orchestrator\n    return orchestrator.gone(cli.main, b.x, decqlearn.__file__)\n"
    )
    assert sorted(_package_reads(tree)) == [
        ("decqlearn", "__file__"),
        ("decqlearn", "cli"),
        ("decqlearn", "orchestrator"),
        ("decqlearn.acyclicity", "build_br_graph"),
        ("decqlearn.acyclicity.build_br_graph", "x"),
        ("decqlearn.cli", "main"),
        ("decqlearn.orchestrator", "gone"),
    ]
    assert not _defines("decqlearn.orchestrator", "gone")
    assert _defines("decqlearn", "cli") and _defines("decqlearn.orchestrator", "sample_transition")
