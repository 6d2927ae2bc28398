"""The benchmark's workload script reaches into hjbsolve by name: its trace
mode patches the (module, attribute) pairs in its PATCHES list, and it calls
module attributes directly.  These tests read the script's source, without
importing or changing it, and check that every such name still exists, so a
refactor that drops one fails here rather than in a benchmark run."""

import ast
import importlib
from pathlib import Path

WORKLOAD = Path(__file__).resolve().parents[1] / "perfbench" / "workload.py"


def workload_tree():
    return ast.parse(WORKLOAD.read_text(), filename=str(WORKLOAD))


def hjbsolve_modules(tree):
    """The script's top-level names bound to hjbsolve modules."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name, alias.name) for alias in node.names
                         if alias.name.split(".")[0] == "hjbsolve")
        elif isinstance(node, ast.ImportFrom) and node.module == "hjbsolve":
            names.update((alias.asname or alias.name, f"hjbsolve.{alias.name}")
                         for alias in node.names)
    return names


def patched_names(tree):
    """(module name, attribute) of every PATCHES entry."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
                getattr(t, "id", None) for t in node.targets] == ["PATCHES"]:
            return [(entry.elts[0].id, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"{WORKLOAD} has no PATCHES list")


def test_patched_names_exist():
    tree = workload_tree()
    modules = hjbsolve_modules(tree)
    patched = patched_names(tree)
    assert len(patched) >= 10
    missing = [f"{modules[local]}.{attr}" for local, attr in patched
               if not hasattr(importlib.import_module(modules[local]), attr)]
    assert missing == []


def test_called_names_exist():
    tree = workload_tree()
    modules = hjbsolve_modules(tree)
    assert set(modules) >= {"hjbsolve", "solvers", "analysis"}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    missing = sorted(f"{modules[local]}.{attr}" for local, attr in used
                     if not hasattr(importlib.import_module(modules[local]), attr))
    assert missing == []
