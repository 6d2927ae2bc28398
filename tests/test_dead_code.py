"""Dead-code checks on the package sources, read with `ast`.

Every module of src/hjbsolve/ but __init__.py (which re-exports names) must
use every name it imports, and every private top-level name it defines
(functions, classes, assigned names starting with one underscore) must be
referenced by some module of the package.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hjbsolve"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}


def imported_names(tree):
    """The names a module's import statements bind, by line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree):
    """The plain names a module reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def referenced_names(tree):
    """Every name a module reads, plain, as an attribute or by importing it."""
    used = read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def private_definitions(tree):
    """The private top-level names a module defines, by line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in found if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def test_the_package_has_modules():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(module):
    tree = TREES[module.name]
    used = read_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{module.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_referenced(module):
    used = set().union(*map(referenced_names, TREES.values()))
    dead = {name: line for name, line in private_definitions(TREES[module.name]).items()
            if name not in used}
    assert not dead, f"{module.name} defines private names nothing references: {dead}"


def test_the_checks_catch_dead_code():
    tree = ast.parse(
        "from collections import deque\n"
        "from functools import partial, reduce\n"
        "_LIMIT = 1\n"
        "def _helper():\n"
        "    return reduce\n"
        "def _unused():\n"
        "    return _helper()\n"
    )
    assert set(imported_names(tree)) - read_names(tree) == {"deque", "partial"}
    assert set(private_definitions(tree)) - referenced_names(tree) == {"_LIMIT", "_unused"}
