"""Dead-code checks on the package sources, read with `ast`.

Every module of src/hjbsolve/ but __init__.py (which re-exports names) must
use every name it imports, and every private top-level name it defines
(functions, classes, assigned names starting with one underscore) must be
referenced by some module of the package.  Every private method and every
cached property of a top-level class of the package must be read as an
attribute by some module of the package, and every other method and
property, public, by the package, by perfbench/ or by the code of README.md.
Members are matched by name, so no public method or property may share its
name with an attribute of numpy arrays or the builtin containers, which
callers read everywhere, unless SHARED_NAMES lists it with its reason.
Every defaulted parameter of a public top-level function of those modules
must be passed, by keyword or by position, by some call in src/ or
perfbench/; a parameter only tests pass is listed in TEST_HOOKS with its
reason.  Calls are matched by function name, so no other function or method
in src/ or perfbench/ may share the name of an audited one.  Every name in
hjbsolve.__all__ must be read by a module of the package other than
__init__.py, or by perfbench/, or be named in the code of README.md (a
fenced block or an inline `span`).  No module under src/ may load
scipy.sparse.linalg, by an import or by reading it as an attribute of
scipy.sparse, which imports it: the direct backend runs its own BiCGStab
loop, and that module costs every process about 10 MB.  Nor may any load
scipy.sparse itself, by an import of it or of a module in it or by reading
`sparse` off a name bound to scipy: solvers loads scipy's sparse kernels
from their extension file, as initializing scipy.sparse costs every
process about 0.15 s and 20 MB.  Of the test modules, only conftest.py and
those LAYOUT_TESTS lists, each with its reason, may import the operator's
row-set types or read them off a module: the others reach the operator's
rows through the row-set contract in conftest.py, so that a change of
layout touches only it and them.
"""

import ast
import pathlib
import re

import numpy as np
import pytest

import hjbsolve

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hjbsolve"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
CALLERS = {p: ast.parse(p.read_text(), filename=str(p))
           for folder in ("src", "perfbench")
           for p in sorted((ROOT / folder).rglob("*.py"))}
TEST_HOOKS = {
    ("policy_iteration", "on_iterate"):
        "lets tests see every evaluated field, which no report holds",
    ("main", "argv"):
        "lets tests run the CLI in-process; the hjb-bench script reads sys.argv",
}

ROW_SET_TYPES = {"_CsrRows", "_DiagonalRows", "_ShiftedRows"}
LAYOUT_TESTS = {
    "test_blocks.py": "pins where the layouts keep their arrays: in the arrays they were built "
                      "into, diagonals in the CSR data array, allocated on the calling thread",
    "test_matrix_free.py": "checks that its cases reach the matrix-free kernel's gathered axes "
                           "and sub-boxes of several chunks, which no product shows",
    "test_bicgstab.py": "runs the Krylov loop on the direct backend's system matrix, CSR rows "
                        "by design rather than a layout of the operator",
}

CONTAINERS = (np.ndarray, list, dict, str, set, tuple)
# Public members ("Class.name") whose names are attributes of CONTAINERS too,
# each with the reason it is kept.
SHARED_NAMES = {}


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


def class_members(tree, public=False):
    """The private methods and cached properties of a module's top-level
    classes, or with `public` their other methods and properties but the
    dunder ones, as {"Class.name": line}."""
    members = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or node.name.startswith("__"):
                continue
            cached = any(getattr(d, "id", getattr(d, "attr", None)) == "cached_property"
                         for d in node.decorator_list)
            if public != (cached or node.name.startswith("_")):
                members[f"{cls.name}.{node.name}"] = node.lineno
    return members


def unread_members(tree, trees, public=False, named=frozenset()):
    """class_members of `tree` that no tree in `trees` reads as an
    attribute and that are not in `named`; an assignment to the attribute
    is not a read."""
    read = {node.attr for t in trees for node in ast.walk(t)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {name: line for name, line in class_members(tree, public).items()
            if name.split(".")[1] not in read | named}


def shared_members(tree):
    """The public methods and properties, cached or not, of a module's
    top-level classes whose names an attribute of CONTAINERS also has, as
    {"Class.name": line}: the member audit cannot tell whether they are read."""
    attributes = {name for name in set().union(*map(dir, CONTAINERS))
                  if not name.startswith("_")}
    members = {**class_members(tree), **class_members(tree, public=True)}
    return {name: line for name, line in members.items()
            if name.split(".")[1] in attributes}


def defaulted_parameters(tree):
    """{(function, parameter): position} of the defaulted parameters of a
    module's public top-level functions; keyword-only ones have position
    None."""
    found = {}
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for position, arg in enumerate(positional[first:], start=first):
            found[(node.name, arg.arg)] = position
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                found[(node.name, arg.arg)] = None
    return found


def passed_parameters(trees, defaulted):
    """The keys of `defaulted` that some call in `trees` passes, by keyword
    or by position; a call matches a function by its plain or attribute
    name."""
    passed = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords = {k.arg for k in node.keywords}
            for (function, param), position in defaulted.items():
                if function == name and (param in keywords or position is not None
                                         and position < len(node.args)):
                    passed.add((function, param))
    return passed


def loaded_modules(tree):
    """The dotted names a module's absolute imports load, and those its
    attribute chains read from a name an import binds, as scipy.sparse's
    lazy submodules load on such a read: (name, line) pairs."""
    bound, loaded = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                loaded.append((alias.name, node.lineno))
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = alias.name if alias.asname else name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                loaded.append((f"{node.module}.{alias.name}", node.lineno))
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        chain, base = [], node
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if chain and isinstance(base, ast.Name) and base.id in bound:
            loaded.append((".".join([bound[base.id], *reversed(chain)]), node.lineno))
    return loaded


def sparse_linalg_lines(tree):
    """The lines of a module that load scipy.sparse.linalg."""
    return sorted({line for name, line in loaded_modules(tree)
                   if f"{name}.".startswith("scipy.sparse.linalg.")})


def scipy_sparse_lines(tree):
    """The lines of a module that load scipy.sparse or a module in it."""
    return sorted({line for name, line in loaded_modules(tree)
                   if f"{name}.".startswith("scipy.sparse.")})


def row_set_lines(tree):
    """The lines of a module that import a row-set type, or read one as an
    attribute."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and any(alias.name in ROW_SET_TYPES for alias in node.names)
                   or isinstance(node, ast.Attribute) and node.attr in ROW_SET_TYPES})


def test_only_layout_tests_import_the_row_set_types():
    found = {path.name: row_set_lines(ast.parse(path.read_text(), filename=str(path)))
             for path in sorted((ROOT / "tests").glob("*.py"))}
    stray = {name: lines for name, lines in found.items()
             if lines and name not in {"conftest.py", *LAYOUT_TESTS}}
    assert not stray, f"test modules that import a row-set type: {stray}"
    # a listed module that no longer imports one needs no entry
    assert all(found.get(name) for name in LAYOUT_TESTS)


def test_the_row_set_audit_catches_a_stray_import():
    tree = ast.parse(
        "from hjbsolve.solvers import _Sweeper, _DiagonalRows\n"
        "from hjbsolve import solvers\n"
        "def kinds(block):\n"
        "    return [type(rows) is solvers._CsrRows for rows in block.controls]\n"
        "names = ['_ShiftedRows']\n"
        "from conftest import check_rows\n"
    )
    assert row_set_lines(tree) == [1, 4]


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


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_private_method_and_cached_property_is_read(module):
    dead = unread_members(TREES[module.name], TREES.values())
    assert not dead, f"{module.name} defines members nothing reads: {dead}"


def test_the_member_audit_catches_dead_methods():
    tree = ast.parse(
        "from functools import cached_property\n"
        "class Sweeper:\n"
        "    def _used(self):\n"
        "        return self._cache\n"
        "    def _arrival_rows(self):\n"
        "        return 1\n"
        "    @cached_property\n"
        "    def _cache(self):\n"
        "        return self._used()\n"
        "    @cached_property\n"
        "    def spare(self):\n"
        "        return 2\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def public(self):\n"
        "        self._arrival_rows = None\n"
        "        return _arrival_rows\n"
    )
    assert set(class_members(tree)) == {"Sweeper._used", "Sweeper._arrival_rows",
                                        "Sweeper._cache", "Sweeper.spare"}
    assert set(unread_members(tree, [tree])) == {"Sweeper._arrival_rows", "Sweeper.spare"}


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_public_method_and_property_is_read(module):
    trees = [*TREES.values(), *(tree for path, tree in CALLERS.items()
                                if path.is_relative_to(ROOT / "perfbench"))]
    dead = unread_members(TREES[module.name], trees, public=True,
                          named=readme_code_names((ROOT / "README.md").read_text()))
    assert not dead, f"{module.name} defines public members nothing reads: {dead}"


def test_the_member_audit_catches_dead_public_members():
    tree = ast.parse(
        "class Field:\n"
        "    def reshaped(self):\n"
        "        return self.values\n"
        "    def duplicate(self):\n"
        "        return Field()\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 0\n"
        "    @classmethod\n"
        "    def full(cls):\n"
        "        return cls()\n"
        "    def _private(self):\n"
        "        return 1\n"
        "    def __len__(self):\n"
        "        return 0\n"
    )
    callers = ast.parse("field.reshaped()\nfield.duplicate = None\n")
    assert set(class_members(tree, public=True)) == {"Field.reshaped", "Field.duplicate",
                                                     "Field.size", "Field.full"}
    assert set(unread_members(tree, [callers], public=True, named={"full"})) == {
        "Field.duplicate", "Field.size"}


def test_no_public_member_shares_a_container_attribute_name():
    shared = {name: (module, line) for module, tree in TREES.items()
              for name, line in shared_members(tree).items()}
    unlisted = {name: where for name, where in shared.items() if name not in SHARED_NAMES}
    assert not unlisted, f"public members named like a container attribute: {unlisted}"
    # a listed member that is gone, or renamed, needs no entry
    assert set(SHARED_NAMES) <= set(shared)


def test_the_shared_name_audit_catches_an_unused_copy():
    tree = ast.parse(
        "from functools import cached_property\n"
        "class Field:\n"
        "    def copy(self):\n"
        "        return Field()\n"
        "    def reshaped(self):\n"
        "        return self.values\n"
        "    @cached_property\n"
        "    def count(self):\n"
        "        return 0\n"
        "    def _index(self):\n"
        "        return 0\n"
    )
    callers = ast.parse("values.copy()\nfield.reshaped()\nitems.count(1)\nfield._index()\n")
    assert not unread_members(tree, [callers], public=True)
    assert set(shared_members(tree)) == {"Field.copy", "Field.count"}


def readme_code_names(readme):
    """The words in the code of the `readme` text: its fenced blocks and
    inline `spans`."""
    fence = re.compile(r"^```.*?^```", re.S | re.M)
    code = fence.findall(readme) + re.findall(r"`([^`\n]+)`", fence.sub("", readme))
    return set(re.findall(r"\w+", "\n".join(code)))


def unused_exports(exported, trees, readme):
    """The names of `exported` that no tree in `trees` references and no
    code in the `readme` text names, sorted."""
    used = set().union(*map(referenced_names, trees))
    return sorted(set(exported) - used - readme_code_names(readme))


def package_defaults():
    """defaulted_parameters of every module of the package but __init__.py."""
    return {key: position for module in MODULES
            for key, position in defaulted_parameters(TREES[module.name]).items()}


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_loads_scipy_sparse_linalg(path):
    lines = sparse_linalg_lines(CALLERS[path])
    assert not lines, f"{path.name} loads scipy.sparse.linalg on lines {lines}"


def test_the_linalg_audit_catches_every_way_in():
    tree = ast.parse(
        "import scipy.sparse as sp\n"
        "import scipy.sparse.linalg\n"
        "from scipy import sparse\n"
        "from scipy.sparse._sparsetools import csr_matvec\n"
        "from scipy.sparse import linalg as la\n"
        "from scipy.sparse.linalg import bicgstab\n"
        "def solve(A, b):\n"
        "    import scipy.sparse.linalg as spla\n"
        "    return sp.csr_matrix(A) @ b, sparse.linalg.splu(A)\n"
        "def factor(A):\n"
        "    return sp.linalg.splu(A), csr_matvec, sp.identity(3)\n"
        "lin = 'scipy.sparse.linalg'\n"
    )
    assert sparse_linalg_lines(tree) == [2, 5, 6, 8, 9, 11]


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_loads_scipy_sparse(path):
    lines = scipy_sparse_lines(CALLERS[path])
    assert not lines, f"{path.name} loads scipy.sparse on lines {lines}"


def test_the_sparse_audit_catches_every_way_in():
    tree = ast.parse(
        "import scipy\n"
        "import scipy.sparse\n"
        "from scipy import sparse, linalg\n"
        "from scipy.sparse._sparsetools import csr_matvec\n"
        "import scipy.sparse.linalg as spla\n"
        "def kernels():\n"
        "    import scipy.sparse as sp\n"
        "    return scipy.sparse.csr_matrix, scipy.__file__, linalg.norm\n"
        "def folder():\n"
        "    return scipy.__file__, scipy.linalg, 'scipy.sparse._sparsetools'\n"
    )
    assert scipy_sparse_lines(tree) == [2, 3, 4, 5, 7, 8]


def test_every_solver_default_is_passed_somewhere():
    defaulted = package_defaults()
    assert defaulted, "the package has no defaulted public parameters to audit"
    passed = passed_parameters(CALLERS.values(), defaulted)
    unused = sorted(set(defaulted) - passed - set(TEST_HOOKS))
    assert not unused, f"parameters no call in src/ or perfbench/ passes: {unused}"
    # a hook the program itself passes needs no entry, and a gone one none
    assert set(TEST_HOOKS) <= set(defaulted) - passed


def test_audited_functions_have_unique_names():
    # A call that passes a hook by a shared name fails the hook check above,
    # so only functions with a parameter outside TEST_HOOKS need a unique name
    # (perfbench/ defines main(argv=None) too).
    audited = {function for function, param in package_defaults()
               if (function, param) not in TEST_HOOKS}
    definitions = {}
    for path, tree in CALLERS.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name in audited:
                definitions.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
    clashes = {name: where for name, where in definitions.items() if len(where) > 1}
    assert not clashes, f"definitions sharing an audited name: {clashes}"


def test_every_export_has_a_caller_or_a_readme_line():
    trees = [TREES[module.name] for module in MODULES]
    trees += [tree for path, tree in CALLERS.items() if path.is_relative_to(ROOT / "perfbench")]
    unused = unused_exports(hjbsolve.__all__, trees, (ROOT / "README.md").read_text())
    assert not unused, f"exported names no program code reads and README does not name: {unused}"


def test_the_audit_catches_an_unused_default():
    tree = ast.parse(
        "def solve(a, b=1, c=2, *, d=3):\n"
        "    return a\n"
        "def _helper(e=1):\n"
        "    return e\n"
    )
    calls = ast.parse("solve(0, 1)\nmodule.solve(0, d=4)\nc(2)\n")
    defaulted = defaulted_parameters(tree)
    assert defaulted == {("solve", "b"): 1, ("solve", "c"): 2, ("solve", "d"): None}
    assert set(defaulted) - passed_parameters([calls], defaulted) == {("solve", "c")}


def test_the_export_audit_catches_an_unused_name():
    trees = [ast.parse("from .grid import prolongate\nprolongate(v)\nsolvers.api_solve()\n")]
    readme = ("Call `h.kruzkhov_to_time(v)` for times.\n"
              "```python\nentry = h.catalog(name)\n```\n"
              "The residual_diagnostics function, in prose only.\n")
    exported = ["api_solve", "catalog", "kruzkhov_to_time", "prolongate",
                "residual_diagnostics", "spare"]
    assert unused_exports(exported, trees, readme) == ["residual_diagnostics", "spare"]
