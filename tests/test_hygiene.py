"""Source hygiene, checked with the stdlib ast module.

- No package module or test file imports a name it never uses: a stand-in
  for a linter's unused-import rule. The package's __init__.py is exempt,
  since its imports are the package's re-exports.
- Only opnum, which stores operator windows, reads a window's dense .mat
  array.
- The public surface is exact: every name in qglue.__all__ is bound and
  listed once, and every name __init__.py imports is listed there.
- The public surface is used: every name in qglue.__all__ is imported from
  qglue by a test file or named in backticks in README.md. A name nothing
  uses stays importable from its submodule.
- Windows are sized by the ParamSet alone: no function (or dataclass) in
  the package that takes params also takes a window size d or w, and the
  window constructors TruncOp, identity, zero and diag_op take no radius w
  (an integer-lattice window's radius is read off its dimension).
- Arithmetic is written once per kind of element: only CoefPoly, TermSum
  (the sparse term sums NCPoly, LaurentPoly and BiLaurent share), TruncOp
  and FibrePair define __add__, __mul__ or __pow__.
- The suites build every record through their one check runner: suites.py
  has no try statement and constructs CheckRecord once.
- Every name perfbench/tracer.py wraps resolves on the package, so a rename
  shows here and not first in a traced benchmark run.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import qglue

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qglue"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
README = PACKAGE.parent.parent / "README.md"
TRACER = PACKAGE.parent.parent / "perfbench" / "tracer.py"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing else in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


def test_checker_finds_an_unused_import():
    source = "from fractions import Fraction\nimport numpy as np\nx = np.zeros(1)\n"
    assert unused_imports(source) == ["line 1: Fraction"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_test_file_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


# module name -> the functions outside opnum allowed to read .mat (none)
MAT_READERS = {}


def mat_readers(source: str) -> set[str]:
    """Dotted names of the functions (or "<module>") that read an attribute
    named mat."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "mat":
                found.add(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_checker_finds_mat_readers():
    source = (
        "x = op.mat\n"
        "def f(op):\n    return [m.mat for m in op]\n"
        "class C:\n    def g(self):\n        return self.mat.shape\n"
        "def h(op):\n    return op.matrix\n"
    )
    assert mat_readers(source) == {"<module>", "f", "C.g"}


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem != "opnum"], ids=lambda p: p.name
)
def test_only_the_window_store_reads_dense_windows(path):
    assert mat_readers(path.read_text()) <= MAT_READERS.get(path.stem, set())


def test_public_names_are_bound_and_listed_once():
    missing = [name for name in qglue.__all__ if not hasattr(qglue, name)]
    assert missing == []
    repeated = sorted({name for name in qglue.__all__ if qglue.__all__.count(name) > 1})
    assert repeated == []


def test_every_reexport_is_public():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    assert sorted(imported - set(qglue.__all__)) == []


def unused_public_names(public, test_sources, readme: str) -> list[str]:
    """The names of public that no test source imports from qglue and that
    no backtick span of readme names (as a whole or as a dotted part)."""
    imported = {
        alias.name
        for source in test_sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "qglue"
        for alias in node.names
    }
    named = {
        word
        for span in re.findall(r"`([^`]*)`", readme)
        for word in re.findall(r"[A-Za-z_]\w*", span)
    }
    return sorted(set(public) - imported - named)


def test_checker_finds_unused_public_names():
    tests = ["from qglue import a, b\n", "import qglue\nfrom qglue.glue import c\nqglue.d\n"]
    readme = "Use `e` or `qglue.kpair.f(x)`; g is plain text, and `gg` is not g.\n"
    assert unused_public_names(list("abcdefg"), tests, readme) == ["c", "d", "g"]


def test_every_public_name_is_used():
    tests = [path.read_text() for path in TESTS]
    assert unused_public_names(qglue.__all__, tests, README.read_text()) == []


def signatures(source: str) -> dict[str, set[str]]:
    """Dotted name -> parameter names of every function of a module, nested
    ones and methods included; a class maps to its annotated fields, which
    are its __init__ parameters when it is a dataclass."""
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.ClassDef):
                found[name] = {
                    stmt.target.id
                    for stmt in child.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                }
            else:
                args = child.args
                found[name] = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            visit(child, name)

    visit(ast.parse(source), "")
    return found


def window_knobs(source: str) -> list[str]:
    """The functions and dataclasses that take a ParamSet (params) and a
    window size (d or w) of their own."""
    return sorted(
        name for name, args in signatures(source).items() if "params" in args and args & {"d", "w"}
    )


def test_checker_finds_window_knobs():
    source = (
        "def f(x, params, d=None):\n    pass\n"
        "def g(params, *, w):\n    pass\n"
        "def h(d, w):\n    pass\n"
        "class M:\n    params: object = None\n    w: int = 0\n"
        "    def k(self, params):\n        def inner(params, d):\n            pass\n"
        "class ParamSet:\n    d: int = 64\n    w: int = 8\n"
    )
    assert window_knobs(source) == ["M", "M.k.inner", "f", "g"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_windows_are_sized_by_the_paramset(path):
    assert window_knobs(path.read_text()) == []


# the window constructors: an integer-lattice window's radius is read off its
# dimension 2w + 1, so none of them takes one
WINDOW_CONSTRUCTORS = ("TruncOp.__init__", "TruncOp._new", "identity", "zero", "diag_op")


def test_window_constructors_take_no_radius():
    found = signatures((PACKAGE / "opnum.py").read_text())
    assert [name for name in WINDOW_CONSTRUCTORS if "w" in found[name]] == []


# the classes that own an arithmetic: the exact ring, the sparse term sums
# over it, operator windows and fibre pairs
ARITHMETIC_OWNERS = {"CoefPoly", "TermSum", "TruncOp", "FibrePair"}
ARITHMETIC_DUNDERS = {"__add__", "__mul__", "__pow__"}


def arithmetic_classes(source: str) -> set[str]:
    """Names of the classes that define (or assign) __add__, __mul__ or
    __pow__ in their body."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {stmt.name}
            elif isinstance(stmt, ast.Assign):
                names = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            else:
                continue
            if names & ARITHMETIC_DUNDERS:
                found.add(node.name)
    return found


def test_checker_finds_arithmetic_classes():
    source = (
        "class A:\n    def __add__(self, other):\n        pass\n"
        "class B(A):\n    __mul__ = A.__add__\n"
        "class C:\n    __radd__ = None\n    def __matmul__(self, other):\n        pass\n"
        "def f():\n    class D:\n        def __pow__(self, n):\n            pass\n"
    )
    assert arithmetic_classes(source) == {"A", "B", "D"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_arithmetic_lives_in_its_owners(path):
    assert arithmetic_classes(path.read_text()) <= ARITHMETIC_OWNERS


def record_sites(source: str) -> tuple[int, int]:
    """(try statements, CheckRecord constructions) of a module."""
    tries = records = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            tries += 1
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            records += name == "CheckRecord"
    return tries, records


def test_checker_finds_tries_and_record_constructions():
    source = (
        "def f(x):\n    try:\n        return CheckRecord(x)\n"
        "    except ValueError:\n        return report.CheckRecord(None)\n"
        "def g():\n    try:\n        pass\n    finally:\n        CheckRecords()\n"
        "r = CheckRecord\n"
    )
    assert record_sites(source) == (2, 2)


def test_suites_build_every_record_in_their_runner():
    assert record_sites((PACKAGE / "suites.py").read_text()) == (0, 1)


def tracer_targets() -> list[tuple[str, str]]:
    """The (module, attribute) names tracer.py wraps: its SPAN_TARGETS and
    AGGREGATE_TARGETS keys. The file is read and run in a fresh namespace,
    so nothing is imported from or written next to it."""
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return [*namespace["SPAN_TARGETS"], *namespace["AGGREGATE_TARGETS"]]


def unresolved(targets) -> list[str]:
    """The targets the tracer could not wrap: a Class.method missing from
    the class __dict__ (an inherited method does not count), or a plain
    name that is no module attribute."""
    missing = []
    for module_name, attr in targets:
        module = importlib.import_module(module_name)
        owner, _, name = attr.rpartition(".")
        if owner:
            cls = getattr(module, owner, None)
            found = cls is not None and name in vars(cls)
        else:
            found = hasattr(module, name)
        if not found:
            missing.append(f"{module_name}.{attr}")
    return missing


def test_checker_finds_unresolved_tracer_targets():
    targets = [
        ("qglue.glue", "fp_matmul"),
        ("qglue.glue", "nope"),
        ("qglue.ncpoly", "SymMatrix.__matmul__"),
        ("qglue.ncpoly", "NCPoly.__mul__"),
        ("qglue.ncpoly", "Nope.__mul__"),
    ]
    assert unresolved(targets) == [
        "qglue.glue.nope",
        "qglue.ncpoly.NCPoly.__mul__",
        "qglue.ncpoly.Nope.__mul__",
    ]


def test_tracer_targets_resolve_on_the_package():
    targets = tracer_targets()
    assert ("qglue.glue", "fp_matmul") in targets
    assert ("qglue.opnum", "TruncOp.__matmul__") in targets
    assert unresolved(targets) == []
