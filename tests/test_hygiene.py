"""Source hygiene, checked with the stdlib ast module.

- No package module or test file imports a name it never uses: a stand-in
  for a linter's unused-import rule.
- No package function reads a window's dense .mat array, and only
  opnum.inv_sqrt_psd reaches numpy's linalg (for vector norms): every
  reader works on the stored diagonals, and no check takes an SVD.
- A presentation's table of remembered reductions has one owner: only
  Presentation.__init__ (which makes it) and presentations._remembered
  touch ._nf_cache.
- The E_N degree bound has one reader: no package module but idempotents
  names EN_CAP, so every degree a run reports comes from en_degrees.
- A pairing is judged in one place: no package module but kpair reads the
  attribute rounded, so every status comes from kpair.classify.
- The public surface is exact: every name in qglue.__all__ is bound and
  listed once; __all__ is the _EXPORTS table, each of whose names is the
  object its submodule binds; and importing qglue loads no submodule.
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
  shows here and not first in a traced benchmark run, and the harness's own
  self-check (python3 perfbench/selfcheck.py) passes in a fresh process.
- No input is dead: every parameter with a default and every keyword-only
  parameter of a package function is passed by some call in the package
  or perfbench, so none is passed by the tests alone.
- No code is dead: every function and method of the package is read, by
  name, somewhere in the package or perfbench (dunders and the console
  entry point aside), so nothing is kept only for the tests.
- Suite checks are self-contained: no lambda or nested def in suites.py
  reads a name that a for statement of its enclosing function rebinds, so
  a compute gives the same result whenever the runner calls it.
- Only the process entry point, entry.main, freezes the garbage collector
  or ends the process: gc.freeze, gc.disable and os._exit appear nowhere
  else in the package, so a library caller never inherits a frozen or
  disabled collector.
- A launch reads its command line before any numeric import: the package
  __init__, __main__, the command line front (entry), the params module and
  every qglue module they import import only the standard library and each
  other at module level.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_test_file_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


# module name -> the functions allowed to reach numpy's linalg
LINALG_USERS = {"opnum": {"inv_sqrt_psd"}}
# module name -> the functions allowed to touch a presentation's table
TABLE_USERS = {"presentations": {"Presentation.__init__", "_remembered"}}


def node_users(source: str, matches) -> set[str]:
    """Dotted names of the functions (or "<module>") holding a node for
    which matches(node) is true."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if matches(child):
                found.add(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def attribute_users(source: str, attr: str) -> set[str]:
    """The functions that read or write an attribute named attr."""
    return node_users(source, lambda node: isinstance(node, ast.Attribute) and node.attr == attr)


def reaches_linalg(node) -> bool:
    """An attribute named linalg, or an import of a linalg module or name."""
    if isinstance(node, ast.Attribute):
        return node.attr == "linalg"
    if isinstance(node, ast.ImportFrom):
        names = (node.module or "").split(".") + [alias.name for alias in node.names]
    elif isinstance(node, ast.Import):
        names = [part for alias in node.names for part in alias.name.split(".")]
    else:
        return False
    return "linalg" in names


def test_checker_finds_mat_readers():
    source = (
        "x = op.mat\n"
        "def f(op):\n    return [m.mat for m in op]\n"
        "class C:\n    def g(self):\n        return self.mat.shape\n"
        "def h(op):\n    return op.matrix\n"
    )
    assert attribute_users(source, "mat") == {"<module>", "f", "C.g"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_window_store_reads_dense_windows(path):
    # the store is the diagonals: no package function reads .mat
    assert attribute_users(path.read_text(), "mat") == set()


def test_checker_finds_linalg_users():
    source = (
        "from numpy.linalg import svd\n"
        "def f(m):\n    return np.linalg.norm(m, 2)\n"
        "class C:\n    def g(self):\n        from numpy import linalg\n"
        "    def h(self):\n        import scipy.linalg as la\n"
        "def k(m):\n    return np.linalgebra(m), m.norm()\n"
    )
    assert node_users(source, reaches_linalg) == {"<module>", "f", "C.g", "C.h"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_psd_inverse_reaches_linalg(path):
    # inv_sqrt_psd's norms are vector norms; no package function takes an SVD
    found = node_users(path.read_text(), reaches_linalg)
    assert found <= LINALG_USERS.get(path.stem, set())


def test_checker_finds_table_users():
    source = (
        "class P:\n    def __init__(self):\n        self._nf_cache = {}\n"
        "def _remembered(pres):\n    return pres._nf_cache.get(1)\n"
        "def normal_form(x):\n    x.pres._nf_cache.clear()\n"
        "def other(x):\n    return x._nf_cache_size\n"
    )
    assert attribute_users(source, "_nf_cache") == {"P.__init__", "_remembered", "normal_form"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_table_helper_touches_the_table(path):
    assert attribute_users(path.read_text(), "_nf_cache") <= TABLE_USERS.get(path.stem, set())


def name_readers(source: str, name: str) -> list[int]:
    """Lines that name `name`: as a bare name, an attribute or an import."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named = any(name in (alias.name, alias.asname) for alias in node.names)
        else:
            named = getattr(node, "id", None) == name or getattr(node, "attr", None) == name
        if named:
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_finds_en_cap_readers():
    source = (
        "from .idempotents import EN_CAP as cap\n"
        "from . import idempotents\n"
        "def f(nmax):\n    return min(nmax, idempotents.EN_CAP)\n"
        "EN_CAP_NOTE = 'EN_CAP'\n"
        "g = lambda: EN_CAP\n"
    )
    assert name_readers(source, "EN_CAP") == [1, 4, 6]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem != "idempotents"], ids=lambda p: p.name
)
def test_only_idempotents_reads_the_report_degree_bound(path):
    # the degrees a run reports come from idempotents.en_degrees
    assert name_readers(path.read_text(), "EN_CAP") == []


def test_checker_finds_rounded_readers():
    source = (
        "def f(result, expected):\n    return result.rounded == expected\n"
        "class C:\n    def g(self):\n        return [r.rounded for r in self.rs]\n"
        "def h(result):\n    return result.rounded_value, rounded\n"
    )
    assert attribute_users(source, "rounded") == {"f", "C.g"}


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "kpair"], ids=lambda p: p.name
)
def test_only_kpair_reads_a_rounded_pairing(path):
    # a pairing's status comes from kpair.classify
    assert attribute_users(path.read_text(), "rounded") == set()


def test_public_names_are_bound_and_listed_once():
    missing = [name for name in qglue.__all__ if not hasattr(qglue, name)]
    assert missing == []
    repeated = sorted({name for name in qglue.__all__ if qglue.__all__.count(name) > 1})
    assert repeated == []


def test_every_reexport_is_public():
    assert qglue.__all__ == list(qglue._EXPORTS)
    for name, module in qglue._EXPORTS.items():
        assert getattr(qglue, name) is getattr(importlib.import_module(f"qglue.{module}"), name)


def test_an_unknown_public_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'qglue' has no attribute 'nope'"):
        getattr(qglue, "nope")
    assert "ParamSet" in dir(qglue) and "nope" not in dir(qglue)


def test_importing_the_package_loads_no_submodule():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, qglue\nprint(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        check=True,
        text=True,
    )
    loaded = done.stdout.split()
    assert "qglue" in loaded
    assert [m for m in loaded if m.startswith("qglue.") or m == "numpy"] == []


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
WINDOW_CONSTRUCTORS = ("TruncOp.__init__", "identity", "zero", "diag_op")


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


def test_the_benchmark_harness_passes_its_self_check():
    done = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=TRACER.parent.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def optional_parameters(sources) -> list[tuple[str, str, str, int | None]]:
    """(qualified name, callee name, parameter, position) of every parameter
    with a default and every keyword-only parameter of the defs in sources.
    The position counts the arguments a call passes before the parameter
    (None for a keyword-only one), so a method's self or cls is not counted.
    The callee name is what a call names: the def's own name, or
    "Class.__init__" for an __init__."""
    found = []

    def visit(node, scope, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{scope}.{child.name}" if scope else child.name, child.name)
                continue
            if not isinstance(child, DEFS):
                continue
            name = f"{scope}.{child.name}" if scope else child.name
            args = child.args
            positional = args.posonlyargs + args.args
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list
            )
            if cls and not static:
                positional = positional[1:]
            callee = f"{cls}.__init__" if cls and child.name == "__init__" else child.name
            first_default = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional):
                if i >= first_default:
                    found.append((name, callee, arg.arg, i))
            for arg in args.kwonlyargs:
                found.append((name, callee, arg.arg, None))
            visit(child, name, None)

    for source in sources:
        visit(ast.parse(source), "", None)
    return found


def call_sites(sources) -> dict[str, list[tuple[float, set[str]]]]:
    """Callee name -> (positional arguments, keyword names) of every call in
    sources, functools.partial(f, ...) counting as a call of f. A starred
    argument counts as every position and ** as every keyword. A call of a
    class, of a subclass of it or of super().__init__ in one of its methods
    is a call of "Class.__init__"."""
    trees = [ast.parse(source) for source in sources]
    classes = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = [
                    b.id if isinstance(b, ast.Name) else getattr(b, "attr", "") for b in node.bases
                ]

    def ancestors(name):
        seen, todo = [], [name]
        while todo:
            cls = todo.pop()
            if cls in classes and cls not in seen:
                seen.append(cls)
                todo.extend(classes[cls])
        return seen

    sites: dict[str, list] = {}

    def record(func, args, keywords, owner):
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return
        if name == "partial" and args:
            record(args[0], args[1:], keywords, owner)
            return
        starred = any(isinstance(a, ast.Starred) for a in args)
        passed = (float("inf") if starred else len(args), {k.arg for k in keywords})
        if None in passed[1]:
            passed = (passed[0], {"*"})
        if name == "__init__" and owner is not None:
            names = [f"{cls}.__init__" for cls in ancestors(owner)[1:]]
        elif name in classes:
            names = [f"{cls}.__init__" for cls in ancestors(name)]
        else:
            names = [name]
        for callee in names:
            sites.setdefault(callee, []).append(passed)

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                is_super = (
                    isinstance(child.func, ast.Attribute)
                    and isinstance(child.func.value, ast.Call)
                    and getattr(child.func.value.func, "id", None) == "super"
                )
                record(child.func, child.args, child.keywords, owner if is_super else None)
            visit(child, owner)

    for tree in trees:
        visit(tree, None)
    return sites


def unpassed_parameters(package_sources, caller_sources) -> list[str]:
    """"function(parameter)" for each parameter with a default or keyword-only
    parameter of package_sources that no call in caller_sources passes."""
    sites = call_sites(caller_sources)
    missing = []
    for qualname, callee, param, position in optional_parameters(package_sources):
        passed = any(
            (position is not None and count > position) or param in keys or "*" in keys
            for count, keys in sites.get(callee, [])
        )
        if not passed:
            missing.append(f"{qualname}({param})")
    return sorted(missing)


def test_checker_finds_unpassed_parameters():
    package = (
        "def f(a, b=1, *, c, e=2):\n    pass\n"
        "def g(a, b=1):\n    pass\n"
        "def h(a=0):\n    pass\n"
        "class Base:\n    def __init__(self, x=0, y=0):\n        pass\n"
        "    def m(self, k=0):\n        pass\n"
        "    @staticmethod\n    def s(k=0):\n        pass\n"
        "class Sub(Base):\n    def __init__(self):\n        super().__init__(1)\n"
        "class Lone:\n    def __init__(self, z=0):\n        pass\n"
    )
    callers = [
        package,
        "f(0, 2, c=3)\nfunctools.partial(g, 0, 5)\nobj.m(1)\nBase.s()\n",
        "Sub()\nBase(y=2)\nLone()\nh(**kw)\n",
    ]
    assert unpassed_parameters([package], callers) == ["Base.s(k)", "Lone.__init__(z)", "f(e)"]


PACKAGE_SOURCES = [path.read_text() for path in MODULES] + [
    (PACKAGE / "__init__.py").read_text()
]
PERFBENCH = sorted((PACKAGE.parent.parent / "perfbench").glob("*.py"))


def test_only_these_parameters_are_passed_by_tests_alone():
    # a knob no package or perfbench call sets: a new one must be used or
    # argued for here
    callers = PACKAGE_SOURCES + [path.read_text() for path in PERFBENCH]
    assert unpassed_parameters(PACKAGE_SOURCES, callers) == []


# functions a name match cannot see called: the console entry point, which
# pyproject.toml names as a string
ENTRY_POINTS = {("entry", "main")}


def uncalled_functions(modules, caller_sources) -> list[str]:
    """"module: qualified name" for each function or method (nested ones
    included) defined in modules, a {module name: source} map, whose name
    no caller source reads, as a bare name or as an attribute; the def
    itself is no read. Dunders, which the language calls, and ENTRY_POINTS
    are exempt.

    The match is by name only, so it misses a method whose name another
    function shares: a LaurentPoly.star that only tests call reads as used
    because NCPoly.star is called in the package, and a Report.add because
    sets are added to."""
    read = set()
    for source in caller_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    missing = []

    def visit(node, scope, module):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (*DEFS, ast.ClassDef)):
                continue
            name = f"{scope}.{child.name}" if scope else child.name
            dunder = child.name.startswith("__") and child.name.endswith("__")
            exempt = dunder or child.name in read or (module, name) in ENTRY_POINTS
            if isinstance(child, DEFS) and not exempt:
                missing.append(f"{module}: {name}")
            visit(child, name, module)

    for module, source in modules.items():
        visit(ast.parse(source), "", module)
    return sorted(missing)


def test_checker_finds_uncalled_functions():
    planted = {
        "entry": "def main():\n    pass\n",
        "ring": (
            "class Poly:\n"
            "    def __add__(self, other):\n        return self.scale(1)\n"
            "    def scale(self, c):\n        return self\n"
            "    def star(self):\n        return self\n"
            "    def only_tested(self):\n        return self\n"
            "    @property\n    def degree(self):\n        return 0\n"
            "def helper(x):\n    def inner():\n        return x\n    return inner\n"
            "def callback(x):\n    return x\n"
            "def orphan():\n    return helper\n"
            "TABLE = {'cb': callback}\n"
        ),
        "algebra": "class Word:\n    def star(self):\n        return self\n",
    }
    callers = [*planted.values(), "def run(p, w):\n    return p.degree, w.star()\n"]
    # Poly.star reads as called: its name matches Word.star's call
    assert uncalled_functions(planted, callers) == ["ring: Poly.only_tested", "ring: orphan"]


def test_every_package_function_is_called_in_the_package_or_perfbench():
    modules = {path.stem: path.read_text() for path in [*MODULES, PACKAGE / "__init__.py"]}
    callers = PACKAGE_SOURCES + [path.read_text() for path in PERFBENCH]
    assert uncalled_functions(modules, callers) == []


FUNCTIONS = (*DEFS, ast.Lambda)
SCOPES = FUNCTIONS + (ast.ClassDef, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _own_nodes(node):
    """The nodes of node's own scope: nested functions, classes and
    comprehensions are yielded but not entered."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, SCOPES):
            yield from _own_nodes(child)


def _stored(nodes) -> set[str]:
    return {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _free_names(fn) -> set[str]:
    """Names fn's body reads and nothing inside fn binds (its parameters'
    defaults are read in the enclosing scope, so they do not count)."""
    body = [fn.body] if isinstance(fn, ast.Lambda) else fn.body
    inner = [n for stmt in body for n in ast.walk(stmt)]
    params = {
        a.arg
        for n in [fn, *inner]
        if isinstance(n, FUNCTIONS)
        for a in ast.walk(n.args)
        if isinstance(a, ast.arg)
    }
    defined = {n.name for n in inner if isinstance(n, (*DEFS, ast.ClassDef))}
    read = {n.id for n in inner if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return read - _stored(inner) - params - defined


def late_bound_computes(source: str) -> list[str]:
    """"function: name" for each lambda or nested def inside a function that
    reads, as a free variable, a name that a for statement of that function
    binds as its target or assigns in its body: it would see the value of
    the loop's latest iteration when it runs, not the one it was made with."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, DEFS):
            continue
        own = list(_own_nodes(fn))
        looped = set()
        for loop in own:
            if isinstance(loop, (ast.For, ast.AsyncFor)):
                looped |= _stored(_own_nodes(loop))
        for inner in own:
            if not isinstance(inner, FUNCTIONS):
                continue
            for name in _free_names(inner) & looped:
                label = getattr(inner, "name", f"lambda at line {inner.lineno}")
                found.add(f"{fn.name}.{label}: {name}")
    return sorted(found)


def test_checker_finds_late_bound_computes():
    source = (
        "def suite(params):\n"
        "    def early():\n        return item + params\n"
        "    def bound(item):\n        return item\n"
        "    for n in range(3):\n"
        "        item = n * 2\n"
        "        yield lambda: n\n"
        "        yield lambda n=n: n\n"
        "        yield functools.partial(bound, item)\n"
        "        yield lambda: [k for k in range(n)]\n"
        "        yield lambda: all(item for item in range(3))\n"
        "    def later():\n"
        "        total = 0\n"
        "        for k in range(3):\n"
        "            total += k\n"
        "        return total\n"
        "    yield later\n"
    )
    assert late_bound_computes(source) == [
        "suite.early: item",
        "suite.lambda at line 11: n",
        "suite.lambda at line 8: n",
    ]


def test_suite_computes_bind_their_operands():
    assert late_bound_computes((PACKAGE / "suites.py").read_text()) == []


# calls that change how the whole process collects garbage or ends, and the
# one function allowed to make them
PROCESS_CALLS = {("gc", "freeze"), ("gc", "disable"), ("os", "_exit")}
PROCESS_ENTRY = {"entry": {"main: gc.freeze"}}


def process_calls(source: str) -> set[str]:
    """'scope: module.name' for each place that reads gc.freeze, gc.disable
    or os._exit, through its module (under any alias) or a from-import; the
    scope is the dotted function or class name, or "<module>"."""
    tree = ast.parse(source)
    modules = {}  # local name -> gc or os
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("gc", "os"):
                    modules[alias.asname or alias.name] = alias.name
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
                name = (modules.get(child.value.id), child.attr)
            elif isinstance(child, ast.ImportFrom):
                names = {(child.module, alias.name) for alias in child.names}
                name = min(names & PROCESS_CALLS, default=None)
            else:
                name = None
            if name in PROCESS_CALLS:
                found.add(f"{scope or '<module>'}: {'.'.join(name)}")
            visit(child, scope)

    visit(tree, "")
    return found


def test_checker_finds_process_calls():
    source = (
        "import gc\nimport os as system\nfrom gc import disable\n"
        "def main():\n    gc.freeze()\n    system._exit(0)\n"
        "class Runner:\n    def stop(self):\n        gc.collect()\n        os._exit(1)\n"
        "halt = system._exit\n"
    )
    assert process_calls(source) == {
        "<module>: gc.disable",
        "<module>: os._exit",
        "main: gc.freeze",
        "main: os._exit",
    }


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_process_entry_freezes_the_collector(path):
    assert process_calls(path.read_text()) <= PROCESS_ENTRY.get(path.stem, set())


# the modules a launch runs before it knows whether there is a run to do
FRONT = ("qglue", "qglue.__main__", "qglue.entry", "qglue.params")


def module_level_imports(source: str, package: str) -> set[str]:
    """The absolute names of the modules a module imports outside its
    functions and classes; a relative import is resolved against package,
    and `from . import x` names the submodule package.x as well."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*DEFS, ast.Lambda, ast.ClassDef)):
                continue
            if isinstance(child, ast.Import):
                found.update(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                base = package if child.level else ""
                module = ".".join(part for part in (base, child.module) if part)
                found.add(module)
                if child.level and not child.module:
                    found.update(f"{package}.{alias.name}" for alias in child.names)
            visit(child)

    visit(ast.parse(source))
    return found


def front_imports(read, roots) -> list[str]:
    """"module: import" for each module-level import, by a root or by a
    qglue module a root reaches through such imports, of a module that is
    neither standard library nor qglue; read maps a module name to its
    source, or to None for a name that is no module file."""
    todo, seen, found = list(roots), set(), []
    while todo:
        name = todo.pop()
        source = read(name)
        if name in seen or source is None:
            continue
        seen.add(name)
        for imported in module_level_imports(source, "qglue"):
            top = imported.split(".")[0]
            if top == "qglue":
                todo.append(imported)
            elif top not in sys.stdlib_module_names:
                found.append(f"{name}: {imported}")
    return sorted(found)


def test_checker_finds_front_imports():
    sources = {
        "qglue": "import importlib\ndef f():\n    import numpy\n",
        "qglue.entry": "import argparse\nfrom . import __version__, helpers\nfrom .cli import run\n",
        "qglue.helpers": "try:\n    import numpy as np\nexcept ImportError:\n    np = None\n",
        "qglue.cli": "from .suites import SUITES\nimport scipy.linalg\n",
        "qglue.suites": "import numpy\n",
        "qglue.other": "import numpy\n",
    }
    assert front_imports(sources.get, ["qglue", "qglue.entry"]) == [
        "qglue.cli: scipy.linalg",
        "qglue.helpers: numpy",
        "qglue.suites: numpy",
    ]


def read_package_module(name: str) -> str | None:
    path = PACKAGE / ("__init__.py" if name == "qglue" else f"{name.split('.', 1)[1]}.py")
    return path.read_text() if path.is_file() else None


def test_the_front_imports_only_the_standard_library():
    assert front_imports(read_package_module, FRONT) == []
