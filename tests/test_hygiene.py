"""Every name a cocyclelab module imports is used in that module, every
module-level private name it defines is read there, no module but `cli`
imports `csv` or `json` (`cli` writes every artifact), no module draws
random numbers, no module sorts by float but `basedyn._sort_exactly`, the
exact first return, covering time, castle check and column product make no
float decision, no module but `_parallel` imports `threading` or
`concurrent` and the others import from it only `parallel_lanes`,
`ordered_map` and `scratch` (never the module itself), every `Generator`
subclass defines `entries(self, xs)` with no other parameter, and every
name the bench tracer wraps exists.

Parsed with the standard library's `ast`: an import binds a name (the alias,
or the first component of a dotted `import a.b`), and a use is any Name node,
which covers attribute bases (`np.array`) and unquoted annotations.  A
private name is a module-level function, class or assigned constant whose
name starts with one underscore; it is read when a Name node loads it.
"""

import ast
import importlib.util
from pathlib import Path
from typing import Optional

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cocyclelab"
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items(), key=lambda b: b[1])
            if name not in used]


def unread_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(defined.items(), key=lambda d: d[1])
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
              "import numpy as np\nfrom typing import Optional, Sequence\n"
              "def f(x: Optional[int]) -> None:\n    return np.abs(x)\n")
    assert unused_imports(source) == ["os (line 2)", "osp (line 3)", "Sequence (line 5)"]


def test_checker_finds_unread_private_names():
    source = ("_BITS = 16\n_USED: int = 4\n__all__ = []\nPUBLIC = 1\n_a, _b = 1, 2\n"
              "def _helper():\n    return _USED + _a\n"
              "class _Box:\n    _field = 1\n"
              "def f():\n    _local = 2\n    return _local\n")
    assert unread_private_names(source) == [
        "_BITS (line 1)", "_b (line 5)", "_helper (line 6)", "_Box (line 8)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """The top-level modules a source imports, absolute imports only."""
    tree = ast.parse(source)
    names = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    return names | {node.module.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module and not node.level}


def test_checker_finds_imported_modules():
    source = ("import csv as c\nimport os.path\nfrom json import dumps\n"
              "from . import cli\nfrom .errors import ConfigError\n")
    assert imported_modules(source) == {"csv", "os", "json"}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "cli.py"),
                         ids=lambda p: p.name)
def test_only_cli_writes_artifacts(path):
    """Every artifact is written by `cli`; a library module imports no file format."""
    assert imported_modules(path.read_text()) & {"csv", "json"} == set()


def names_from(source: str, module: str) -> set[str]:
    """The names a source imports from the sibling `module`
    (`from .module import ...` or `from cocyclelab.module import ...`), and
    `*` where it binds the whole module (a star import, `from . import
    module`, `from cocyclelab import module` or `import cocyclelab.module`)."""
    dotted = f"{SRC.name}.{module}"
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {"*" for alias in node.names
                      if alias.name == dotted or alias.name.startswith(dotted + ".")}
        elif isinstance(node, ast.ImportFrom):
            path = "." * node.level + (node.module or "")
            if path in (f".{module}", dotted):
                names |= {alias.name for alias in node.names}
            elif path in (".", SRC.name):
                names |= {"*" for alias in node.names if alias.name == module}
    return names


def test_checker_finds_names_from():
    source = ("from ._parallel import ordered_map, scratch as s\nfrom .sl2 import _mul\n"
              "from _parallel import pool\nfrom . import sl2\n")
    assert names_from(source, "_parallel") == {"ordered_map", "scratch"}
    assert names_from("from cocyclelab._parallel import scratch\n", "_parallel") == {"scratch"}
    for whole in ("from . import _parallel", "from . import sl2, _parallel as p",
                  "from cocyclelab import _parallel", "import cocyclelab._parallel",
                  "import cocyclelab._parallel as p", "from ._parallel import *"):
        assert names_from(whole + "\n", "_parallel") == {"*"}, whole


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "_parallel.py"),
                         ids=lambda p: p.name)
def test_one_level_of_threads(path):
    """`_parallel` makes the only thread pool: no other module imports
    `threading` or `concurrent`, and they import from `_parallel` only
    `parallel_lanes`, `ordered_map` and `scratch`, never the module itself."""
    source = path.read_text()
    assert imported_modules(source) & {"threading", "concurrent"} == set()
    assert names_from(source, "_parallel") <= {"parallel_lanes", "ordered_map", "scratch"}


def random_sources(source: str) -> list[str]:
    """Where a source reaches for random numbers: an import of `random` or
    `numpy.random` (also `from numpy import random`), and every `np.random`
    or `numpy.random` attribute read."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            names = [f"{node.value.id}.random"]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] == "random" or name.startswith("numpy.random")
                  or name == "np.random"]
    return found


def test_checker_finds_random_sources():
    source = ("import random\nimport numpy as np\nfrom random import choice\n"
              "import numpy.random as npr\nfrom numpy import random, pi\n"
              "rng = np.random.default_rng(7)\nx = numpy.random.rand()\n"
              "y = rng.random()\nfrom .random import helper\n")
    assert random_sources(source) == [
        "random (line 1)", "random (line 3)", "random.choice (line 3)",
        "numpy.random (line 4)", "numpy.random (line 5)", "np.random (line 6)",
        "numpy.random (line 7)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_random_sampling(path):
    """No certificate rests on random sampling: no library module draws
    random numbers."""
    assert random_sources(path.read_text()) == []


def float_sorts(source: str) -> list[str]:
    """Where a source sorts by float: a `sorted(...)` or `.sort(...)` call
    whose key is `float` or a lambda that calls `float(`, named by the
    dotted class and function names around it."""
    found = []

    def float_key(key) -> bool:
        if isinstance(key, ast.Lambda):
            return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                       and n.func.id == "float" for n in ast.walk(key.body))
        return isinstance(key, ast.Name) and key.id == "float"

    def visit(node, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            elif isinstance(child, ast.Call) and (
                    isinstance(child.func, ast.Name) and child.func.id == "sorted"
                    or isinstance(child.func, ast.Attribute) and child.func.attr == "sort"):
                if any(kw.arg == "key" and float_key(kw.value) for kw in child.keywords):
                    found.append(f"{where or '<module>'} (line {child.lineno})")
            visit(child, inner)
    visit(ast.parse(source), "")
    return found


def test_checker_finds_float_sorts():
    """The float-ordered sorts `basedyn.first_overlap` and the marching first
    return once made, with exact and key-less sorts that pass."""
    source = ("def first_overlap(pieces):\n"
              "    pieces = sorted(pieces, key=lambda p: float(p[0]))\n"
              "def _first_return_marching(rot, U):\n"
              "    cuts = sorted(set(cuts), key=float)\n"
              "    return sorted(result, key=lambda p: (p[1], float(p[0].intervals[0][0])))\n"
              "def _sort_exactly(items, key):\n"
              "    items.sort(key=lambda x: float(key(x)))\n"
              "class Castle:\n    def verify(self):\n        tops.sort(key=float)\n"
              "ok = sorted(xs, key=itemgetter(0)) + sorted(ys, key=abs) + sorted(zs)\n"
              "xs.sort(key=lambda p: (p[1], p[0]))\nm = max(xs, key=float)\n")
    assert float_sorts(source) == [
        "first_overlap (line 2)", "_first_return_marching (line 4)",
        "_first_return_marching (line 5)", "_sort_exactly (line 7)",
        "Castle.verify (line 10)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_float_ordered_sorts(path):
    """float() is not monotone on exact scalars, so exact pieces and cuts are
    sorted exactly; `basedyn._sort_exactly` alone sorts by float first, and
    then checks the order exactly."""
    found = float_sorts(path.read_text())
    if path.name == "basedyn.py":
        found = [f for f in found if not f.startswith("_sort_exactly ")]
    assert found == []


# The exact functions: each decides from exact compares alone.
EXACT_FUNCTIONS = {"basedyn.py": ("first_return", "_first_entry_below", "covering_time"),
                   "exact.py": ("column_suffixes",),
                   "towers.py": ("Castle.verify",)}


def float_decisions(source: str, names) -> list[str]:
    """Where the functions named (dotted `Class.method` for a method) call
    `float`, `union_length`, `float_breaks` or a `*_floats` helper, as a name
    or an attribute, outside an f-string: a float there would feed a
    decision, while an f-string only formats a message."""
    found = []

    def calls(node, where: str) -> None:
        if isinstance(node, ast.JoinedStr):
            return
        if isinstance(node, ast.Call):
            func = node.func
            callee = (func.id if isinstance(func, ast.Name)
                      else func.attr if isinstance(func, ast.Attribute) else "")
            if callee in ("float", "union_length", "float_breaks") or callee.endswith("_floats"):
                found.append(f"{where} (line {node.lineno}): {callee}")
        for child in ast.iter_child_nodes(node):
            calls(child, where)

    def visit(node, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
                if inner in names:
                    calls(child, inner)
                else:
                    visit(child, inner)
    visit(ast.parse(source), "")
    return found


def test_checker_finds_float_decisions():
    """The float decisions the first return and the covering time once made
    (the whole-circle test by `union_length`, the record walk's `float(h)`,
    the grid sweep), a float in an f-string message that passes, and a
    float call outside the named functions that is not looked at."""
    source = ("def covering_time(rot, W):\n"
              "    if union_length(W.intervals) >= 1.0 - 1e-15:\n        return 0\n"
              "    lo, hi = float_breaks(shrunk)\n"
              "    pts, alpha = rot.grid_floats(), rot.alpha_float\n"
              "def _first_entry_below(alpha, h):\n    if not (float(h) > 0):\n        raise E()\n"
              "def first_return(rot, U):\n    total = bd.union_length(u)\n"
              "class Castle:\n    def verify(self):\n"
              "        raise E(f\"Kac's sum is {float(kac)!r}, not 1\")\n"
              "    def floor_count(self):\n        return float(n)\n"
              "def other(x):\n    return float(x)\n")
    names = ("first_return", "_first_entry_below", "covering_time", "Castle.verify")
    assert float_decisions(source, names) == [
        "covering_time (line 2): union_length", "covering_time (line 4): float_breaks",
        "covering_time (line 5): grid_floats", "_first_entry_below (line 7): float",
        "first_return (line 10): union_length"]


@pytest.mark.parametrize("module", sorted(EXACT_FUNCTIONS))
def test_exact_functions_make_no_float_decision(module):
    source = (SRC / module).read_text()
    names = EXACT_FUNCTIONS[module]
    tree = ast.parse(source)
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    defined |= {f"{cls.name}.{fn.name}" for cls in tree.body if isinstance(cls, ast.ClassDef)
                for fn in cls.body if isinstance(fn, ast.FunctionDef)}
    assert set(names) <= defined  # a rename must not empty the check
    assert float_decisions(source, names) == []


def entries_parameters(sources: list[str]) -> dict[str, Optional[tuple[str, ...]]]:
    """Per `Generator` subclass defined in the sources (a class whose base is
    `Generator` or such a subclass, by name), the parameters of its own
    `entries`: names, `*args`/`**kwargs` starred, a default marked `=`.  None
    where the class does not define `entries`."""
    classes = {node.name: node for source in sources for node in ast.parse(source).body
               if isinstance(node, ast.ClassDef)}
    bases = {name: {b.id if isinstance(b, ast.Name) else b.attr for b in node.bases
                    if isinstance(b, (ast.Name, ast.Attribute))}
             for name, node in classes.items()}
    generators = {"Generator"}
    while True:
        more = {name for name, b in bases.items() if b & generators} - generators
        if not more:
            break
        generators |= more
    out: dict[str, Optional[tuple[str, ...]]] = {}
    for name in sorted(generators - {"Generator"}):
        fn = next((f for f in classes[name].body
                   if isinstance(f, ast.FunctionDef) and f.name == "entries"), None)
        if fn is None:
            out[name] = None
            continue
        a = fn.args
        positional = [p.arg for p in a.posonlyargs + a.args]
        for i in range(len(positional) - len(a.defaults), len(positional)):
            positional[i] += "="
        out[name] = tuple(positional + ([f"*{a.vararg.arg}"] if a.vararg else [])
                          + [p.arg for p in a.kwonlyargs]
                          + ([f"**{a.kwarg.arg}"] if a.kwarg else []))
    return out


def test_checker_finds_entries_parameters():
    source = ("class Generator:\n    def entries(self, xs): ...\n"
              "class A(Generator):\n    def entries(self, xs: int): ...\n"
              "class B(A):\n    def entries(self, xs, n=1): ...\n"
              "class C(cy.Generator):\n    def entries(self, xs, *rest, k, **kw): ...\n"
              "class D(B):\n    pass\n"
              "class Other:\n    def entries(self, xs, n): ...\n")
    assert entries_parameters([source]) == {
        "A": ("self", "xs"), "B": ("self", "xs", "n="),
        "C": ("self", "xs", "*rest", "k", "**kw"), "D": None}


def test_generators_take_only_xs():
    """The bench tracer's `cocycle.entries` wrapper takes (self, xs) only, so
    a generator whose `entries` took another parameter would break a traced
    run."""
    found = entries_parameters([p.read_text() for p in sorted(SRC.glob("*.py"))])
    assert {"ConstantGenerator", "TableGenerator", "PerturbedCocycle"} <= found.keys()
    assert {name: params for name, params in found.items() if params != ("self", "xs")} == {}


def unresolved_targets(targets) -> list[str]:
    """The (module, attribute, metric) targets the bench tracer could not
    wrap, looked up as `Tracer._patch` does: a module-level name of
    `cocyclelab.<module>`, or `Class.method` in that class's own `__dict__`."""
    missing = []
    for mod, attr, _ in targets:
        home = importlib.import_module(f"cocyclelab.{mod}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in getattr(getattr(home, cls_name, None), "__dict__", {})
        else:
            found = callable(getattr(home, attr, None))
        if not found:
            missing.append(f"{mod}.{attr}")
    return missing


def test_checker_finds_unresolved_targets():
    targets = [("surgery", "build_config", "a"), ("surgery", "no_such_stage", "b"),
               ("surgery", "PerturbedCocycle.entries", "c"),
               ("cocycle", "NoSuchClass.entries", "d"),
               ("surgery", "PerturbedCocycle.no_such_method", "e"),
               ("cocycle", "SchrodingerGenerator.__repr__", "f"),  # inherited, not its own
               ("surgery", "EXPONENT_FLOOR", "g")]  # not callable
    assert unresolved_targets(targets) == [
        "surgery.no_such_stage", "cocycle.NoSuchClass.entries",
        "surgery.PerturbedCocycle.no_such_method", "cocycle.SchrodingerGenerator.__repr__",
        "surgery.EXPONENT_FLOOR"]


def test_traced_names_exist():
    """`perfbench/tracing.py`, loaded by path as it stands, wraps only names
    that exist, so deleting or renaming a traced function fails here and not
    at the `getattr` of a traced bench run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.SPAN_TARGETS) > 20 and len(tracing.COUNT_TARGETS) > 10
    assert unresolved_targets(tracing.SPAN_TARGETS + tracing.COUNT_TARGETS) == []
