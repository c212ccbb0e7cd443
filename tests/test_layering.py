"""The package's modules form a chain: no import cycle, and no import of
another module of the package inside a function or class body, where it
would hide a cycle until the line runs.  No module keeps a module-level
import it never uses (the package's ``__init__`` only re-exports), the
LP kernel with its certificate checks imports nothing from ``fractions``,
no module reads the name ``float`` or holds a float literal, and only the
work budget's check in ``core`` refuses an input as too large."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mixcuts"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def imported_modules(node: ast.AST) -> list[str]:
    """Modules of the package that one import statement names."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names if a.name.split(".")[0] == "mixcuts"]
        return [n.split(".")[1] if "." in n else "__init__" for n in names]
    if not isinstance(node, ast.ImportFrom):
        return []
    module = node.module or ""
    if node.level == 0:
        if module.split(".")[0] != "mixcuts":
            return []
        module = module[len("mixcuts") :].lstrip(".")
    if module:
        return [module.split(".")[0]]
    return [a.name if a.name in MODULES else "__init__" for a in node.names]


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports that no name in the
    module reads; ``from __future__`` imports bind nothing."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def parse(stem: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))


def test_detector_reads_every_import_form():
    source = (
        "import json\nimport mixcuts.core\nfrom mixcuts import hull\n"
        "from .aggregated import walk\nfrom . import mixing, __version__\n"
    )
    found = [imported_modules(n) for n in ast.parse(source).body]
    assert found == [[], ["core"], ["hull"], ["aggregated"], ["mixing", "__init__"]]


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\nimport json\nimport os.path\n"
        "from .core import A, B as C, D\n"
        "def f(x: A) -> None:\n    return os.path.join(C)\n"
    )
    assert unused_imports(ast.parse(source)) == ["json (line 2)", "D (line 4)"]


@pytest.mark.parametrize("stem", [m for m in MODULES if m != "__init__"])
def test_no_unused_module_level_import(stem):
    assert unused_imports(parse(stem)) == []


@pytest.mark.parametrize("stem", MODULES)
def test_no_import_inside_a_function(stem):
    nested = []
    for scope in ast.walk(parse(stem)):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for node in ast.walk(scope):
                if imported_modules(node):
                    nested.append(f"line {node.lineno} in {scope.name}")
    assert nested == []


def imports_from(tree: ast.Module, module: str) -> list[int]:
    """Lines of every import, at any depth, that names ``module``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == module for name in names):
            lines.append(node.lineno)
    return lines


def test_fractions_import_detector():
    source = (
        "import math\nfrom fractions import Fraction\nimport fractions as f\n"
        "def g():\n    import fractions\nfrom .core import fractions\n"
    )
    assert imports_from(ast.parse(source), "fractions") == [2, 3, 5]


def test_lp_kernel_is_integer_only():
    assert imports_from(parse("exactlp"), "fractions") == []


def float_uses(tree: ast.Module) -> list[int]:
    """Lines that read the name ``float`` or hold a float literal."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "float")
        or (isinstance(node, ast.Constant) and isinstance(node.value, float))
    )


def test_float_detector():
    source = (
        "x = 0.5\ny = float(x)\nz = 1\nw = '0.5'\nv = 1e3\n"
        "def f(a: float) -> int:\n    return 2\n"
    )
    assert float_uses(ast.parse(source)) == [1, 2, 5, 6]


@pytest.mark.parametrize("stem", MODULES)
def test_no_float_in_the_library(stem):
    assert float_uses(parse(stem)) == []


def test_import_graph_is_acyclic():
    graph = {
        stem: {m for node in ast.walk(parse(stem)) for m in imported_modules(node)}
        for stem in MODULES
    }
    assert set().union(*graph.values()) <= set(MODULES)
    assert graph["core"] == set() and "hull" in graph["cli"]
    done: set[str] = set()

    def visit(stem: str, path: list[str]) -> None:
        assert stem not in path, "import cycle: " + " -> ".join(path + [stem])
        if stem not in done:
            for target in sorted(graph[stem]):
                visit(target, path + [stem])
            done.add(stem)

    for stem in MODULES:
        visit(stem, [])


def names_read(node: ast.AST) -> set[str]:
    """Every name the node reads, as a plain name or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def unreferenced_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """Public top-level functions and classes, and public methods and
    properties of those classes, that no library module reads outside their
    own definition; ``__init__`` re-exports, which is no use.  A member
    counts as read wherever its name is, as the other definitions do: by
    any module, by its class's other members, but not by itself."""
    # Where names are read: every top-level statement, and every member of
    # a class on its own, so that a member's siblings read it.
    places: dict[int, set[str]] = {}
    # Each public definition with the places that are its own.
    definitions: list[tuple[str, str, set[int]]] = []
    for stem, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            if stem != "__init__":
                places[id(node)] = names_read(node)
                for member in members:
                    places[id(member)] = names_read(member)
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                owned = {id(node)} | {id(member) for member in members}
                definitions.append((f"{stem}.{node.name}", node.name, owned))
            for member in members:
                if not isinstance(member, ast.FunctionDef):
                    continue
                if not member.name.startswith("_"):
                    label = f"{stem}.{node.name}.{member.name}"
                    definitions.append((label, member.name, {id(node), id(member)}))
    return [
        label
        for label, name, owned in definitions
        if not any(name in names for place, names in places.items() if place not in owned)
    ]


def test_unreferenced_definition_detector():
    trees = {
        "__init__": ast.parse("from .a import f, g, h, K, J\n"),
        "a": ast.parse(
            "def f():\n    return f()\n"
            "def g():\n    pass\n"
            "def h():\n    return g\n"
            "class K:\n    def m(self):\n        return K\n"
            "def _p():\n    pass\n"
            "class J:\n"
            "    def used(self):\n        return self.sibling()\n"
            "    def sibling(self):\n        return 1\n"
            "    def alone(self):\n        return self.alone()\n"
            "    @property\n    def size(self):\n        return 0\n"
            "    def _private(self):\n        pass\n"
            "    def __len__(self):\n        return 0\n"
        ),
        "b": ast.parse("from . import a\nx = a.h\ny = a.J().used()\n"),
    }
    assert unreferenced_definitions(trees) == [
        "a.f", "a.K", "a.K.m", "a.J.alone", "a.J.size"
    ]


def test_every_public_definition_is_used_by_the_library():
    assert unreferenced_definitions({stem: parse(stem) for stem in MODULES}) == []


def raisers(tree: ast.Module, name: str) -> list[str]:
    """The top-level function or class (``<module>`` outside any) around each
    raise statement that names the exception ``name``, also under an alias
    bound by an import."""
    names = {name} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == name and alias.asname
    }
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Raise) and node.exc and names & names_read(node.exc):
                found.append(getattr(top, "name", "<module>"))
    return found


def test_raiser_detector():
    source = (
        "from .core import GroundSetTooLarge as G\nfrom . import core\n"
        "def f():\n    raise G('x')\n"
        "class C:\n    def m(self):\n        raise core.GroundSetTooLarge\n"
        "def g():\n    raise ValueError('GroundSetTooLarge')\n"
        "if True:\n    raise GroundSetTooLarge()\n"
    )
    assert raisers(ast.parse(source), "GroundSetTooLarge") == ["f", "C", "<module>"]


def test_only_the_work_budget_refuses_an_input_as_too_large():
    found = {stem: raisers(parse(stem), "GroundSetTooLarge") for stem in MODULES}
    assert {stem: where for stem, where in found.items() if where} == {
        "core": ["check_work"]
    }
