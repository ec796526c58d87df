"""The modules of ``vstring`` import one another down one order only.

Each relative import, at module level or inside a function, goes from a
module to one of a lower layer:

    core < enumeration < invariants < ops < search < suites, tabulate < cli

``suites`` and ``tabulate`` share a layer and import neither each other nor
anything above it.  The package ``__init__`` re-exports everything and is
not checked.  The one import up the order is ``ops.coverings`` inside
``invariants.distinguish``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vstring"

LAYER = {
    "core": 0,
    "enumeration": 1,
    "invariants": 2,
    "ops": 3,
    "search": 4,
    "suites": 5,
    "tabulate": 5,
    "cli": 6,
}

#: (importing module, function, imported module) of the one upward import.
ALLOWED_UP = {("invariants", "distinguish", "ops")}


def relative_imports(path: Path) -> list[tuple[str | None, str]]:
    """(enclosing function or None, imported module) of each relative import."""
    found: list[tuple[str | None, str]] = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom) and child.level:
                found.append((function, child.module))
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER)


@pytest.mark.parametrize("module", sorted(LAYER))
def test_imports_go_down(module):
    upward = [
        (module, function, target)
        for function, target in relative_imports(SRC / f"{module}.py")
        if LAYER[target] >= LAYER[module]
    ]
    assert set(upward) <= ALLOWED_UP, upward


def test_the_one_exception_is_still_made():
    assert ("distinguish", "ops") in relative_imports(SRC / "invariants.py")
