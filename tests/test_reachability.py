"""Every definition in ``src/`` is reached by an entry point.

A function, class or method defined in ``src/`` (dunders exempt) is
*reached* when its name is read somewhere outside its own definition, in
a file the program runs: ``src/``, ``benchmarks/``, ``perfbench/``,
``examples/`` or the CI workflow.  A read is an AST ``Name`` or
``Attribute`` load, an import alias, or an identifier-shaped string
constant outside the ``__all__`` and ``lazy_exports(...)`` tables (which
is how ``RUNTIMES`` names its runtime classes).  Tests do not count: a
definition only a test calls is library surface no user path runs.

The few definitions kept for tests alone are reference oracles, which
tests compare the library against; each is listed in ``ORACLES`` with
its reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "perfbench", "examples")
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Definitions only tests read, each a reference a test checks against.
ORACLES = {
    "APIMMultiplier.multiply_scalar":
        "scalar reference the structural multiplier is cross-validated against",
    "reduce_partial_products_vectorised":
        "full-row carry-save reference for the pruned multiply",
    "approximate_sum_bit":
        "bit-level reference for the vectorised relaxed adder",
}


def _excluded(tree: ast.AST) -> set[int]:
    """Ids of the nodes inside ``__all__`` and ``lazy_exports(...)``
    tables, whose strings name exports rather than read them."""
    tables: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                tables.append(node.value)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "lazy_exports":
                tables.append(node)
    return {id(n) for table in tables if table is not None for n in ast.walk(table)}


def _reads(tree: ast.AST) -> list[tuple[str, int]]:
    """``(name, line)`` of every read in one module."""
    excluded = _excluded(tree)
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            reads.extend((part, node.lineno) for part in node.name.split("."))
        elif (
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in excluded and IDENTIFIER.fullmatch(node.value)
        ):
            reads.append((node.value, node.lineno))
    return reads


def _definitions(tree: ast.AST, path: str):
    """``(qualified name, path, first line, last line)`` of every
    function, class and method in one module, decorators included."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def walk(node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, kinds):
                qualname = f"{prefix}{child.name}"
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                yield qualname, path, first, child.end_lineno
                yield from walk(child, f"{qualname}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def unreached() -> list[str]:
    """``path::qualname`` of every definition in ``src/`` no entry point
    reads, oracles included."""
    reads: dict[str, list[tuple[str, int]]] = {}
    definitions = []
    for top in SCANNED:
        for file in sorted((ROOT / top).rglob("*.py")):
            path = file.relative_to(ROOT).as_posix()
            tree = ast.parse(file.read_text(), filename=path)
            for name, line in _reads(tree):
                reads.setdefault(name, []).append((path, line))
            if top == "src":
                definitions.extend(_definitions(tree, path))
    for name in IDENTIFIER.findall(WORKFLOW.read_text()):
        reads.setdefault(name, []).append((WORKFLOW.name, 0))

    missing = []
    for qualname, path, first, last in definitions:
        name = qualname.rsplit(".", 1)[-1]
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(
            where != path or not first <= line <= last
            for where, line in reads.get(name, ())
        ):
            missing.append(f"{path}::{qualname}")
    return missing


@pytest.fixture(scope="module")
def found() -> list[str]:
    return unreached()


def test_every_definition_is_reached_or_an_oracle(found):
    stray = [d for d in found if d.split("::")[1] not in ORACLES]
    assert stray == [], (
        "definitions no entry point reads; delete them (and the tests that "
        f"check only them) or call them from the program: {stray}"
    )


def test_every_oracle_is_defined_and_unreached(found):
    """An oracle the program starts to call leaves the allowlist."""
    assert sorted(d.split("::")[1] for d in found) == sorted(ORACLES)
