"""Every definition in ``src/`` is reached by an entry point, and every
option in ``src/`` is passed by some caller.

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

An *option* is a parameter with a default of a function or method in
``src/`` (``self`` and ``cls`` are not options; dunders other than
``__init__`` are exempt, and ``__init__`` is matched by its class name).
A call *sets* an option when its callee name matches and it passes the
option by keyword, passes arguments by position up to the option's
index, or splats ``*args`` or ``**kwargs``; a bare decorator is a call
with one positional argument, and a call that hands a callable on with
``args=`` or ``kwargs=`` (``benchmark.pedantic(f, kwargs={...})``,
``Thread(target=f, args=(...))``) calls it with those arguments.  Calls
count in the entry points and in ``tests/``, where a test may use an
option as a seam; in the CI workflow, ``name=`` text counts.  An option no call sets is a knob every
caller leaves at its default: inline the default and delete it.  The
options only a table of callables reaches are listed in ``INDIRECT``.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "perfbench", "examples")
TESTS = "tests"
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
KEYWORD = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)=")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Definitions only tests read, each a reference a test checks against.
ORACLES = {
    "APIMMultiplier.multiply_scalar":
        "scalar reference the structural multiplier is cross-validated against",
    "reduce_partial_products_vectorised":
        "full-row carry-save reference for the pruned multiply",
    "approximate_sum_bit":
        "bit-level reference for the vectorised relaxed adder",
}

#: Options set only through a table of callables, which no call names.
INDIRECT = {
    "slope(window_s)":
        "called through _DERIVE_FNS by derive(), which always passes window_s",
    "_latest(window_s)":
        "called through _DERIVE_FNS by derive(), which always passes window_s",
}


@functools.lru_cache(maxsize=None)
def _modules() -> tuple[tuple[str, str, ast.AST], ...]:
    """``(top directory, path, tree)`` of every scanned module and test,
    each parsed once for both rules."""
    modules = []
    for top in (*SCANNED, TESTS):
        for file in sorted((ROOT / top).rglob("*.py")):
            path = file.relative_to(ROOT).as_posix()
            modules.append((top, path, ast.parse(file.read_text(), filename=path)))
    return tuple(modules)


def _callee(func: ast.AST) -> str | None:
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


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
            if _callee(node.func) == "lazy_exports":
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
    for top, path, tree in _modules():
        if top == TESTS:
            continue
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


def _options(tree: ast.AST, path: str):
    """``(callee name, option, positional index or None, path::qualname)``
    of every option in one module; a keyword-only option has no index."""

    def walk(node: ast.AST, prefix: str, klass: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, FUNCTIONS):
                qualname = f"{prefix}{child.name}"
                callee = klass if child.name == "__init__" else child.name
                if callee and not (callee.startswith("__") and callee.endswith("__")):
                    args = child.args
                    positional = args.posonlyargs + args.args
                    if positional and positional[0].arg in ("self", "cls") and klass:
                        positional = positional[1:]
                    first = len(positional) - len(args.defaults)
                    for index, arg in enumerate(positional[first:], first):
                        yield callee, arg.arg, index, f"{path}::{qualname}"
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                        if default is not None:
                            yield callee, arg.arg, None, f"{path}::{qualname}"
                yield from walk(child, f"{qualname}.", None)
            else:
                yield from walk(child, prefix, klass)

    yield from walk(tree, "", None)


def _forwarded(call: ast.Call):
    """The calls ``call`` makes through a callable it hands on with
    ``args=`` or ``kwargs=``: each positional callable argument and the
    ``target=`` one."""
    named = {k.arg: k.value for k in call.keywords if k.arg}
    args, kwargs = named.get("args"), named.get("kwargs")
    if args is None and kwargs is None:
        return
    count = len(args.elts) if isinstance(args, ast.Tuple) else 0
    keywords: set[str] = set()
    splat = args is not None and not isinstance(args, ast.Tuple)
    if isinstance(kwargs, ast.Dict):
        for key in kwargs.keys:
            if isinstance(key, ast.Constant):
                keywords.add(key.value)
            else:
                splat = True  # a ``**mapping`` entry
    elif kwargs is not None:
        splat = True
    targets = [a for a in call.args if isinstance(a, (ast.Name, ast.Attribute))]
    if "target" in named:
        targets.append(named["target"])
    for target in targets:
        yield _callee(target), count, keywords, splat


def _calls(tree: ast.AST):
    """``(callee name, positional count, keywords, splat)`` of every call
    in one module; a bare decorator is a call with one positional argument."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            splat = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            keywords = {k.arg for k in node.keywords if k.arg}
            yield _callee(node.func), len(node.args), keywords, splat
            yield from _forwarded(node)
        elif isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            for decorator in node.decorator_list:
                if not isinstance(decorator, ast.Call):
                    yield _callee(decorator), 1, set(), False


def options() -> tuple[int, list[str]]:
    """The number of options in ``src/``, and ``path::qualname(option)``
    of every one no call sets, indirect ones included."""
    calls: dict[str | None, list[tuple[int, set[str], bool]]] = {}
    collected = []
    for top, path, tree in _modules():
        if top == "src":
            collected.extend(_options(tree, path))
        for callee, count, keywords, splat in _calls(tree):
            calls.setdefault(callee, []).append((count, keywords, splat))
    named = set(KEYWORD.findall(WORKFLOW.read_text()))

    unset = []
    for callee, option, index, where in collected:
        if option in named or any(
            splat or option in keywords or (index is not None and count > index)
            for count, keywords, splat in calls.get(callee, ())
        ):
            continue
        unset.append(f"{where}({option})")
    return len(collected), unset


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


def test_every_option_is_set_by_a_caller():
    _, unset = options()
    stray = [o for o in unset if o.split("::")[1] not in INDIRECT]
    assert stray == [], (
        "options no caller sets; inline each default where it is read and "
        f"delete the parameter: {stray}"
    )


def test_every_indirect_option_is_defined_and_unset():
    """An indirect option a call starts to set leaves the allowlist."""
    _, unset = options()
    assert sorted(o.split("::")[1] for o in unset) == sorted(INDIRECT)
