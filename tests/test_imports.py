"""Every name that a module of ``src/lipfree`` imports is read where it is imported.

A module-scope import must be read somewhere in its module, and an import
inside a function somewhere in that function. The scan is the standard
library's ``ast``: a name counts as read where it appears as a loaded
``ast.Name``, annotations included.

A second scan keeps ``int()`` coercion out of the library: only the modules
that read text, ``cli.py`` (argv and the environment) and ``serialization.py``
(document numbers), may call the builtin ``int``. Everywhere else an index or
a count is an ``int`` already, or an input error.

A third scan keeps the re-checks apart from the integer form the verdicts
are found on: no body of ``RECHECKS`` reads a ``.scaled`` attribute or calls
a routine of ``INTEGER_FORM``, so a scaling bug cannot confirm itself. The
stability bound, printed after the re-check of its verdict, is held to the
same rule.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lipfree"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
INT_READERS = ("cli.py", "serialization.py")


def own_imports(scope):
    """The import statements of ``scope``, not those of functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[str]:
    """``"<line> <name>"`` for each imported name that its scope never reads."""
    tree = ast.parse(source)
    scopes = [tree, *(node for node in ast.walk(tree) if isinstance(node, FUNCTIONS))]
    unused = []
    for scope in scopes:
        read = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in own_imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in read:
                    unused.append(f"{node.lineno} {name}")
    return sorted(unused, key=lambda hit: int(hit.split()[0]))


def test_scan_finds_unused_imports_in_each_scope():
    source = (
        "import os\n"
        "import sys as system\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from fractions import Fraction\n"
        "def f(x: Fraction):\n"
        "    from json import dumps, loads\n"
        "    import a.b\n"
        "    return lambda: dumps(a.b) + system.argv\n"
        "def g():\n"
        "    return loads\n"
    )
    assert unused_imports(source) == ["1 os", "7 loads"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def int_calls(source: str) -> list[int]:
    """The lines that call the builtin ``int``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "int")


def test_scan_finds_int_calls():
    source = (
        "x: int = int('1')\n"
        "if type(x) is int or isinstance(x, int):\n"
        "    y = [int(a) for a in x]\n"
    )
    assert int_calls(source) == [1, 3]


@pytest.mark.parametrize("path", [path for path in sorted(SRC.glob("*.py"))
                                  if path.name not in INT_READERS],
                         ids=lambda path: path.name)
def test_no_int_coercion_outside_the_text_readers(path):
    assert int_calls(path.read_text(encoding="utf-8")) == []


RECHECKS = ("recheck_certificate", "recheck_witness", "recheck_verdict",
            "recheck_function", "recheck_on_N", "lipschitz_constant", "stability_bound")
INTEGER_FORM = ("common_scale", "scale_to_integers", "_function_slacks", "_coverage",
                "min_coverage_slack")


def integer_form_reads(source: str) -> dict[str, list[str]]:
    """For each function of ``RECHECKS`` defined in ``source``, ``"<line> <name>"``
    for each ``.scaled`` it reads and each ``INTEGER_FORM`` routine it calls."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.FunctionDef) and node.name in RECHECKS):
            continue
        hits = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr == "scaled":
                hits.append(f"{sub.lineno} .scaled")
            elif isinstance(sub, ast.Call):
                name = getattr(sub.func, "id", getattr(sub.func, "attr", None))
                if name in INTEGER_FORM:
                    hits.append(f"{sub.lineno} {name}")
        found[node.name] = sorted(hits, key=lambda hit: int(hit.split()[0]))
    return found


def test_scan_finds_integer_form_reads():
    source = (
        "def recheck_verdict(space, beta):\n"
        "    den, rows = space.scaled\n"
        "    def inner():\n"
        "        return metric.common_scale(space, [])\n"
        "    return _coverage(rows, beta.scaled)\n"
        "def other(space):\n"
        "    return _function_slacks(space.scaled)\n"
    )
    assert integer_form_reads(source) == {
        "recheck_verdict": ["2 .scaled", "4 common_scale", "5 _coverage", "5 .scaled"]}


def test_rechecks_never_read_the_integer_form():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        found.update(integer_form_reads(path.read_text(encoding="utf-8")))
    assert found == {name: [] for name in RECHECKS}
