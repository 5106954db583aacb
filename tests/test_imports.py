"""Every name that a module of ``src/lipfree`` imports is read where it is imported.

A module-scope import must be read somewhere in its module, and an import
inside a function somewhere in that function. The scan is the standard
library's ``ast``: a name counts as read where it appears as a loaded
``ast.Name``, annotations included.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lipfree"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


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
