"""Every module of the library uses each name it imports.

A deletion that leaves an import behind (a helper that moved, a check that
went) shows here.  ``__init__.py`` is skipped: its imports are the public
re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "beltrami"


def _unused_imports(source: str) -> list:
    """The names bound by the import statements of ``source`` that no
    expression, annotation or quoted annotation reads."""
    tree = ast.parse(source)
    imported = {}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            quoted = ast.parse(note.value, mode="eval")
            used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math, numbers\n"
              "from os import path as p, sep\n"
              "def f(x: 'Sequence') -> float:\n"
              "    return math.pi + len(sep)\n")
    assert _unused_imports(source) == [(2, "numbers"), (3, "p")]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_imports_only_names_it_uses(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []
