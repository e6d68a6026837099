"""Every name a package module imports is used in that module.

A stdlib-only stand-in for a linter's unused-import rule: each module of
``src/bellsort`` is parsed with :mod:`ast`, and every name bound by an
``import`` or ``from ... import`` must be read somewhere in it, in code or
in a string annotation. ``__init__.py`` is skipped, because it imports
names to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bellsort"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line; ``from __future__`` binds nothing."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.AST) -> set[str]:
    """Every name read in ``tree``, including those inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= read_names(ast.parse(annotation.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = read_names(tree)
    return [f"line {line}: {name}" for name, line in imported_names(tree).items() if name not in used]


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"states.py", "detection.py", "dense_coding.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_reports_an_unused_import():
    # a name in a docstring is not a use; one in a string annotation is
    source = 'from typing import Mapping, Sequence\nimport numpy as np\n"""np"""\nx: "Mapping[str, int]" = {}\n'
    assert unused_imports(source) == ["line 1: Sequence", "line 2: np"]
