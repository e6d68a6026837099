"""Every name a module imports is used in that module.

A stdlib-only stand-in for a linter's unused-import rule: each module of
``src/bellsort``, ``tests`` and ``demos`` is parsed with :mod:`ast`, and
every name bound by an ``import`` or ``from ... import`` must be read
somewhere in it, in code or in a string annotation. The package's
``__init__.py`` imports names to re-export them, so it is checked the other
way: the names it imports must be exactly its ``__all__``, and each must be
read in another package module, so no export exists for tests alone. A
third check finds private helpers nothing calls: every single-underscore
module-level name and method of the package must be read somewhere in it
outside its own definition. A fourth keeps each private name in its module:
no package module imports a single-underscore name from another.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bellsort"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + sorted(
    p for folder in ("tests", "demos") for p in (ROOT / folder).glob("*.py")
)


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
    names = {p.relative_to(ROOT).as_posix() for p in MODULES}
    assert names >= {
        "src/bellsort/states.py", "src/bellsort/cli.py", "tests/conftest.py", "demos/bell_state_sorting.py"
    }


def module_id(path):
    """A package module by its file name, any other by its folder and name."""
    return path.name if path.parent == PACKAGE else path.relative_to(ROOT).as_posix()


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def exported_names(tree: ast.Module) -> list[str]:
    """The literal ``__all__`` list of a module."""
    (names,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
    ]
    return names


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert sorted(exported_names(tree)) == sorted(imported_names(tree))


def test_every_export_is_read_inside_the_package():
    # an export only tests call is test-only API; it belongs in tests/conftest.py
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    read = set().union(*(read_names(ast.parse(p.read_text())) for p in MODULES if p.parent == PACKAGE))
    assert sorted(set(exported_names(tree)) - read) == []


def test_the_export_check_reports_a_missing_or_repeated_name():
    for exported in ('["encode"]', '["encode", "encode", "evolve"]'):
        tree = ast.parse(f"from .states import encode, evolve\n__all__ = {exported}\n")
        assert sorted(exported_names(tree)) != sorted(imported_names(tree)) == ["encode", "evolve"]


def test_the_check_reports_an_unused_import():
    # a name in a docstring is not a use; one in a string annotation is
    source = 'from typing import Mapping, Sequence\nimport numpy as np\n"""np"""\nx: "Mapping[str, int]" = {}\n'
    assert unused_imports(source) == ["line 1: Sequence", "line 2: np"]


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Each single-underscore module-level name and method of ``tree``, with the node defining it."""
    defs = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs += [(item.name, item) for item in node.body if isinstance(item, ast.FunctionDef)]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs += [(target.id, node) for target in targets if isinstance(target, ast.Name)]
    return [(name, node) for name, node in defs if name.startswith("_") and not name.startswith("__")]


def read_counts(tree: ast.AST) -> Counter:
    """How often ``tree`` reads each name, as a name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each private definition read nowhere outside itself in ``sources``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = sum(map(read_counts, trees.values()), Counter())
    return [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, node in private_definitions(tree)
        if reads[name] == read_counts(node)[name]
    ]


def test_no_orphaned_private_helpers():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_private_names(sources) == []


def test_the_orphan_check_reports_a_helper_only_its_own_body_reads():
    source = "_used = 1\ndef _orphan(): return _orphan, _used\n"
    assert orphaned_private_names({"m.py": source}) == ["m.py: _orphan"]


def private_imports(source: str) -> list[str]:
    """``line N: _name from .module`` for each single-underscore name a package-relative import takes."""
    return [
        f"line {alias.lineno}: {alias.name} from {'.' * node.level}{node.module or ''}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=module_id)
def test_no_module_imports_a_private_name_from_another(path):
    assert private_imports(path.read_text()) == []


def test_the_private_import_check_reports_a_name_inside_parentheses():
    # a public name under a private alias and a dunder stay allowed
    source = (
        "from .states import (\n    AMP_PRUNE,\n    _check_norm,\n)\n"
        "from .modes import Mode as _Mode\nfrom . import __version__, _x\n"
    )
    assert private_imports(source) == ["line 3: _check_norm from .states", "line 6: _x from ."]
