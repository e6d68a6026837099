"""Each run-parameter rule is stated once: its message has one ``raise`` site.

``check_setup``, ``check_model``, ``check_policy`` and
``check_shots_and_seed`` own the rules for the setup and its dimension,
the detector model, the policy, and the shot count and seed. Every
``raise ValueError(...)`` in ``src/bellsort`` is parsed with :mod:`ast` and
its message reduced to a template, the f-string's text with each
replacement field as ``{}``. A template those functions raise must have
exactly one raise site in the package, so a caller that restates a rule in
place of calling its check fails here. Templates are compared whole, not
by prefix: "dimension must be an integer, got {}" and "dimension must be
an integer power of two >= 2 for the XOR pairing, got {}" are two rules.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bellsort"
CHECKS = ("check_setup", "check_model", "check_policy", "check_shots_and_seed")


def template(message: ast.expr) -> str:
    """A message's text, each replacement field of an f-string (or a message that is no literal) as ``{}``."""
    parts = message.values if isinstance(message, ast.JoinedStr) else [message]
    return "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in parts)


def raised_templates(tree: ast.AST) -> list[str]:
    """The template of each ``raise ValueError(message, ...)`` in ``tree``."""
    return [
        template(node.exc.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "ValueError"
        and node.exc.args
    ]


def repeated_rules(sources: dict[str, str]) -> dict[str, int]:
    """Template -> raise-site count, for each template a check function raises that is raised elsewhere too.

    Raises KeyError naming a check function that no source defines.
    """
    trees = [ast.parse(source) for source in sources.values()]
    checks = {
        node.name: node for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in CHECKS
    }
    owned = {rule for name in CHECKS for rule in raised_templates(checks[name])}
    sites = Counter(rule for tree in trees for rule in raised_templates(tree))
    return {rule: sites[rule] for rule in sorted(owned) if sites[rule] != 1}


def test_each_checked_rule_has_one_raise_site():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert repeated_rules(sources) == {}


def test_each_check_raises_a_rule():
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    defined = {node.name: node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert all(raised_templates(defined[name]) for name in CHECKS)


def test_the_gate_reports_a_restated_rule_but_not_a_longer_one():
    checks = "".join(
        f"def {name}(x):\n    if x:\n        raise ValueError(f'{name} rule, got {{x!r}}')\n" for name in CHECKS
    )
    caller = (
        "def caller(y):\n"
        "    raise ValueError(f'check_model rule, got {y}')\n"  # the same template, another field
        "    raise ValueError(f'check_policy rule, got {y} twice')\n"  # a longer message is another rule
    )
    assert repeated_rules({"checks.py": checks, "caller.py": caller}) == {"check_model rule, got {}": 2}
    with pytest.raises(KeyError, match="check_setup"):
        repeated_rules({"caller.py": caller})
