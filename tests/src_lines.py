"""Line counts of ``src/bellsort``: total, code, docstring, comment and blank lines per file.

Run as ``python tests/src_lines.py``; pytest does not collect it. Every
line falls in exactly one class: a docstring line lies within a module,
class or function docstring (its blank lines included), a comment line
holds only a comment, a blank line holds only whitespace, and every other
line is code. Only the standard library is used.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bellsort"
COLUMNS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module, its classes and its functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The five line counts of one module's source."""
    text = source.splitlines()
    docs = docstring_lines(ast.parse(source))
    code_tokens = set()
    comment_only = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comment_only.add(token.start[0])
        elif token.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            code_tokens.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(COLUMNS, 0)
    for number, line in enumerate(text, start=1):
        if number in docs:
            kind = "docstring"
        elif not line.strip():
            kind = "blank"
        elif number in comment_only and number not in code_tokens:
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    counts["total"] = len(text)
    return counts


def main() -> None:
    rows = [(path.name, count(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("src/bellsort", {c: sum(r[c] for _, r in rows) for c in COLUMNS}))
    print(f"{'file':<16}" + "".join(f"{c:>11}" for c in COLUMNS))
    for name, r in rows:
        print(f"{name:<16}" + "".join(f"{r[c]:>11,}" for c in COLUMNS))


if __name__ == "__main__":
    main()
