"""Mutation sweep: does tier-1 fail on each small change to a ``src/bellsort`` module?

Run as ``python tests/mutants.py src/bellsort/detection.py [more files] [--timeout S] [--list]``,
or as ``python tests/mutants.py --since REV [--list]`` to mutate only the
sites on the lines that ``git diff -U0 REV`` adds or changes in
``src/bellsort`` (a site is on a line when its replaced span covers it);
files named with ``--since`` narrow it further. pytest does not collect
it. Only the standard library is used.

Each file is parsed with :mod:`ast`, and every site of these kinds is one
mutant:

- a comparison operator swapped (``<`` and ``<=``, ``>`` and ``>=``,
  ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``);
- an arithmetic or bitwise operator swapped (``+`` and ``-``, ``*`` and
  ``/``, ``//`` to ``/``, ``%`` to ``//``, ``**`` to ``*``, ``@`` to
  ``*``, ``&`` and ``|``, ``^`` to ``|``, ``<<`` and ``>>``), also in an
  augmented assignment;
- a boolean operator swapped (``and`` and ``or``);
- a unary operator dropped (``not x``, ``-x``, ``~x`` become ``x``);
- a numeric constant n made n + 1 (bools are left alone);
- a ``raise`` statement replaced by ``pass``.

Sites inside f-strings (messages only), annotations (never evaluated
under ``from __future__ import annotations``) and the arguments of an
``lru_cache(...)`` call (a cache bound changes no result) are skipped.
The repository is copied once to a temporary directory, and each mutant
is written into the copy's file, run under tier-1 with ``-x`` and a
timeout, and undone, so the checkout itself is never changed. A mutant is
killed when tier-1 fails or times out, and survives when it passes; the
script prints one line per mutant, then the score and the survivors.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors")

COMPARE = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}
ARITHMETIC = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult, ast.FloorDiv: ast.Div,
    ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.MatMult: ast.Mult, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.BitXor: ast.BitOr, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
}
BOOLEAN = {ast.And: ast.Or, ast.Or: ast.And}


class Mutant(NamedTuple):
    line: int
    col: int  # 1-based UTF-8 byte column of the replaced span, so two sites on one line differ
    start: int  # byte offsets of the replaced span in the file's UTF-8 source
    end: int
    kind: str
    replacement: str


def unmutated(tree: ast.Module) -> list[ast.AST]:
    """The f-strings, which change messages only, the annotations, which no code evaluates, and cache bounds."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            roots.append(node)
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("lru_cache", "functools.lru_cache"):
            roots += [*node.args, *(keyword.value for keyword in node.keywords)]
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            roots.append(node.returns)
    return roots


def mutants(source: str) -> list[Mutant]:
    """Every mutant of one module's source, in source order."""
    tree = ast.parse(source)
    line_starts = [0]
    for line in source.encode().splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(line))

    def site(node: ast.AST, kind: str, replacement: str) -> Mutant:
        start = line_starts[node.lineno - 1] + node.col_offset
        end = line_starts[node.end_lineno - 1] + node.end_col_offset
        return Mutant(node.lineno, node.col_offset + 1, start, end, kind, replacement)

    skipped = {id(n) for root in unmutated(tree) for n in ast.walk(root)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in COMPARE:
                    ops = [*node.ops[:i], COMPARE[type(op)](), *node.ops[i + 1:]]
                    swapped = ast.Compare(node.left, ops, node.comparators)
                    found.append(site(node, "compare", f"({ast.unparse(swapped)})"))
        elif isinstance(node, ast.BinOp) and type(node.op) in ARITHMETIC:
            swapped = ast.BinOp(node.left, ARITHMETIC[type(node.op)](), node.right)
            found.append(site(node, "arithmetic", f"({ast.unparse(swapped)})"))
        elif isinstance(node, ast.AugAssign) and type(node.op) in ARITHMETIC:
            swapped = ast.AugAssign(node.target, ARITHMETIC[type(node.op)](), node.value)
            found.append(site(node, "arithmetic", ast.unparse(swapped)))
        elif isinstance(node, ast.BoolOp):
            found.append(site(node, "boolean", f"({ast.unparse(ast.BoolOp(BOOLEAN[type(node.op)](), node.values))})"))
        elif isinstance(node, ast.UnaryOp) and not isinstance(node.op, ast.UAdd):
            found.append(site(node, "unary", f"({ast.unparse(node.operand)})"))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            found.append(site(node, "constant", f"({node.value + 1!r})"))
        elif isinstance(node, ast.Raise):
            found.append(site(node, "raise", "pass"))
    return sorted(found)


def touched_lines(rev: str) -> dict[Path, set[int]]:
    """Working-tree line numbers that ``git diff -U0 rev`` adds or changes, per ``src/bellsort`` module."""
    diff = subprocess.run(
        ["git", "diff", "-U0", "--no-color", "--no-ext-diff", "--src-prefix=a/", "--dst-prefix=b/", rev, "--",
         "src/bellsort"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    touched: dict[Path, set[int]] = {}
    path = None
    for line in diff.splitlines():
        if line.startswith("+++ "):
            path = Path(line[6:]) if line.startswith("+++ b/") and line.endswith(".py") else None
        elif line.startswith("@@ ") and path is not None:
            start, _, count = line.split()[2][1:].partition(",")  # "+start,count"; count 0 is a deletion
            touched.setdefault(path, set()).update(range(int(start), int(start) + int(count or 1)))
    return touched


def on_lines(source: str, mutant: Mutant, lines: set[int]) -> bool:
    """Whether the mutant's replaced span covers any of ``lines``."""
    last = mutant.line + source.encode()[mutant.start:mutant.end].count(b"\n")
    return not lines.isdisjoint(range(mutant.line, last + 1))


def describe(relative: Path, source: str, mutant: Mutant) -> str:
    before = source.encode()[mutant.start:mutant.end].decode()
    return f"{relative}:{mutant.line}:{mutant.col} {mutant.kind}: {before!r} -> {mutant.replacement!r}"


def apply(source: str, mutant: Mutant) -> str:
    data = source.encode()
    return (data[: mutant.start] + mutant.replacement.encode() + data[mutant.end:]).decode()


def run_tier1(copy: Path, timeout: float) -> str:
    """``killed`` if tier-1 fails in ``copy``, ``timeout`` if it overruns, else ``survived``."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    try:
        proc = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if proc.returncode == 0 else "killed"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="*", type=Path, help="modules under src/bellsort to mutate")
    parser.add_argument("--since", metavar="REV", help="mutate only the lines changed since this git revision")
    parser.add_argument("--timeout", type=float, default=120.0, help="seconds per tier-1 run")
    parser.add_argument("--list", action="store_true", help="print the sites without running tier-1")
    args = parser.parse_args()
    if not args.files and args.since is None:
        parser.error("name the files to mutate, or --since REV")

    relatives = [path.resolve().relative_to(ROOT) for path in args.files]
    touched = None if args.since is None else touched_lines(args.since)
    if touched is not None:
        relatives = [r for r in relatives or sorted(touched) if r in touched]
    sites = []
    for relative in relatives:
        source = (ROOT / relative).read_text(encoding="utf-8")
        lines = None if touched is None else touched[relative]
        sites += [(relative, source, m) for m in mutants(source) if lines is None or on_lines(source, m, lines)]
    print(f"{len(sites)} mutants in {len(relatives)} files")
    if args.list or not sites:
        for relative, source, m in sites:
            print(describe(relative, source, m))
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        if run_tier1(copy, args.timeout) != "survived":
            print("tier-1 fails on the unmutated copy; no mutant can be scored")
            return 1
        survivors = []
        for number, (relative, source, m) in enumerate(sites, start=1):
            target = copy / relative
            target.write_text(apply(source, m), encoding="utf-8")
            began = time.perf_counter()
            try:
                outcome = run_tier1(copy, args.timeout)
            finally:
                target.write_text(source, encoding="utf-8")
            line = describe(relative, source, m)
            print(f"[{number}/{len(sites)}] {outcome:<8} {time.perf_counter() - began:5.1f}s  {line}", flush=True)
            if outcome == "survived":
                survivors.append(line)
    killed = len(sites) - len(survivors)
    print(f"score: {killed}/{len(sites)} killed")
    for line in survivors:
        print(f"survived: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
