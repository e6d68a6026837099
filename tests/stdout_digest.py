"""One sha256 over the stdout of a fixed matrix of seeded CLI runs.

Run as ``python tests/stdout_digest.py``; pytest does not collect it, and
``tests/test_cli_golden.py`` asserts its digest. It runs
``bellsort.cli.main`` in-process, from the ``src`` directory beside this
file, over:

- ``sdc``: both setups x the 4 detector model/policy pairs x text/json x
  3 seeds, at 100,000 shots;
- ``sample``: both setups x both models x text/json/csv x 4 states x
  2 seeds, plus one d = 2 state under both models and all three formats;
- ``verify``.

Each run's argv, exit code and stdout feed one digest, so a change that
must keep every output byte prints the same line before and after. Copy
the script into another checkout's ``tests/`` to digest that checkout.
The line ends with the numpy version: the ``sample`` and ``sdc`` runs draw
from ``Generator.multinomial``, whose stream NEP 19 does not promise to
keep across numpy releases, so a digest is comparable only on one version.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from itertools import product
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bellsort.cli import main  # noqa: E402  (the path above must come first)

SETUPS = ("fig1", "fig2")
PAIRS = (("pnrd", "strict"), ("pnrd", "loss-conservative"), ("threshold", "strict"),
         ("threshold", "loss-conservative"))
STATES = ("0,0,0", "1,0,1", "2,1,0", "3,1,1")


def runs() -> list[tuple[str, ...]]:
    """The argv of every run, in digest order."""
    argvs = [
        ("sdc", "--setup", setup, "--model", model, "--policy", policy, "--format", fmt,
         "--shots", "100000", "--seed", str(seed))
        for setup, (model, policy), fmt, seed in product(SETUPS, PAIRS, ("text", "json"), (0, 7, 2024))
    ]
    argvs += [
        ("sample", "--setup", setup, "--model", model, "--format", fmt, "--state", state, "--seed", str(seed))
        for setup, model, fmt, state, seed in product(
            SETUPS, ("pnrd", "threshold"), ("text", "json", "csv"), STATES, (3, 11)
        )
    ]
    argvs += [
        ("sample", "--dim", "2", "--model", model, "--format", fmt, "--state", "1,1,0")
        for model, fmt in product(("pnrd", "threshold"), ("text", "json", "csv"))
    ]
    return argvs + [("verify",)]


def stdout_digest() -> tuple[str, int]:
    """The sha256 hex digest over every run, and the number of runs."""
    digest = hashlib.sha256()
    argvs = runs()
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        digest.update(f"{' '.join(argv)}\0{code}\0{out.getvalue()}\0".encode())
    return digest.hexdigest(), len(argvs)


def main_digest() -> None:
    hexdigest, count = stdout_digest()
    print(f"{hexdigest}  {count} runs  numpy {np.__version__}")


if __name__ == "__main__":
    main_digest()
