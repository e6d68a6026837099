"""Seeded CLI fuzz: random flag lists end in exit 0 or 2, never in an uncaught exception.

Each argv is one subcommand (or none, or an unknown one) with up to five
flags drawn from every subcommand's flags and a few foreign ones, each
given a valid or an invalid value. A usage error is exit 2, from argparse
or from the library's input checks; everything else must succeed with
exit 0. The argvs are drawn from a fixed seed, so a failure names a
reproducible argv.
"""

import contextlib
import io
import random
from collections import Counter
from importlib import resources
from pathlib import Path

from bellsort.cli import main

FUZZ_RUNS = 200
SHOTS = (["1", "1000", str(2**63 - 1)], ["0", "-1", str(2**63), "x", "1.5", "1e3"])
SEEDS = (["0", "7", str(2**70)], ["-1", "x", "0.5"])
SETUPS = (["fig1", "fig2"], ["fig3", "", "FIG1"])
MODELS = (["pnrd", "threshold"], ["ideal", ""])
POLICIES = (["strict", "loss-conservative"], ["loss_conservative", "lenient"])
DIMS = (["2", "4"], ["3", "8", "-4", "x", "4.0"])
STATES = (["0,0,0", "1,1,0", "2,0,1", "3,1,1"], ["4,0,0", "0,2,0", "1,0", "a,b,c", "-1,0,0", "True,0,0"])
TESTS = Path(__file__).resolve().parent
# the packaged files; a directory without them, one that does not exist, and a file
REFERENCES = ([str(resources.files("bellsort") / "references")], [str(TESTS), str(TESTS / "missing"), __file__])

# subcommand -> flag -> (valid values, invalid values); an unknown flag is a usage error
FLAGS = {
    "tables": {
        "--setup": SETUPS, "--model": MODELS, "--policy": POLICIES,
        "--format": (["text", "json", "csv"], ["xml"]), "--dim": DIMS,
    },
    "verify": {"--references": REFERENCES},
    "sample": {
        "--state": STATES, "--setup": SETUPS, "--model": MODELS, "--format": (["text", "json", "csv"], ["xml"]),
        "--dim": DIMS, "--shots": SHOTS, "--seed": SEEDS,
    },
    "sdc": {
        "--setup": SETUPS, "--model": MODELS, "--policy": POLICIES,
        "--format": (["text", "json"], ["csv"]), "--shots": SHOTS, "--seed": SEEDS,
    },
}
FOREIGN = ["--bogus", "--state", "--policy", "--references", "--version"]


def fuzz_argvs(rng: random.Random) -> list[list[str]]:
    argvs = []
    for _ in range(FUZZ_RUNS):
        command = rng.choice([*FLAGS, *FLAGS, *FLAGS, "", "frobnicate"])  # mostly real subcommands
        argv = [command] if command else []
        table = FLAGS.get(command, {})
        if command == "sample" and rng.random() < 0.9:  # --state is required; leave it out now and then
            argv += ["--state", rng.choice(STATES[rng.random() < 0.3])]
        for _ in range(rng.randint(0, 5)):
            if table and rng.random() < 0.9:
                flag = rng.choice(list(table))
                argv += [flag, rng.choice(table[flag][rng.random() < 0.3])]
            else:
                flag = rng.choice(FOREIGN)
                argv += [flag] if flag == "--version" else [flag, "1"]
        argvs.append(argv)
    return argvs


def run(argv: list[str]):
    """The exit code of ``main(argv)``, argparse's included, or the exception it raised."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # the failure this test looks for, returned to be named
            return exc


def test_seeded_argvs_exit_zero_or_two():
    results = [(argv, run(argv)) for argv in fuzz_argvs(random.Random(20240611))]
    assert [(argv, result) for argv, result in results if result not in (0, 2)] == []
    # the draw reaches both outcomes of every subcommand
    seen = Counter((argv[0] if argv else "", result) for argv, result in results)
    assert all(seen[command, code] for command in FLAGS for code in (0, 2)), seen
