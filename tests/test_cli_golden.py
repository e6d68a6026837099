"""Byte-identity gate: seeded CLI runs must print exactly what they printed before.

The digests are sha256 of stdout, recorded from the dict-backed state
representation that preceded the array-backed one. Any change to an
amplitude's bits, to the order in which Born weights are summed, or to the
rendering shows up here. In particular the weights must be normalised by a
left-to-right sum in row-major upper-triangle order: a pairwise sum
(``np.sum``) changes the probabilities of most d=4 states in the last bit.

The next three digests (d=2 sample, fig2 pnrd sample, fig1 threshold sdc)
were recorded from the complex128-only representation, before states and
networks with exactly real amplitudes were stored as float64.

The last two (fig2 threshold sdc as text, fig2 threshold sample as csv)
were recorded from a checkout of the commit before ``encode`` became an
index permutation and sampling read a cached label order, when ``encode``
still multiplied dense matrices and ``sample`` sorted an Outcome map.

``STDOUT_DIGEST`` is one sha256 over the 151 seeded runs of
``tests/stdout_digest.py``, recorded at ``4720504`` and again at
``5479395``, before the detector model became one label array per output
basis. It was pinned on numpy 2.4.6: the seeded runs draw from
``Generator.multinomial``, and NEP 19 does not promise that its stream
stays the same across numpy releases, so on another numpy a mismatch may
be the draw rather than the code. The script prints the numpy version it
ran on.
"""

import contextlib
import hashlib
import io

import pytest

from bellsort.cli import main
from stdout_digest import stdout_digest

GOLDEN = [
    (("verify",), "c71d3874f48278b64138da9bcd7855f04f2b65b7791c02723b218cee0eabdcf1"),
    (
        ("tables", "--setup", "fig1", "--format", "json"),
        "27306c16798249536ef99c22b7733fe4916a53009da37a394f369517fe5ecb16",
    ),
    (
        ("tables", "--setup", "fig2", "--model", "threshold", "--policy", "loss-conservative",
         "--format", "csv"),
        "2f25821c03d33d7f68d46f86a65f9219691ce04469410e22525e7be6cbc54efc",
    ),
    (("tables", "--dim", "2"), "abb4fcd9e65f0b75cc0cda9f124973b525bb8e47c8524d179da9136ddffdf61f"),
    (
        ("sample", "--state", "0,1,1", "--setup", "fig1", "--shots", "100000", "--seed", "7",
         "--format", "json"),
        "f98a89ee0b512a04771db3653ebb7d43d4da2711384555aabad003d743792375",
    ),
    (
        ("sample", "--state", "2,1,0", "--setup", "fig2", "--model", "threshold", "--shots",
         "100000", "--seed", "3", "--format", "json"),
        "0f4e1b215258406b6f0cd2995a38171e2b7fae0b10f7b58d138bf9c614fd2d18",
    ),
    (
        ("sdc", "--setup", "fig2", "--shots", "100000", "--seed", "11", "--format", "json"),
        "67e88e52133a35e9475f440109dddff8d17641078fcb185bd10fc89a232122aa",
    ),
    (
        ("sdc", "--setup", "fig2", "--model", "threshold", "--policy", "loss-conservative",
         "--shots", "100000", "--seed", "11", "--format", "json"),
        "39ba80bf0adc7a7bf5d150af491fc2345fe4ca7e89645ec5a3547faa891c4524",
    ),
    (("sdc", "--setup", "fig1", "--seed", "5"), "199241903cc0b2bdd053c0164803eda8ff827f82b3c1fe349bc4f28818eff3aa"),
    (
        ("sample", "--dim", "2", "--state", "1,1,0", "--format", "json"),
        "eeb4b39a8ce130f9244c7c003e2327139a77f00fac987284764bdeb34e5bb9f3",
    ),
    (
        ("sample", "--setup", "fig2", "--state", "3,0,1", "--format", "json"),
        "9566f94367cbd3b324a4fa7896cf40fbb8adefcd63cc5a2b0019f4145e49921f",
    ),
    (
        ("sdc", "--setup", "fig1", "--model", "threshold", "--policy", "loss-conservative",
         "--shots", "100000", "--seed", "9", "--format", "json"),
        "9d5ca461c02152d9146e73b9c1ddd8f67d83cfa8c7bd3980c0725ac9314dec21",
    ),
    (
        ("sdc", "--setup", "fig2", "--model", "threshold", "--shots", "1000", "--seed", "4"),
        "8573e5e9306fc6572b66296970b8367236da3e1c3940e32c1ed09379a9fb729d",
    ),
    (
        ("sample", "--setup", "fig2", "--model", "threshold", "--state", "1,1,1", "--format", "csv"),
        "cf96d6cbb780166f87b1b389313ccd846704d41edbcbc58e3c5742e11b5d40f2",
    ),
]


STDOUT_DIGEST = ("8e4798c6c4d5a772ca15c42600b14037d36cdb8745f3a5d2609dd1ed3a5ca2fc", 151)


def golden_digest_mismatches(cases=GOLDEN) -> list[tuple[str, ...]]:
    """The argv of every case that exits non-zero or whose stdout digest differs."""
    mismatches = []
    for argv, digest in cases:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        if code != 0 or hashlib.sha256(out.getvalue().encode()).hexdigest() != digest:
            mismatches.append(argv)
    return mismatches


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
def test_stdout_matches_recorded_digest(argv, digest):
    assert golden_digest_mismatches([(argv, digest)]) == []


def test_the_seeded_run_matrix_prints_its_recorded_digest():
    assert stdout_digest() == STDOUT_DIGEST
