"""An exact support oracle over Q(sqrt 2): supports and groups with no float threshold.

For d = 2**k every number of the pipeline lies in Q(sqrt 2): the Bell
coefficients +-1/sqrt(d), the hyper coefficient 1/(2 sqrt 2) and the
network entries 0, +-1 and +-1/sqrt(2). This module writes the states from
their index (j, n, m) and the networks from their optical elements, as
numbers a + b sqrt(2) with rational a and b, and evolves them stage by
stage. It reads none of the library's amplitudes or matrices, so an output
amplitude here is zero or it is not.

The library's supports come from float products and the 1e-12 pruning
threshold. The gates below require both to give the same output pairs for
every pair the CLI evolves, with fig1 up to d = 16, and the exact groups
to equal the reference tables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources

import numpy as np
import pytest

from bellsort import evolve, network_for_setup
from conftest import cli_pairs

_SQRT2 = Fraction(math.isqrt(2 * 10**120), 10**60)  # within 1e-60, so float() rounds correctly


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class Q2:
    """The real number a + b sqrt(2), with a and b rational; sqrt 2 is irrational, so (a, b) is unique."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __add__(self, other: Q2) -> Q2:
        return Q2(self.a + other.a, self.b + other.b)

    def __neg__(self) -> Q2:
        return Q2(-self.a, -self.b)

    def __sub__(self, other: Q2) -> Q2:
        return self + -other

    def __mul__(self, other: Q2) -> Q2:
        return Q2(self.a * other.a + 2 * self.b * other.b, self.a * other.b + self.b * other.a)

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def sign(self) -> int:
        """-1, 0 or 1, decided without rounding: for opposite signs, compare a**2 with 2 b**2."""
        sa, sb = _sign(self.a), _sign(self.b)
        if sa * sb >= 0:
            return sa or sb
        return sa if self.a**2 > 2 * self.b**2 else sb

    def __abs__(self) -> Q2:
        return -self if self.sign() < 0 else self

    def __lt__(self, other: Q2) -> bool:
        return (self - other).sign() < 0

    def __float__(self) -> float:
        return float(self.a + self.b * _SQRT2)


ONE = Q2(Fraction(1))
INV_SQRT2 = Q2(b=Fraction(1, 2))


def inv_sqrt_pow2(e: int) -> Q2:
    """1 / sqrt(2**e): 2**(-e/2) for even e, sqrt(2) / 2**((e+1)/2) for odd e."""
    return Q2(Fraction(1, 2 ** (e // 2))) if e % 2 == 0 else Q2(b=Fraction(1, 2 ** ((e + 1) // 2)))


# A mode is (arm, path, pol), with pol "" on a path-only mode; tuple order is detector order.


def label(mode) -> str:
    arm, path, pol = mode
    return f"{arm}{path}{pol}"


def outcome_label(pair) -> str:
    return " ".join(map(label, sorted(pair)))


def beam_splitter(mode):
    """50:50 splitter on the mode's (path, pol) rail: A -> (a + b)/sqrt 2, B -> (a - b)/sqrt 2."""
    arm, path, pol = mode
    return [(("A", path, pol), INV_SQRT2), (("B", path, pol), INV_SQRT2 if arm == "A" else -INV_SQRT2)]


def rail_swap(mode):
    """PBS at 0 degrees between rails x and x XOR 1: H is transmitted, V is reflected."""
    arm, path, pol = mode
    return [((arm, path ^ 1, pol) if pol == "V" else mode, ONE)]


def analyzer(mode):
    """PBS at 45 degrees: H -> (|+> + |->)/sqrt 2, V -> (|+> - |->)/sqrt 2."""
    arm, path, pol = mode
    return [((arm, path, "+"), INV_SQRT2), ((arm, path, "-"), INV_SQRT2 if pol == "H" else -INV_SQRT2)]


STAGES = {"fig1": (beam_splitter,), "fig2": (rail_swap, beam_splitter, analyzer)}


def exact_state(setup: str, dim: int, j: int, n: int, m: int) -> dict:
    """psi over ordered mode pairs of |psi(j, n, m)>, with the (|HH> + |VV>)/sqrt 2 ancilla for fig2.

    The Fock ket c |x, p>_A |x XOR j, p>_B has c = (-1)**(n x0 + m x1) / sqrt(d P)
    for P ancilla terms, and is stored as psi = c / sqrt 2 on both orders of its pair.
    """
    pols = ("H", "V") if setup == "fig2" else ("",)
    amp = inv_sqrt_pow2((2 * dim * len(pols)).bit_length() - 1)
    psi = {}
    for x in range(dim):
        signed = -amp if (n * (x & 1) + m * (x >> 1 & 1)) % 2 else amp
        for pol in pols:
            a, b = ("A", x, pol), ("B", x ^ j, pol)
            psi[a, b] = psi[b, a] = signed
    return psi


@lru_cache(maxsize=None)
def exact_output(setup: str, dim: int, j: int, n: int, m: int) -> dict:
    """The nonzero amplitudes of U psi U^T over ordered output pairs, one stage after another."""
    psi = exact_state(setup, dim, j, n, m)
    for stage in STAGES[setup]:
        out = {}
        for (i1, i2), amp in psi.items():
            for o1, w1 in stage(i1):
                for o2, w2 in stage(i2):
                    out[o1, o2] = out.get((o1, o2), Q2()) + w1 * w2 * amp
        psi = {pair: amp for pair, amp in out.items() if amp}
    return psi


def exact_support(setup: str, dim: int, j: int, n: int, m: int) -> set[str]:
    return {outcome_label(pair) for pair in exact_output(setup, dim, j, n, m)}


def library_support(pair) -> set[str]:
    evolved = evolve(pair.state, pair.network)
    basis = evolved.basis
    return {" ".join(basis[m].label for m in divmod(i, len(basis))) for i in evolved.ids.tolist()}


def exact_support_mismatches(pairs) -> list[int]:
    """Positions of the CLI pairs whose evolved support is not the exact one; [] when the gate holds."""
    return [
        t
        for t, p in enumerate(pairs)
        if library_support(p) != exact_support(p.setup, p.state.dim, p.idx.j, p.idx.n, p.idx.m)
    ]


D4_INDICES = [(j, n, m) for j in range(4) for n in (0, 1) for m in (0, 1)]


def exact_groups(setup: str) -> set[tuple[frozenset, frozenset]]:
    """The d = 4 states merged while their exact supports overlap: (members, outcomes) per group."""
    groups = []
    for jnm in D4_INDICES:
        members, outcomes = {"psi{}{}{}".format(*jnm)}, exact_support(setup, 4, *jnm)
        for group in [g for g in groups if g[1] & outcomes]:
            groups.remove(group)
            members |= group[0]
            outcomes |= group[1]
        groups.append((members, outcomes))
    return {(frozenset(members), frozenset(outcomes)) for members, outcomes in groups}


def test_every_cli_pair_up_to_d16_has_the_exact_support():
    pairs = list(cli_pairs(max_dim=16))
    # prepared and encoded: fig1 at d = 2, 4, 8 and 16, then fig2
    assert len(pairs) == 2 * (4 + 16 + 32 + 64) + 2 * 16
    assert exact_support_mismatches(pairs) == []


@pytest.mark.parametrize("setup,name,count", [("fig1", "table1.json", 7), ("fig2", "table2.json", 12)])
def test_exact_groups_are_the_reference_tables(setup, name, count):
    data = json.loads((resources.files("bellsort") / "references" / name).read_text(encoding="utf-8"))
    reference = {(frozenset(g["members"]), frozenset(g["outcomes"])) for g in data["groups"]}
    assert len(reference) == count
    assert exact_groups(setup) == reference


@pytest.mark.parametrize("setup,smallest", [("fig1", Q2(b=Fraction(1, 4))), ("fig2", Q2(Fraction(1, 4)))])
def test_smallest_nonzero_output_amplitude(setup, smallest):
    # the margin of the 1e-12 pruning threshold: sqrt(2)/4 for fig1 at d = 4, 1/4 for fig2
    amps = [abs(amp) for jnm in D4_INDICES for amp in exact_output(setup, 4, *jnm).values()]
    assert min(amps) == smallest


@pytest.mark.parametrize("setup,dim", [("fig1", 2), ("fig1", 4), ("fig2", 4)])
def test_stage_matrices_round_to_the_library_stages(setup, dim):
    # within one ulp, not bit for bit: the library's 1.0 / math.sqrt(2.0) is
    # 0.7071067811865475, one ulp below the correctly rounded 0.7071067811865476
    stages = network_for_setup(setup, dim).stages
    assert len(stages) == len(STAGES[setup])
    for rule, stage in zip(STAGES[setup], stages):
        unitary = stage.unitary
        row = {mode.label: o for o, mode in enumerate(unitary.out_modes)}
        exact = np.zeros(unitary.matrix.shape)
        for i, mode in enumerate(unitary.in_modes):
            for image, weight in rule((mode.arm, mode.path, mode.pol or "")):
                exact[row[label(image)], i] = float(weight)
        assert np.all(np.abs(unitary.matrix - exact) <= np.spacing(np.abs(exact))), stage.kind
