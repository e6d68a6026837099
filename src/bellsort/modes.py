"""Single-photon mode labels for the two-arm multi-path interferometers.

A photon occupies one mode identified by (arm, path, polarization). The two
input arms are labelled "A" and "B"; after the beam-splitter stage the same
labels denote the two output ports. Detectors are output modes: one sits on
each, and a click is recorded as the output mode that fired, with its label.
Paths are integers in ``[0, d)``. Polarization is ``""`` for path-only
states, ``"H"``/``"V"`` in the linear basis, and ``"+"``/``"-"`` in the
diagonal basis used by the polarization analyzers.

Modes are totally ordered by their fields (arm, path, polarization), which
puts "" first, + before -, and H before V, so that unordered photon pairs
have a canonical storage order. An ordered basis of modes is a
:class:`ModeBasis`, a tuple that hashes in constant time, so the lookup
tables derived from a basis can be cached per basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

ARM_FIRST = "A"
ARM_SECOND = "B"
ARMS = (ARM_FIRST, ARM_SECOND)

POL_LINEAR = ("H", "V")
POL_DIAGONAL = ("+", "-")


@dataclass(frozen=True, order=True)
class Mode:
    """One bosonic mode: which arm, which path, which polarization slot."""

    arm: str
    path: int
    pol: str = ""

    def __post_init__(self) -> None:
        if self.arm not in ARMS:
            raise ValueError(f"unknown arm {self.arm!r}, expected one of {ARMS}")
        # a bool is an int, but would print into the label as "True"
        if isinstance(self.path, bool) or not isinstance(self.path, int) or self.path < 0:
            raise ValueError(f"path index must be a nonnegative integer, got {self.path!r}")
        if self.pol not in ("", "H", "V", "+", "-"):
            raise ValueError(f"unknown polarization {self.pol!r}")

    @property
    def label(self) -> str:
        return f"{self.arm}{self.path}{self.pol}"

    def __repr__(self) -> str:
        return f"Mode({self.label})"


class ModeBasis(tuple):
    """An ordered single-photon basis of distinct modes: a tuple whose hash is computed once."""

    def __new__(cls, modes=()) -> "ModeBasis":
        self = super().__new__(cls, modes)
        if len(set(self)) < len(self):  # a repeated mode would hold a bunched pair as two modes
            repeated = next(m for i, m in enumerate(self) if m in self[:i])
            raise ValueError(f"mode {repeated.label} appears twice in the mode basis")
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return ModeBasis, (tuple(self),)


def as_basis(modes) -> ModeBasis:
    return modes if isinstance(modes, ModeBasis) else ModeBasis(modes)


@lru_cache(maxsize=64)
def path_modes(dim: int) -> ModeBasis:
    """Canonical path-only mode basis: A0..A(d-1), B0..B(d-1)."""
    return ModeBasis(Mode(arm, x) for arm in ARMS for x in range(dim))


@lru_cache(maxsize=64)
def polarized_modes(dim: int, basis: tuple[str, str]) -> ModeBasis:
    """Canonical polarized mode basis, polarization minor within each path."""
    return ModeBasis(Mode(arm, x, p) for arm in ARMS for x in range(dim) for p in basis)


@lru_cache(maxsize=64)
def positions(basis: ModeBasis) -> dict:
    """Mode -> its index in ``basis``, cached per basis and shared between callers."""
    return {m: i for i, m in enumerate(basis)}


def canonical_pair(m1: Mode, m2: Mode) -> tuple[Mode, Mode]:
    """Order an unordered photon pair canonically (m1 <= m2)."""
    return (m1, m2) if m1 <= m2 else (m2, m1)
