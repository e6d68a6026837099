"""Single-photon mode labels for the two-arm multi-path interferometers.

A photon occupies one mode identified by (arm, path, polarization). The two
input arms are labelled "A" and "B"; after the beam-splitter stage the same
labels denote the two output ports (detectors keep the uppercase names).
Paths are integers in ``[0, d)``. Polarization is ``None`` for path-only
states, ``"H"``/``"V"`` in the linear basis, and ``"+"``/``"-"`` in the
diagonal basis used by the polarization analyzers.

Modes are totally ordered by (arm, path, polarization rank) so that
unordered photon pairs have a canonical storage order. An ordered basis of
modes is a :class:`ModeBasis`, a tuple that hashes in constant time, so the
lookup tables derived from a basis can be cached per basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, total_ordering

ARM_FIRST = "A"
ARM_SECOND = "B"
ARMS = (ARM_FIRST, ARM_SECOND)

POL_LINEAR = ("H", "V")
POL_DIAGONAL = ("+", "-")

_POL_RANK = {None: 0, "H": 0, "V": 1, "+": 0, "-": 1}


@total_ordering
@dataclass(frozen=True)
class Mode:
    """One bosonic mode: which arm, which path, which polarization slot."""

    arm: str
    path: int
    pol: str | None = None

    def __post_init__(self) -> None:
        if self.arm not in ARMS:
            raise ValueError(f"unknown arm {self.arm!r}, expected one of {ARMS}")
        if not isinstance(self.path, int) or self.path < 0:
            raise ValueError(f"path index must be a nonnegative integer, got {self.path!r}")
        if self.pol not in (None, "H", "V", "+", "-"):
            raise ValueError(f"unknown polarization {self.pol!r}")

    @property
    def sort_key(self) -> tuple:
        return (self.arm, self.path, _POL_RANK[self.pol], self.pol or "")

    def __lt__(self, other: "Mode") -> bool:
        if not isinstance(other, Mode):
            return NotImplemented
        return self.sort_key < other.sort_key

    @property
    def label(self) -> str:
        return f"{self.arm}{self.path}{self.pol or ''}"

    def __repr__(self) -> str:
        return f"Mode({self.label})"


class ModeBasis(tuple):
    """An ordered single-photon basis: a tuple whose hash is computed once."""

    def __new__(cls, modes=()) -> "ModeBasis":
        self = super().__new__(cls, modes)
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
def polarized_modes(dim: int, basis: tuple[str, str] = POL_LINEAR) -> ModeBasis:
    """Canonical polarized mode basis, polarization minor within each path."""
    return ModeBasis(Mode(arm, x, p) for arm in ARMS for x in range(dim) for p in basis)


def canonical_pair(m1: Mode, m2: Mode) -> tuple[Mode, Mode]:
    """Order an unordered photon pair canonically (m1 <= m2)."""
    return (m1, m2) if m1 <= m2 else (m2, m1)
