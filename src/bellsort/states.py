"""Two-photon states, the generalized Bell family, and message encoding.

The d-dimensional Bell states of a photon pair shared between arms A and B
are indexed by (j, n, m): j pairs path x in arm A with path ``x XOR j`` in
arm B, n is a phase bit on odd paths and m a sign bit on the upper path
block. For d = 4 this gives the 16 states

    |psi(j, n, m)> = (1/2) * sum_x (-1)**(n*x0 + m*x1) |x>_A |x XOR j>_B

with x0, x1 the low/high bits of x; for d = 2 the four standard Bell states
(m is fixed to 0). :func:`encode` applies the same XOR pairing to the second
photon (arm B), the one the sender of superdense coding holds, as the local
map |x> -> (-1)**(n*x0 + m*x1) |x XOR j>; on the reference state
|psi(0, 0, 0)> it gives any other member of the family. The builders and
encode read rows j and n + 2m of one cached table per mode basis.

States are symmetric amplitude functions over unordered mode pairs. A Fock
state with photons in distinct modes m1, m2 has psi(m1, m2) = psi(m2, m1) =
1/sqrt(2); a doubly occupied mode has psi(m, m) = 1. With this convention
the Born weights are |psi(m, m)|**2 for a bunched pair and
2*|psi(m1, m2)|**2 otherwise. How a single-photon unitary acts on them
is stated once, in :func:`bellsort.networks.evolve`.

The pair (basis[i], basis[k]) with i <= k of a basis of M modes has the
pair id i * M + k: its offset in the row-major M x M matrix, and the id of
the detector outcome that fires modes i and k. A state is stored as arrays
over the upper triangle of its mode basis, indexed by pair id; see
:class:`TwoPhotonState` for the layout and for what is checked where.

Amplitudes, and the unitary matrices of :mod:`bellsort.networks`, are
complex128 if given complex, even with every imaginary part zero, and
float64 otherwise (:func:`float_or_complex`). The paper's elements and
states are real, so they evolve in real arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .modes import (
    ARM_SECOND,
    Mode,
    ModeBasis,
    POL_DIAGONAL,
    POL_LINEAR,
    as_basis,
    canonical_pair,
    path_modes,
    polarized_modes,
    positions,
)

# Numeric thresholds shared across the package.
AMP_PRUNE = 1e-12  # |psi| below this is dropped from a state's support
NORM_TOL = 1e-9  # a constructed or evolved state must have norm 1 within this
UNITARY_TOL = 1e-10  # max |U U^dagger - 1| entry of a SinglePhotonUnitary


@dataclass(frozen=True)
class BellIndex:
    """Index (j, n, m) of one member of the Bell family.

    j: pairing class, pairs arm-A path x with arm-B path x XOR j.
    n: phase bit, sign (-1)**n on odd paths.
    m: sign bit, sign (-1)**m on the upper path block (fixed to 0 for d=2).
    """

    j: int
    n: int
    m: int = 0

    def __post_init__(self) -> None:
        for name in ("j", "n", "m"):
            value = getattr(self, name)
            # a bool is an int, but would print into the label as "True"
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n not in (0, 1) or self.m not in (0, 1):
            raise ValueError(f"n and m must be bits, got n={self.n}, m={self.m}")
        if self.j < 0:
            raise ValueError(f"j must be nonnegative, got {self.j}")

    def validate_for(self, dim: int) -> None:
        if self.j >= dim:
            raise ValueError(f"pairing index j={self.j} out of range for dimension {dim}")
        if dim == 2 and self.m != 0:
            raise ValueError("dimension 2 has only 4 Bell states; m must be 0")

    @property
    def label(self) -> str:
        return f"psi{self.j}{self.n}{self.m}"

    @classmethod
    def parse(cls, text: str) -> "BellIndex":
        """Parse the CLI syntax 'j,n,m'."""
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError(f"expected 'j,n,m', got {text!r}")
        try:
            j, n, m = (int(p.strip()) for p in parts)
        except ValueError as exc:
            raise ValueError(f"expected integers in 'j,n,m', got {text!r}") from exc
        return cls(j, n, m)


@lru_cache(maxsize=16, typed=True)  # typed, so that 4.0 or True is no hit for 4 or 1
def all_bell_indices(dim: int) -> tuple[BellIndex, ...]:
    """Enumeration order used everywhere: j major, then n, then m.

    n and m are single bits, so this is the full d² Bell basis only for
    d = 2 (m = 0) and d = 4. For d ≥ 8 it is the 4·d states with bits n and
    m, not the d² of the full basis. The dimension must be a power of two,
    as for :func:`make_bell_state`.
    """
    _require_power_of_two(dim)
    ms = (0,) if dim == 2 else (0, 1)
    return tuple(BellIndex(j, n, m) for j in range(dim) for n in (0, 1) for m in ms)


def _sign(x, n: int, m: int):
    """(-1)**(n*x0 + m*x1) for a path index x or an integer array of them."""
    return 1 - 2 * ((n * (x & 1) + m * ((x >> 1) & 1)) & 1)


def _require_power_of_two(dim: int) -> None:
    # a bool is an int, as for BellIndex and Mode, and a float has no XOR
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 2 or dim & (dim - 1):
        raise ValueError(f"dimension must be an integer power of two >= 2 for the XOR pairing, got {dim!r}")


def frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark arrays that caches share between callers read-only."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


def float_or_complex(array) -> np.ndarray:
    """``array`` as C-contiguous complex128 if it is complex, else as float64."""
    array = np.asarray(array)
    return np.ascontiguousarray(array, dtype=complex if np.iscomplexobj(array) else float)


def _pair_indices(array) -> np.ndarray:
    """A new intp copy of ``array``; raises unless it holds integers (an empty list passes)."""
    array = np.asarray(array)
    if array.size and array.dtype.kind not in "iu":
        raise ValueError(f"pair indices must be integers, got dtype {array.dtype}")
    return array.astype(np.intp)


def _pol_family(pols: set) -> tuple[str, str] | None:
    if pols <= {""}:
        return None
    if pols <= set(POL_LINEAR):
        return POL_LINEAR
    if pols <= set(POL_DIAGONAL):
        return POL_DIAGONAL
    raise ValueError(f"mixed polarization labelling {sorted(pols)}")


def _mode_space(dim: int, pols: set) -> ModeBasis:
    """The canonical full single-photon basis of the polarization family of ``pols``."""
    family = _pol_family(pols)
    return path_modes(dim) if family is None else polarized_modes(dim, family)


@lru_cache(maxsize=64)
def _check_basis(basis: ModeBasis, dim: int) -> None:
    """Raise unless ``basis`` has modes, each with path < dim, of one polarization family."""
    if not basis:
        raise ValueError("the mode basis is empty")
    for m in basis:
        if m.path >= dim:
            raise ValueError(f"mode {m.label} outside dimension {dim}")
    _pol_family({m.pol for m in basis})


@dataclass(frozen=True, eq=False)
class TwoPhotonState:
    """Symmetric two-photon amplitude function on the upper triangle of a basis.

    ``vals[t]`` is psi(basis[i], basis[k]) for the pair id ``ids[t]`` =
    i * len(basis) + k with i <= k, and ``ids`` is strictly increasing;
    pairs absent from the arrays have zero amplitude, and ``vals`` is
    complex128 if given complex, else float64. ``dim`` is a positive int.
    The squared norm is sum over distinct pairs of 2|psi|**2 plus
    sum over m of |psi(m, m)|**2.
    Every basis mode must have path < dim, and all must share one
    polarization family (none, H/V or +/-). The arrays are read-only.
    Calling the class checks copies of the arrays, so the caller's stay
    theirs, and rejects a norm off 1 by more than 1e-9 (or NaN); nothing
    rescales. :meth:`from_amplitudes` also prunes amplitudes below 1e-12.
    The package's own builders skip the checks through the private
    :meth:`_build`; tests/test_builder.py re-checks what they make.
    Equality and hashing are by identity.
    """

    dim: int
    basis: ModeBasis = field(repr=False)
    ids: np.ndarray = field(repr=False)
    vals: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if isinstance(self.dim, bool) or not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "basis", as_basis(self.basis))
        _check_basis(self.basis, self.dim)
        for name, array in (("ids", _pair_indices(self.ids)), ("vals", np.array(float_or_complex(self.vals)))):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        ids, size = self.ids, len(self.basis)
        if not ids.ndim == 1 or not ids.shape == self.vals.shape:
            raise ValueError("ids and vals must be 1-d arrays of one length")
        check_norm(math.sqrt(pair_weights(ids, size) @ np.abs(self.vals) ** 2))  # an empty state fails here
        rows, cols = np.divmod(ids, size)
        if rows.min() < 0 or (rows > cols).any():
            raise ValueError("pair indices must satisfy 0 <= row <= col < len(basis)")
        if (np.diff(ids) <= 0).any():
            raise ValueError("pair indices must be distinct and in row-major order")

    @classmethod
    def _build(cls, dim: int, basis: ModeBasis, ids: np.ndarray, vals: np.ndarray) -> "TwoPhotonState":
        """A state from arrays the package made itself, frozen in place.

        The caller guarantees what the class would check: a ModeBasis, intp
        ``ids`` of distinct pairs in increasing order with 0 <= row <= col <
        len(basis), and float64 or complex128 ``vals`` of unit norm. Only the
        basis is checked against ``dim``: a network may map a state's modes
        onto output modes outside its dimension.
        """
        _check_basis(basis, dim)
        ids.setflags(write=False)  # inline, not frozen: this runs for every state built
        vals.setflags(write=False)
        state = object.__new__(cls)
        vars(state).update(dim=dim, basis=basis, ids=ids, vals=vals)
        return state

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_amplitudes(cls, dim: int, amps: Mapping[tuple[Mode, Mode], complex]) -> "TwoPhotonState":
        """Build a state from symmetric-wavefunction values.

        Keys may be given in either order; duplicates of the same unordered
        pair are rejected. The norm must already be 1 within 1e-9. The
        state lives in the canonical mode space of its modes' polarization.
        """
        canon: dict[tuple[Mode, Mode], complex] = {}
        for (m1, m2), a in amps.items():
            key = canonical_pair(m1, m2)
            if key in canon:
                raise ValueError(f"duplicate amplitude for pair ({key[0].label}, {key[1].label})")
            canon[key] = a
        basis = _mode_space(dim, {m.pol for pair in canon for m in pair})
        index = positions(basis)
        keys = sorted(canon)  # the mode space is sorted, so these pairs are row-major
        if outside := [m for key in keys for m in key if m not in index]:
            raise ValueError(f"mode {outside[0].label} outside dimension {dim}")
        ids = np.array([index[m1] * len(basis) + index[m2] for m1, m2 in keys], dtype=np.intp)
        vals = float_or_complex([canon[key] for key in keys])
        keep = ~(np.abs(vals) < AMP_PRUNE)  # a NaN is kept, for the norm check to reject
        return cls(dim, basis, ids[keep], vals[keep])

    # -- accessors ---------------------------------------------------------

    @cached_property
    def amps(self) -> Mapping[tuple[Mode, Mode], complex]:
        """Read-only map from canonical mode pairs (m1 <= m2) to complex psi(m1, m2)."""
        basis = self.basis
        rows, cols = np.divmod(self.ids, len(basis))
        vals = self.vals.astype(complex).tolist()
        return MappingProxyType(
            {canonical_pair(basis[i], basis[k]): a for i, k, a in zip(rows.tolist(), cols.tolist(), vals)}
        )


def check_norm(norm: float) -> None:
    if not abs(norm - 1.0) <= NORM_TOL:  # a NaN norm fails too
        raise ValueError(f"state norm {norm} deviates from 1 by more than {NORM_TOL}")


def pair_weights(ids: np.ndarray, size: int) -> np.ndarray:
    """Norm weight of each pair id over ``size`` modes: 1 for psi(m, m) (id m * (size + 1)), else 2."""
    return np.where(ids % (size + 1) == 0, 1.0, 2.0)


# -- Bell family construction ------------------------------------------------


@lru_cache(maxsize=16)
def _xor_table(basis: ModeBasis) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The XOR pairing on ``basis``, ordered arm, path, slot, as read-only (moved, signs, ids, vals).

    ``moved[j]`` is the position of (B, x XOR j, pol) for each arm-B mode
    (B, x, pol), arm-A modes kept, and ``signs[n + 2m]`` is (-1)**(n*x0 +
    m*x1) on arm B and 1 on arm A: the map :func:`encode` applies. Arm-A
    mode p pairs with arm-B mode p + half, so ``ids[j]`` are the increasing
    pair ids of |x>_A |x XOR j>_B in every slot and ``vals[n + 2m]`` their
    psi, sign * (1/sqrt(M/2)) / sqrt(2), exact. Both are tuples of rows, so
    that equal indices share one array.
    """
    size, half, index = len(basis), len(basis) // 2, positions(basis)
    paths = np.array([mode.path for mode in basis])
    flips = ([replace(m, path=m.path ^ j) if m.arm == ARM_SECOND else m for m in basis] for j in range(paths[-1] + 1))
    moved = np.array([[index[m] for m in flipped] for flipped in flips], dtype=np.intp)
    signs = np.where(np.arange(size) < half, 1.0, [_sign(paths, n, m) for m in (0, 1) for n in (0, 1)])
    ids = np.arange(half, dtype=np.intp) * size + moved[:, half:]
    vals = signs[:, half:] * (1.0 / math.sqrt(half) / math.sqrt(2.0))
    frozen(moved, signs, ids, vals)
    return moved, signs, tuple(ids), tuple(vals)


def _xor_paired(dim: int, idx: BellIndex, basis: ModeBasis) -> TwoPhotonState:
    """Bell state ``idx``, checked against ``dim``, over every slot of ``basis``: one row of :func:`_xor_table`."""
    idx.validate_for(dim)
    _, _, ids, vals = _xor_table(basis)
    return TwoPhotonState._build(dim, basis, ids[idx.j], vals[idx.n + 2 * idx.m])


def make_bell_state(dim: int, idx: BellIndex) -> TwoPhotonState:
    """The (j, n, m) Bell state of the XOR-paired family in dimension d.

    Component kets are |x>_A |x XOR j>_B with coefficient
    (-1)**(n*x0 + m*x1) / sqrt(d). The dimension must be a power of two
    (the XOR pairing is not closed otherwise). The phase reads only path
    bits x0 and x1: :func:`all_bell_indices` says which states that gives.
    """
    _require_power_of_two(dim)
    return _xor_paired(dim, idx, path_modes(dim))


def make_hyper_state(idx: BellIndex) -> TwoPhotonState:
    """A d=4 path Bell state tensored with the polarization pair (|HH>+|VV>)/sqrt(2)."""
    return _xor_paired(4, idx, polarized_modes(4, POL_LINEAR))


def encode(state: TwoPhotonState, indices: Iterable[BellIndex]) -> list[TwoPhotonState]:
    """Encode each message of ``indices`` on the second photon (arm B) of a shared pair.

    Returns one state per index, in order; ``encode(reference, [idx])[0]``
    on the reference state |psi(0,0,0)> yields make_bell_state(d, idx), and
    on a hyperentangled reference the polarization factor rides along
    unchanged. Every index is checked before any state is built: a bad one
    raises ValueError naming its position. The state must be stored in the
    full canonical mode space of its dimension and polarization, as the
    Bell and hyper states are, or ValueError is raised. Each U is a signed
    permutation of modes, so psi -> U psi U^T moves each pair and flips
    signs: exactly the bits of the dense product, done for all messages in
    one pass over (message, pair) arrays. The norm is unchanged, so it is
    not checked again and no result is empty.
    """
    _require_power_of_two(state.dim)
    indices = tuple(indices)  # read once, so an iterator is not used up by the checks
    for position, idx in enumerate(indices):
        try:
            idx.validate_for(state.dim)
        except ValueError as exc:
            raise ValueError(f"message {position} ({idx.label}): {exc}") from None
    basis, size = state.basis, len(state.basis)
    if basis != _mode_space(state.dim, {basis[0].pol}):
        raise ValueError("encode needs a state stored in the full canonical mode space of its dimension")
    keep = np.abs(state.vals) >= AMP_PRUNE  # the signs are +-1, so one mask prunes every message
    rows, cols = np.divmod(state.ids[keep], size)
    moved, signs, _, _ = _xor_table(basis)
    moved, signs = moved[[idx.j for idx in indices]], signs[[idx.n + 2 * idx.m for idx in indices]]
    vals = state.vals[keep] * signs[:, rows] * signs[:, cols]
    rows, cols = moved[:, rows], moved[:, cols]
    ids = np.minimum(rows, cols) * size + np.maximum(rows, cols)
    order = np.argsort(ids, axis=1, kind="stable")  # distinct ids; the stable sort is the one the partition pages in
    ids, vals = np.take_along_axis(ids, order, 1), np.take_along_axis(vals, order, 1)
    return [TwoPhotonState._build(state.dim, basis, i, v) for i, v in zip(ids, vals)]
