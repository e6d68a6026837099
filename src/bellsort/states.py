"""Two-photon states, the generalized Bell family, and the encoding unitaries.

The d-dimensional Bell states of a photon pair shared between arms A and B
are indexed by (j, n, m): j pairs path x in arm A with path ``x XOR j`` in
arm B, n is a phase bit on odd paths and m a sign bit on the upper path
block. For d = 4 this gives the 16 states

    |psi(j, n, m)> = (1/2) * sum_x (-1)**(n*x0 + m*x1) |x>_A |x XOR j>_B

with x0, x1 the low/high bits of x; for d = 2 the four standard Bell states
(m is fixed to 0). The same XOR pairing defines the local encoding unitary
U(j, n, m)|x> = (-1)**(n*x0 + m*x1) |x XOR j>, which maps the reference
state |psi(0, 0, 0)> onto any other member of the family when applied to
one photon.

States are symmetric amplitude functions over unordered mode pairs. A Fock
state with photons in distinct modes m1, m2 has psi(m1, m2) = psi(m2, m1) =
1/sqrt(2); a doubly occupied mode has psi(m, m) = 1. With this convention
the Born weights are |psi(m, m)|**2 for a bunched pair and
2*|psi(m1, m2)|**2 otherwise, and single-photon unitaries act as
psi -> U psi U^T on the amplitude matrix.

A state is stored as arrays over the upper triangle of its mode basis:
``vals[t]`` is psi(basis[rows[t]], basis[cols[t]]) with rows[t] <= cols[t].
Evolution fills the dense symmetric matrix only for the matmul and reads
the upper triangle back in row-major order; ``amps`` is a read-only
Mode-pair view of the same data for inspection and tests. An encoding
unitary is a signed permutation of modes, so :func:`encode` never builds a
matrix: it maps each stored pair's indices to their images, flips the sign
of its amplitude where U does, and sorts the pairs back into that order.
Calling :class:`TwoPhotonState` checks the arrays; the Bell and hyper
states, :func:`encode` and evolution build arrays that hold those checks by
construction and pass them to the private ``TwoPhotonState._build``, which
checks only the basis against the dimension.

Amplitudes and unitary matrices are float64 when every imaginary part is
exactly zero and complex128 otherwise. Every element and state of the paper
is real, so its evolution runs as real matrix products; a complex state or
network promotes the product to complex. On real data the complex product
only adds exact zeros, and tests/test_exact_real.py checks that both give
the same bits for every state and network the CLI evolves.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .modes import (
    ARM_FIRST,
    ARM_SECOND,
    Mode,
    ModeBasis,
    POL_DIAGONAL,
    POL_LINEAR,
    as_basis,
    canonical_pair,
    path_modes,
    polarized_modes,
)

# Numeric thresholds shared across the package.
AMP_PRUNE = 1e-12  # |psi| below this is dropped from a state's support
NORM_TOL = 1e-9  # a constructed or evolved state must have norm 1 within this
BORN_NORM_TOL = 1e-6  # outcome_distribution rejects states off unit norm by more
PHASE_TOL = 1e-9  # per-amplitude slack of TwoPhotonState.approx_equal
UNITARY_TOL = 1e-10  # max |U U^dagger - 1| entry of a SinglePhotonUnitary
PROB_TOL = 1e-9  # OutcomeDistribution.from_probs rejects probabilities summing off 1 by more

_LABEL_RE = re.compile(r"^psi(0|[1-9]\d*)([01])([01])$")  # n and m are bits, so j takes the rest


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
    def from_label(cls, label: str) -> "BellIndex":
        match = _LABEL_RE.match(label)
        if not match:
            raise ValueError(f"not a Bell state label: {label!r} (expected e.g. 'psi210')")
        return cls(*(int(g) for g in match.groups()))

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


@lru_cache(maxsize=16)
def all_bell_indices(dim: int) -> tuple[BellIndex, ...]:
    """Enumeration order used everywhere: j major, then n, then m."""
    ms = (0,) if dim == 2 else (0, 1)
    return tuple(BellIndex(j, n, m) for j in range(dim) for n in (0, 1) for m in ms)


def _sign(x, n: int, m: int):
    """(-1)**(n*x0 + m*x1) for a path index x or an integer array of them."""
    return 1 - 2 * ((n * (x & 1) + m * ((x >> 1) & 1)) & 1)


def _require_power_of_two(dim: int) -> None:
    if dim < 2 or dim & (dim - 1):
        raise ValueError(
            f"dimension must be a power of two >= 2 for the XOR pairing, got {dim}"
        )


@lru_cache(maxsize=64)
def _positions(basis: ModeBasis) -> dict:
    return {m: i for i, m in enumerate(basis)}


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark arrays that caches share between callers read-only."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


@lru_cache(maxsize=16)
def _triu(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-major upper triangle of a size x size matrix: rows, cols, flat offsets, pair weights."""
    rows, cols = np.triu_indices(size)
    return _frozen(rows, cols, rows * size + cols, _pair_weights(rows, cols))


def _exact_dtype(array) -> np.ndarray:
    """``array`` as float64 if every imaginary part is exactly zero, else complex128."""
    array = np.asarray(array)
    if np.iscomplexobj(array):
        if array.imag.any():
            return array.astype(complex, copy=False)
        array = array.real
    return np.ascontiguousarray(array, dtype=float)


def _pair_indices(array) -> np.ndarray:
    """``array`` as intp; raises unless it holds integers (an empty list passes)."""
    array = np.asarray(array)
    if array.size and array.dtype.kind not in "iu":
        raise ValueError(f"pair indices must be integers, got dtype {array.dtype}")
    return array.astype(np.intp, copy=False)


def _pol_basis(pols: set) -> tuple[str, str] | None:
    if pols <= {None}:
        return None
    if pols <= set(POL_LINEAR):
        return POL_LINEAR
    if pols <= set(POL_DIAGONAL):
        return POL_DIAGONAL
    raise ValueError(f"mixed polarization labelling {sorted(map(str, pols))}")


def _mode_space(dim: int, pol_basis: tuple[str, str] | None) -> ModeBasis:
    return path_modes(dim) if pol_basis is None else polarized_modes(dim, pol_basis)


@lru_cache(maxsize=64)
def _check_basis(basis: ModeBasis, dim: int) -> None:
    """Raise unless every mode of ``basis`` has path < dim and one polarization family."""
    for m in basis:
        if m.path >= dim:
            raise ValueError(f"mode {m.label} outside dimension {dim}")
    _pol_basis({m.pol for m in basis})


@dataclass(frozen=True, eq=False)
class TwoPhotonState:
    """Symmetric two-photon amplitude function on the upper triangle of a basis.

    ``vals[t]`` is psi(basis[rows[t]], basis[cols[t]]) with rows <= cols;
    pairs absent from the arrays have zero amplitude. The squared norm is
    sum over distinct pairs of 2|psi|**2 plus sum over m of |psi(m, m)|**2.
    Every basis mode must have path < dim, and all must share one
    polarization family (none, H/V or +/-). The arrays are read-only; build
    states with :meth:`from_amplitudes` or :meth:`from_kets`, which prune
    amplitudes below 1e-12 and reject a norm off 1; they never rescale.
    Calling the class checks the arrays but not the norm. The package's own
    builders skip the array checks through the private :meth:`_build`;
    tests/test_builder.py runs what they make back through the class.
    Equality and hashing are by identity.
    """

    dim: int
    basis: ModeBasis = field(repr=False)
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    vals: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        object.__setattr__(self, "basis", as_basis(self.basis))
        _check_basis(self.basis, self.dim)
        for name, array in (
            ("rows", _pair_indices(self.rows)),
            ("cols", _pair_indices(self.cols)),
            ("vals", _exact_dtype(self.vals)),
        ):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        rows, cols = self.rows, self.cols
        if not rows.ndim == 1 or not rows.shape == cols.shape == self.vals.shape:
            raise ValueError("rows, cols and vals must be 1-d arrays of one length")
        if not len(rows):
            raise ValueError("state has no amplitudes")
        if rows.min() < 0 or cols.max() >= len(self.basis) or (rows > cols).any():
            raise ValueError("pair indices must satisfy 0 <= row <= col < len(basis)")

    @classmethod
    def _build(
        cls, dim: int, basis: ModeBasis, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
    ) -> "TwoPhotonState":
        """A state from arrays the package made itself, frozen in place.

        The caller guarantees what the class would check: a ModeBasis, intp
        ``rows`` and ``cols`` and exact-dtype ``vals`` of one nonzero
        length, with 0 <= row <= col < len(basis). Only the basis is checked
        against ``dim``, which is what rejects evolving a state through a
        network of a larger dimension.
        """
        _check_basis(basis, dim)
        _frozen(rows, cols, vals)
        state = object.__new__(cls)
        vars(state).update(dim=dim, basis=basis, rows=rows, cols=cols, vals=vals)
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
            canon[key] = complex(a)
        basis = _mode_space(dim, _pol_basis({m.pol for pair in canon for m in pair}))
        index = _positions(basis)
        psi = np.zeros((len(basis), len(basis)), dtype=complex)
        for (m1, m2), a in canon.items():
            for m in (m1, m2):
                if m not in index:
                    raise ValueError(f"mode {m.label} outside dimension {dim}")
            psi[index[m1], index[m2]] = psi[index[m2], index[m1]] = a
        return cls(dim, basis, *_upper_triangle(len(basis), psi))

    @classmethod
    def from_kets(cls, dim: int, kets: Iterable[tuple[Mode, Mode, complex]]) -> "TwoPhotonState":
        """Build a state from Fock-ket terms ``c * |1_m1, 1_m2>``.

        Each term puts one photon in ``m1`` and one in ``m2`` with amplitude
        ``c``; repeated pairs accumulate. For distinct modes the stored
        symmetric amplitude is ``c / sqrt(2)``, for ``m1 == m2`` the term
        means ``c * |2_m>`` and is stored as ``c``. The norm must be 1
        within 1e-9.
        """
        acc: dict[tuple[Mode, Mode], complex] = {}
        for m1, m2, c in kets:
            key = canonical_pair(m1, m2)
            stored = complex(c) if m1 == m2 else complex(c) / math.sqrt(2.0)
            acc[key] = acc.get(key, 0.0) + stored
        return cls.from_amplitudes(dim, acc)

    # -- accessors ---------------------------------------------------------

    @cached_property
    def amps(self) -> Mapping[tuple[Mode, Mode], complex]:
        """Read-only map from canonical mode pairs (m1 <= m2) to complex psi(m1, m2)."""
        basis = self.basis
        vals = self.vals.astype(complex).tolist()
        return MappingProxyType(
            {
                canonical_pair(basis[i], basis[k]): a
                for i, k, a in zip(self.rows.tolist(), self.cols.tolist(), vals)
            }
        )

    def amplitude(self, m1: Mode, m2: Mode) -> complex:
        """Symmetric lookup psi(m1, m2); zero off the stored support."""
        return self.amps.get(canonical_pair(m1, m2), 0.0 + 0.0j)

    def norm(self) -> float:
        return _norm_of(_pair_weights(self.rows, self.cols), self.vals)

    @property
    def support(self) -> frozenset[tuple[Mode, Mode]]:
        return frozenset(self.amps)

    def modes(self) -> frozenset[Mode]:
        used = np.unique(np.concatenate((self.rows, self.cols)))
        return frozenset(self.basis[i] for i in used.tolist())

    @property
    def pol_basis(self) -> tuple[str, str] | None:
        """Which polarization basis the state lives in, None for path-only."""
        return _pol_basis({self.basis[0].pol})

    def mode_space(self) -> ModeBasis:
        """The canonical full single-photon basis this state is expressed in."""
        return _mode_space(self.dim, self.pol_basis)

    def _pairs_in(self, basis: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The stored pairs' rows and cols as positions in ``basis`` (not reordered).

        Raises if a mode of the support is not in ``basis``.
        """
        if basis is self.basis or basis == self.basis:
            return self.rows, self.cols
        index = _positions(as_basis(basis))
        missing = sorted(m.label for m in self.modes() if m not in index)
        if missing:
            raise ValueError(f"state modes not covered by the basis: {', '.join(missing)}")
        remap = np.array([index.get(m, -1) for m in self.basis], dtype=np.intp)
        return remap[self.rows], remap[self.cols]

    def to_matrix(self, basis: tuple) -> np.ndarray:
        """Dense symmetric amplitude matrix over ``basis``; raises as :meth:`_pairs_in`."""
        rows, cols = self._pairs_in(basis)
        out = np.zeros((len(basis), len(basis)), dtype=self.vals.dtype)
        out[rows, cols] = self.vals
        out[cols, rows] = self.vals
        return out

    # -- comparison --------------------------------------------------------

    def approx_equal(
        self,
        other: "TwoPhotonState",
        *,
        tol: float = PHASE_TOL,
        up_to_phase: bool = True,
    ) -> bool:
        """Per-amplitude comparison, by default up to a global phase.

        The global phase is quotiented out using the phase of this state's
        largest-magnitude amplitude.
        """
        if self.dim != other.dim:
            return False
        phase_self = phase_other = 1.0 + 0.0j
        if up_to_phase:
            ref = max(self.amps, key=lambda k: abs(self.amps[k]))
            a, b = self.amps[ref], other.amplitude(*ref)
            if abs(b) < AMP_PRUNE:
                return False
            phase_self, phase_other = a / abs(a), b / abs(b)
        for key in set(self.amps) | set(other.amps):
            va = self.amps.get(key, 0.0) / phase_self
            vb = other.amps.get(key, 0.0) / phase_other
            if abs(va - vb) > tol:
                return False
        return True


def _upper_triangle(size: int, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, cols and values of the upper triangle, pruned; raises if the norm is off 1."""
    rows, cols, flat, weights = _triu(size)
    vals = matrix.ravel().take(flat)
    norm = _norm_of(weights, vals)
    if not abs(norm - 1.0) <= NORM_TOL:  # a NaN norm fails too
        raise ValueError(f"state norm {norm} deviates from 1 by more than {NORM_TOL}")
    keep = np.abs(vals) >= AMP_PRUNE
    return rows[keep], cols[keep], vals[keep]


def _pair_weights(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Norm weight of each stored pair: 1 for psi(m, m), 2 for a distinct pair."""
    return np.where(rows == cols, 1.0, 2.0)


def _norm_of(weights: np.ndarray, vals: np.ndarray) -> float:
    squares = vals.real**2
    if np.iscomplexobj(vals):
        squares += vals.imag**2
    return math.sqrt(float(weights @ squares))


@dataclass(frozen=True, eq=False)
class SinglePhotonUnitary:
    """A passive linear-optical element as a single-photon mode map.

    ``matrix[o, i]`` is the amplitude from input mode ``in_modes[i]`` to
    output mode ``out_modes[o]``. Input and output bases may differ (the
    polarization analyzers relabel H/V to +/-). Unitarity is enforced at
    construction within 1e-10; the matrix is a read-only copy, float64 when
    exactly real and complex128 otherwise. Equality and hashing are by
    identity, as for :class:`TwoPhotonState`; compare matrices with numpy.
    ``transposed`` is a read-only C-contiguous copy of ``matrix.T``, made
    on first use for :func:`~bellsort.networks.evolve`.
    """

    in_modes: ModeBasis
    out_modes: ModeBasis
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        mat = np.array(_exact_dtype(self.matrix))
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "in_modes", as_basis(self.in_modes))
        object.__setattr__(self, "out_modes", as_basis(self.out_modes))
        n_in, n_out = len(self.in_modes), len(self.out_modes)
        if mat.shape != (n_out, n_in) or n_in != n_out:
            raise ValueError(f"matrix shape {mat.shape} does not match mode counts ({n_out}, {n_in})")
        if not np.isfinite(mat).all():  # before the product, which would warn on inf
            raise ValueError("matrix is not unitary (non-finite entries)")
        defect = np.max(np.abs(mat @ mat.conj().T - np.eye(n_in)))
        if not defect <= UNITARY_TOL:  # a NaN defect fails too
            raise ValueError(f"matrix is not unitary (max defect {defect:.3e})")
        mat.flags.writeable = False

    @cached_property
    def transposed(self) -> np.ndarray:
        return _frozen(np.ascontiguousarray(self.matrix.T))[0]

    @property
    def dim(self) -> int:
        return len(self.in_modes)

    @classmethod
    def identity(cls, modes: tuple) -> "SinglePhotonUnitary":
        return cls(modes, modes, np.eye(len(modes)))

    def __matmul__(self, earlier: "SinglePhotonUnitary") -> "SinglePhotonUnitary":
        """Compose: ``later @ earlier`` applies ``earlier`` first."""
        if earlier.out_modes != self.in_modes:
            raise ValueError("mode bases do not line up for composition")
        return SinglePhotonUnitary(earlier.in_modes, self.out_modes, self.matrix @ earlier.matrix)


# -- Bell family construction ------------------------------------------------


_ARM_OF_PHOTON = {"first": ARM_FIRST, "second": ARM_SECOND}


@lru_cache(maxsize=128)
def _xor_positions(basis: ModeBasis, arm: str, j: int) -> np.ndarray:
    """Position of (arm, x XOR j, pol) for each mode (arm, x, pol) of ``basis``; others stay."""
    index = _positions(basis)
    moved = [index[Mode(m.arm, m.path ^ j, m.pol)] if m.arm == arm else i for i, m in enumerate(basis)]
    return _frozen(np.array(moved, dtype=np.intp))[0]


@lru_cache(maxsize=128)
def _arm_signs(basis: ModeBasis, arm: str, n: int, m: int) -> np.ndarray:
    """(-1)**(n*x0 + m*x1) for each mode of ``basis`` in ``arm``, 1 elsewhere."""
    paths = np.array([mode.path for mode in basis])
    in_arm = np.array([mode.arm == arm for mode in basis])
    return _frozen(np.where(in_arm, _sign(paths, n, m), 1).astype(float))[0]


def _xor_paired(dim: int, idx: BellIndex, basis: ModeBasis, coeff: float) -> TwoPhotonState:
    """The state sum_x (-1)**(n*x0 + m*x1) coeff |x>_A |x XOR j>_B in every slot of ``basis``.

    ``basis`` is ordered arm, path, slot: arm-A mode p pairs with arm-B mode
    p + half, moved the way encoding the second photon moves it.
    """
    half = len(basis) // 2
    # c * |1_a, 1_b> with a != b is stored as c / sqrt(2); the signs are
    # +-1, so scaling them by one rounded factor is exact
    vals = _arm_signs(basis, ARM_FIRST, idx.n, idx.m)[:half] * (coeff / math.sqrt(2.0))
    cols = _xor_positions(basis, ARM_SECOND, idx.j)[half:]
    return TwoPhotonState._build(dim, basis, np.arange(half, dtype=np.intp), cols, vals)


def make_bell_state(dim: int, idx: BellIndex) -> TwoPhotonState:
    """The (j, n, m) Bell state of the XOR-paired family in dimension d.

    Component kets are |x>_A |x XOR j>_B with coefficient
    (-1)**(n*x0 + m*x1) / sqrt(d). The dimension must be a power of two
    (the XOR pairing is not closed otherwise); d = 2 and d = 4 are the
    supported configurations, d = 2 forcing m = 0.
    """
    _require_power_of_two(dim)
    idx.validate_for(dim)
    return _xor_paired(dim, idx, path_modes(dim), 1.0 / math.sqrt(dim))


def make_hyper_state(idx: BellIndex) -> TwoPhotonState:
    """A d=4 path Bell state tensored with the polarization pair (|HH>+|VV>)/sqrt(2)."""
    idx.validate_for(4)
    return _xor_paired(4, idx, polarized_modes(4, POL_LINEAR), 1.0 / (2.0 * math.sqrt(2.0)))


def encoding_unitary(dim: int, idx: BellIndex) -> SinglePhotonUnitary:
    """The local path unitary U(j, n, m)|x> = (-1)**(n*x0 + m*x1) |x XOR j>.

    Acts on the d-dimensional path space of one photon (identity on
    polarization when applied to a polarized state); in/out modes are the
    path indices 0..d-1.
    """
    _require_power_of_two(dim)
    idx.validate_for(dim)
    x = np.arange(dim)
    mat = np.zeros((dim, dim))
    mat[x ^ idx.j, x] = _sign(x, idx.n, idx.m)
    paths = tuple(range(dim))
    return SinglePhotonUnitary(paths, paths, mat)


def encode(state: TwoPhotonState, idx: BellIndex, which_photon: str) -> TwoPhotonState:
    """Encode a message on one photon of a shared pair.

    Applying ``encode(reference, idx, 'second')`` to the reference state
    |psi(0,0,0)> yields make_bell_state(d, idx); on a hyperentangled
    reference the polarization factor rides along unchanged. U is a signed
    permutation of modes, so psi -> U psi U^T moves each pair and flips signs:
    exactly the bits of the dense product, in the state's mode space. The
    norm is unchanged, so it is checked where states are evolved and detected.
    """
    _require_power_of_two(state.dim)
    idx.validate_for(state.dim)
    if which_photon not in _ARM_OF_PHOTON:
        raise ValueError(f"which_photon must be 'first' or 'second', got {which_photon!r}")
    arm = _ARM_OF_PHOTON[which_photon]
    basis = state.mode_space()
    rows, cols = state._pairs_in(basis)
    signs = _arm_signs(basis, arm, idx.n, idx.m)
    vals = state.vals * signs[rows] * signs[cols]
    positions = _xor_positions(basis, arm, idx.j)
    rows, cols = positions[rows], positions[cols]
    low, high = np.minimum(rows, cols), np.maximum(rows, cols)
    order = np.argsort(low * len(basis) + high)
    order = order[np.abs(vals[order]) >= AMP_PRUNE]
    if not len(order):
        raise ValueError("state has no amplitudes")
    # pruning can drop the last complex amplitude of a state built by hand
    return TwoPhotonState._build(state.dim, basis, low[order], high[order], _exact_dtype(vals[order]))
