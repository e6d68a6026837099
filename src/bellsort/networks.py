"""Linear-optical elements, the two measurement interferometers, and bosonic two-photon evolution.

Setup ``fig1`` is the bare two-photon interference measurement: one 50:50
beam splitter per path couples the two arms, acting as the Hadamard
|x>_A -> (|x>_a + |x>_b)/sqrt(2), |x>_B -> (|x>_a - |x>_b)/sqrt(2) on every
path x. Indistinguishable photons bunch (same output arm) when their joint
path state is exchange-symmetric and anti-bunch when it is antisymmetric,
which is all the information this setup extracts beyond the path pair.

Setup ``fig2`` adds a polarization ancilla pair (|HH> + |VV>)/sqrt(2) and
three stages:

1. ``pbs0_rail_swap`` -- polarizing beam splitters at 0 degrees between the
   paired path rails (0, 1) and (2, 3) of each arm: H transmits (path
   unchanged), V reflects into the partner rail (path x -> x XOR 1). Every
   Bell state is an eigenstate of the two-photon rail swap with eigenvalue
   (-1)**n, so the stage rewrites the phase bit n into the sign of the
   ancilla: |HH> + VV> -> |HH> + (-1)**n |VV>, paths unchanged.
2. ``bs_hadamard`` -- the fig1 beam splitters, identity on polarization.
3. ``pbs45_basis_change`` -- polarizing beam splitters at 45 degrees on
   every output rail, relabelling H/V to the diagonal detector basis
   |+> = (|H>+|V>)/sqrt(2), |-> = (|H>-|V>)/sqrt(2). The ancilla sign then
   shows up as same-sign (+/+, -/-) versus opposite-sign (+/-) detector
   pairs.

:func:`check_setup` says which networks exist, and :func:`network_for_setup`
is the one way to get either network. It returns a cached
:class:`NetworkSpec` that names its setup, so the code that classifies
with it need not guess the setup; ``NetworkSpec.stages`` is for
inspecting the layers one at a time and ``NetworkSpec.unitary`` is their
product. Every stage matrix is a Kronecker product over the (arm, path,
pol) factors of the canonical mode order, such as H (x) 1_d, the Hadamard
on the arm, for the beam splitters of fig1. :func:`prepared_state` and :func:`labelled_states` prepare
the Bell family as each setup takes it: with the polarization ancilla for fig2.

:class:`SinglePhotonUnitary` is an element or a whole network as a
single-photon mode map, and caches its :class:`PairTerms` table.
:func:`evolve` moves a state through one and is the one statement of the
evolution contract: the sandwich, the table's slots and dead key, and the
sum. :func:`evolve_all` moves a family to the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from typing import Iterable, NamedTuple

import numpy as np

from .modes import ModeBasis, POL_DIAGONAL, POL_LINEAR, as_basis, path_modes, polarized_modes
from .states import (
    AMP_PRUNE, UNITARY_TOL, BellIndex, TwoPhotonState, all_bell_indices, check_norm, float_or_complex, frozen,
    make_bell_state, make_hyper_state,
)

SETUP_FIG1 = "fig1"
SETUP_FIG2 = "fig2"
SETUPS = (SETUP_FIG1, SETUP_FIG2)

# The 50:50 beam splitter on the arms and the PBS at 45 degrees on the
# polarization, [out, in]: the first input carries the + superposition and the
# second the - superposition; all derived supports are invariant under moving
# the minus sign to the first input instead.
(_HADAMARD,) = frozen(np.array([[1.0, 1.0], [1.0, -1.0]]) * (1.0 / math.sqrt(2.0)))


@dataclass(frozen=True)
class NetworkStage:
    """One optical element layer: its kind and its unitary."""

    kind: str
    unitary: SinglePhotonUnitary


@dataclass(frozen=True)
class NetworkSpec:
    """The network of a measurement setup, as returned by :func:`network_for_setup`.

    ``stages`` lists the optical layers in the order a photon meets them
    (stages[0] first), for inspection; ``unitary`` is their product, the
    single-photon map that classification and sampling evolve through.
    Specs and stages compare and hash by their fields and a unitary by
    identity, so two specs are equal when they hold the same stage objects.
    There must be a stage, and each must take the modes the one before gives.
    """

    setup: str
    dim: int
    stages: tuple[NetworkStage, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a network needs at least one stage")
        for before, after in zip(self.stages, self.stages[1:]):
            if after.unitary.in_modes != before.unitary.out_modes:
                raise ValueError(f"stage {after.kind!r} does not take the output modes of stage {before.kind!r}")

    @cached_property
    def unitary(self) -> SinglePhotonUnitary:
        """The stages' product in stage order by ``np.einsum``, checked once; a lone stage's own object, uncopied."""
        first, last = self.stages[0].unitary, self.stages[-1].unitary
        product = first.matrix
        for stage in self.stages[1:]:
            product = np.einsum("ik,kj->ij", stage.unitary.matrix, product)
        return first if len(self.stages) == 1 else SinglePhotonUnitary(first.in_modes, last.out_modes, product)


def _kron(*factors) -> np.ndarray:
    """The Kronecker product of ``factors``, its -0.0 entries made +0.0: the network digests hash the bytes."""
    return reduce(np.kron, factors) + 0.0


def check_setup(setup: str, dim: int) -> None:
    """Raise unless ``setup`` is one of :data:`SETUPS` with a network at integer ``dim``: fig1 at 2 up, fig2 at 4."""
    if setup not in SETUPS:
        raise ValueError(f"unknown setup {setup!r}, expected one of {SETUPS}")
    if isinstance(dim, bool) or not isinstance(dim, int):  # a bool is an int, and 4.0 == 4
        raise ValueError(f"dimension must be an integer, got {dim!r}")
    if setup == SETUP_FIG1 and dim < 2:
        raise ValueError(f"need at least two paths, got dimension {dim}")
    if setup == SETUP_FIG2 and dim != 4:
        raise ValueError("the ancilla-assisted setup is defined for dimension 4")


@lru_cache(maxsize=16, typed=True)  # typed, so that 4.0 or True is no hit for 4 or 1
def network_for_setup(setup: str, dim: int, /) -> NetworkSpec:
    """The measurement network of a setup, built once per (setup, dim).

    fig1 is the beam-splitter array on d paths (2d modes); fig2 maps the 16
    polarized input modes (H/V basis) through the PBS@0 rail swap, the beam
    splitters and the PBS@45 analyzers onto the 16 detector modes (+/-
    basis). The result is shared between callers and immutable: frozen
    stages with read-only matrices, and a product composed once.
    """
    check_setup(setup, dim)
    if setup == SETUP_FIG1:
        modes = path_modes(dim)
        stages = (NetworkStage("bs_hadamard", SinglePhotonUnitary(modes, modes, _kron(_HADAMARD, np.eye(dim)))),)
    else:
        linear, diagonal = polarized_modes(dim, POL_LINEAR), polarized_modes(dim, POL_DIAGONAL)
        rails = np.eye(2 * dim)  # identity on (arm, path) or on (path, pol)
        # H stays and V hops to the partner rail, path x -> x XOR 1: X on the low path bit, under the
        # identity on the arm and the high path bit, 2 * d/2 = d rails
        swap = _kron(rails, np.diag([1.0, 0.0])) + _kron(np.eye(dim), [[0.0, 1.0], [1.0, 0.0]], np.diag([0.0, 1.0]))
        stages = (
            NetworkStage("pbs0_rail_swap", SinglePhotonUnitary(linear, linear, swap)),
            NetworkStage("bs_hadamard", SinglePhotonUnitary(linear, linear, _kron(_HADAMARD, rails))),
            NetworkStage("pbs45_basis_change", SinglePhotonUnitary(linear, diagonal, _kron(rails, _HADAMARD))),
        )
    return NetworkSpec(setup, dim, stages)


def prepared_state(setup: str, dim: int, idx: BellIndex) -> TwoPhotonState:
    """Bell state ``idx`` as a setup takes it, with the polarization ancilla for fig2, once ``check_setup`` passes."""
    check_setup(setup, dim)
    return make_hyper_state(idx) if setup == SETUP_FIG2 else make_bell_state(dim, idx)


def labelled_states(setup: str, dim: int) -> list[tuple[str, TwoPhotonState]]:
    """The full labelled Bell family prepared for a setup, enumeration order."""
    return [(idx.label, prepared_state(setup, dim, idx)) for idx in all_bell_indices(dim)]


class PairTerms(NamedTuple):
    """The pair-term table of a unitary, one row per stored input pair, laid out as :func:`evolve` states."""

    row_of: np.ndarray  # (M * M,) int32, read at upper-triangle pair ids only
    keys: np.ndarray  # (M * (M + 1) / 2, 2 k²) int32
    first: np.ndarray  # (M * (M + 1) / 2, 2 k²), the dtype of U
    second: np.ndarray


@dataclass(frozen=True, eq=False)
class SinglePhotonUnitary:
    """A passive linear-optical element as a single-photon mode map.

    ``matrix[o, i]`` is the amplitude from input mode ``in_modes[i]`` to
    output mode ``out_modes[o]``. Input and output bases may differ (the
    polarization analyzers relabel H/V to +/-). Unitarity is enforced at
    construction within ``UNITARY_TOL``; the matrix is a read-only copy,
    complex128 if given complex and float64 otherwise. Equality and hashing
    are by identity, as for :class:`TwoPhotonState`; compare matrices with
    numpy. U U^dagger is formed by ``np.einsum``, numpy's own loops, never
    BLAS: the first GEMM of a process costs more memory than these sparse
    products.
    """

    in_modes: ModeBasis
    out_modes: ModeBasis
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        mat = np.array(float_or_complex(self.matrix))
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "in_modes", as_basis(self.in_modes))
        object.__setattr__(self, "out_modes", as_basis(self.out_modes))
        n_in, n_out = len(self.in_modes), len(self.out_modes)
        if mat.shape != (n_out, n_in) or n_in != n_out:
            raise ValueError(f"matrix shape {mat.shape} does not match mode counts ({n_out}, {n_in})")
        if not np.isfinite(mat).all():  # before the product, which would warn on inf
            raise ValueError("matrix is not unitary (non-finite entries)")
        gram = np.einsum("ik,jk->ij", mat, mat.conj())
        gram.flat[:: n_in + 1] -= 1
        defect = np.max(np.abs(gram))
        if not defect <= UNITARY_TOL:  # a NaN defect fails too
            raise ValueError(f"matrix is not unitary (max defect {defect:.3e})")
        mat.flags.writeable = False

    @cached_property
    def pair_terms(self) -> PairTerms:
        """The read-only :class:`PairTerms` of this unitary, built on first use by :func:`evolve`."""
        mat, size = self.matrix, len(self.in_modes)
        nonzero = mat != 0
        k = nonzero.sum(axis=0).max()
        # the nonzero rows of each column in increasing order, padded with weight 0 to the fullest column
        order = np.argsort(~nonzero, axis=0, kind="stable")[:k]
        outs, weights = order.T.astype(np.int32), np.take_along_axis(mat, order, 0).T
        i, j = np.triu_indices(size)
        shape = (len(i), 2, k, k)
        keys, (first, second) = np.full(shape, size * size, np.int32), np.zeros((2, *shape), mat.dtype)  # slots empty
        for o, (a, b, stored) in enumerate(((i, j, i <= j), (j, i, i < j))):  # psi(i, i) is stored once
            p, q = outs[a][:, :, None], outs[b][:, None, :]
            w1, w2 = weights[a][:, :, None], weights[b][:, None, :]
            live = (w1 != 0) & (w2 != 0) & (p <= q) & stored[:, None, None]
            np.add(p * size, q, out=keys[:, o], where=live)
            np.copyto(first[:, o], w1, where=live)
            np.copyto(second[:, o], w2, where=live)
        row_of = np.zeros(size * size, dtype=np.int32)
        row_of[i * size + j] = np.arange(len(i))
        return PairTerms(*frozen(row_of, *(array.reshape(len(i), -1) for array in (keys, first, second))))


def _terms(table: PairTerms, ids: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The output pair keys and terms of stored pairs ``ids`` of amplitudes ``vals``, rounded as in :func:`evolve`."""
    rows = table.row_of[ids]
    terms = (table.first.take(rows, 0) * vals[:, None]) * table.second.take(rows, 0)
    return table.keys.take(rows, 0), terms


def _evolved(
    state: TwoPhotonState, network: SinglePhotonUnitary, keys: np.ndarray, terms: np.ndarray
) -> TwoPhotonState:
    """``state`` evolved from its gathered ``keys`` and ``terms``: the sum, check, prune and build of :func:`evolve`."""
    size = len(network.in_modes)
    keys = keys.ravel()
    sums = np.bincount(keys, terms.real.ravel())
    if terms.dtype.kind == "c":
        sums = sums + 1j * np.bincount(keys, terms.imag.ravel())
    diagonal = sums[:: size + 1]  # psi(m, m); the last bin, weight 0 terms only, is off it
    check_norm(math.sqrt(2 * np.vdot(sums, sums).real - np.vdot(diagonal, diagonal).real))
    ids = (np.abs(sums) >= AMP_PRUNE).nonzero()[0]
    return TwoPhotonState._build(state.dim, network.out_modes, ids, sums[ids])


def evolve(state: TwoPhotonState, network: SinglePhotonUnitary) -> TwoPhotonState:
    """Propagate a two-photon state through a mode unitary: the one statement of the evolution contract.

    The symmetric amplitude function transforms as
    psi'(o1, o2) = sum over i1, i2 of U[o1, i1] U[o2, i2] psi(i1, i2),
    the matrix sandwich U psi U^T, which makes the bosonic exchange
    statistics (and the bunching interference) automatic. No matrix is
    formed. The stored psi(i, j), i <= j, feeds the output pairs (p, q),
    p <= q, by the terms U[p, a] psi(i, j) U[q, b], one for each
    orientation (a, b) of the pair, (i, j) and, unless i == j, (j, i), and
    each nonzero U[p, a] and U[q, b]. The cached ``network.pair_terms``
    (:class:`PairTerms`) holds them: with k the most nonzeros in a column
    of U, row ``row_of[id]`` of the input pair id has 2 k² slots, for each
    orientation p over column a's nonzeros in increasing order, then q over
    column b's, and holds in ``keys`` the output pair id p * M + q of each
    slot and in ``first`` and ``second`` its weights U[p, a] and U[q, b]. A
    slot with no term (p > q, the second orientation of i == j, or a column
    with fewer than k nonzeros) has weights 0 and the dead key M * M, a bin
    past the last pair id. Each term is formed as (U[p, a] psi) U[q, b],
    the rounding of the product's left factor first, and one ``bincount``
    per real or imaginary part sums the terms per output pair over M² + 1
    bins. tests/test_exact_real.py checks these bits against the complex
    product for every state and network the CLI evolves. For a state of S
    stored pairs through M modes this takes O(S·w) time for the terms,
    where w = 2 k², plus one pass over the bins; the table takes O(M²·w)
    memory per network, built on the first call. A dense network is
    therefore costly, and only tests evolve through one, at 16 modes or
    fewer. Raises ValueError unless ``state.basis == network.in_modes``;
    ``network.out_modes`` may be in any order. Norm is preserved (checked
    within ``NORM_TOL`` over every output amplitude, so a NaN fails it),
    amplitudes below ``AMP_PRUNE`` are pruned, and the result is complex if
    the state or the network is.
    """
    if state.basis != network.in_modes:
        raise ValueError("the state is not stored in the network's input basis")
    return _evolved(state, network, *_terms(network.pair_terms, state.ids, state.vals))


def evolve_all(states: Iterable[TwoPhotonState], network: SinglePhotonUnitary) -> list[TwoPhotonState]:
    """``[evolve(state, network) for state in states]`` to the bit, with one gather of the family's terms.

    Raises ValueError, before any work, naming the first state not stored
    in ``network.in_modes``; an empty family gives [].
    """
    states = list(states)
    for position, state in enumerate(states):
        if state.basis != network.in_modes:
            raise ValueError(f"state {position} is not stored in the network's input basis")
    if not states:
        return []
    table = network.pair_terms
    keys, terms = _terms(table, np.concatenate([s.ids for s in states]), np.concatenate([s.vals for s in states]))
    real_network = table.first.dtype.kind != "c"
    evolved, end = [], 0
    for state in states:
        start, end = end, end + len(state.ids)
        state_terms = terms[start:end]
        if real_network and state.vals.dtype.kind != "c":
            state_terms = state_terms.real  # a real state in a family that another state made complex
        evolved.append(_evolved(state, network, keys[start:end], state_terms))
    return evolved
