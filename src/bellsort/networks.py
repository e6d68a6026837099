"""The two measurement interferometers and bosonic two-photon evolution.

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

:func:`network_for_setup` is the one way to get either network. It returns
a cached :class:`NetworkSpec` that names its setup, so the code that
classifies with it need not guess the setup; ``NetworkSpec.stages`` is for
inspecting the layers one at a time and ``NetworkSpec.unitary`` is their
product. Every stage is written as a per-mode rule, mapping one input mode
to its (output mode, weight) images, and one helper fills the stage matrix
from that rule. :func:`prepared_state` and :func:`labelled_states` prepare
the Bell family as each setup takes it: with the polarization ancilla for fig2.

:func:`evolve` moves a state through a network and states the evolution
contract; :func:`evolve_all` moves a family to the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable

import numpy as np

from .modes import ARMS, Mode, ModeBasis, POL_DIAGONAL, POL_LINEAR, path_modes, polarized_modes
from .states import (
    AMP_PRUNE, BellIndex, PairTerms, SinglePhotonUnitary, TwoPhotonState, _check_norm, _positions,
    all_bell_indices, make_bell_state, make_hyper_state,
)

SETUP_FIG1 = "fig1"
SETUP_FIG2 = "fig2"
SETUPS = (SETUP_FIG1, SETUP_FIG2)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_Images = tuple[tuple[Mode, float], ...]  # a mode's (output mode, weight) pairs


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
    """

    setup: str
    dim: int
    stages: tuple[NetworkStage, ...]

    @cached_property
    def unitary(self) -> SinglePhotonUnitary:
        """The stages' product in stage order by ``np.einsum``, checked once; a lone stage's own object, uncopied."""
        first, last = self.stages[0].unitary, self.stages[-1].unitary
        product = first.matrix
        for stage in self.stages[1:]:
            product = np.einsum("ik,kj->ij", stage.unitary.matrix, product)
        return first if len(self.stages) == 1 else SinglePhotonUnitary(first.in_modes, last.out_modes, product)


def _stage(
    modes_in: ModeBasis, modes_out: ModeBasis, images: Callable[[Mode], _Images]
) -> SinglePhotonUnitary:
    """The stage matrix of a per-mode rule: input mode m goes to the weighted ``images(m)``.

    ``images(m)`` gives the (output mode, weight) pairs of m; every other
    entry of m's column is zero.
    """
    rows = _positions(modes_out)
    mat = np.zeros((len(modes_out), len(modes_in)))
    for i, mode in enumerate(modes_in):
        for out, weight in images(mode):
            mat[rows[out], i] = weight
    return SinglePhotonUnitary(modes_in, modes_out, mat)


def _beam_splitter(mode: Mode) -> _Images:
    """Beam splitter between the arms on the mode's (path, pol) rail.

    Convention: the first arm carries the + superposition and the second
    the - superposition; all derived supports are invariant under moving
    the minus sign to the first arm instead.
    """
    sign = 1.0 if mode.arm == ARMS[0] else -1.0
    a, b = (Mode(arm, mode.path, mode.pol) for arm in ARMS)
    return ((a, _INV_SQRT2), (b, sign * _INV_SQRT2))


def _rail_swap(mode: Mode) -> _Images:
    """PBS at 0 degrees between paired rails: H stays, V hops path x -> x XOR 1."""
    return ((mode if mode.pol == "H" else Mode(mode.arm, mode.path ^ 1, "V"), 1.0),)


def _analyzer(mode: Mode) -> _Images:
    """PBS at 45 degrees: H -> (|+> + |->)/sqrt(2), V -> (|+> - |->)/sqrt(2)."""
    sign = 1.0 if mode.pol == "H" else -1.0
    plus, minus = (Mode(mode.arm, mode.path, pol) for pol in POL_DIAGONAL)
    return ((plus, _INV_SQRT2), (minus, sign * _INV_SQRT2))


def _require_fig2_dim(dim: int) -> None:
    if dim != 4:
        raise ValueError("the ancilla-assisted setup is defined for dimension 4")


@lru_cache(maxsize=16, typed=True)  # typed, so that 4.0 or True is no hit for 4 or 1
def network_for_setup(setup: str, dim: int = 4) -> NetworkSpec:
    """The measurement network of a setup, built once per (setup, dim).

    fig1 is the beam-splitter array on d paths (2d modes); fig2 maps the 16
    polarized input modes (H/V basis) through the PBS@0 rail swap, the beam
    splitters and the PBS@45 analyzers onto the 16 detector modes (+/-
    basis). The result is shared between callers and immutable: frozen
    stages with read-only matrices, and a product composed once.
    """
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValueError(f"dimension must be an integer, got {dim!r}")
    if setup == SETUP_FIG1:
        if dim < 2:
            raise ValueError(f"need at least two paths, got dimension {dim}")
        modes = path_modes(dim)
        stages = (NetworkStage("bs_hadamard", _stage(modes, modes, _beam_splitter)),)
    elif setup == SETUP_FIG2:
        _require_fig2_dim(dim)
        linear, diagonal = polarized_modes(dim, POL_LINEAR), polarized_modes(dim, POL_DIAGONAL)
        stages = (
            NetworkStage("pbs0_rail_swap", _stage(linear, linear, _rail_swap)),
            NetworkStage("bs_hadamard", _stage(linear, linear, _beam_splitter)),
            NetworkStage("pbs45_basis_change", _stage(linear, diagonal, _analyzer)),
        )
    else:
        raise ValueError(f"unknown setup {setup!r}, expected one of {SETUPS}")
    return NetworkSpec(setup, dim, stages)


def prepared_state(setup: str, dim: int, idx: BellIndex) -> TwoPhotonState:
    """Bell state ``idx`` as a setup takes it: with the polarization ancilla for fig2.

    fig2 takes only ``dim`` 4, and rejects another as ``network_for_setup`` does.
    """
    if setup == SETUP_FIG2:
        _require_fig2_dim(dim)
        return make_hyper_state(idx)
    return make_bell_state(dim, idx)


def labelled_states(setup: str, dim: int) -> list[tuple[str, TwoPhotonState]]:
    """The full labelled Bell family prepared for a setup, enumeration order."""
    return [(idx.label, prepared_state(setup, dim, idx)) for idx in all_bell_indices(dim)]


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
    _check_norm(math.sqrt(2 * np.vdot(sums, sums).real - np.vdot(diagonal, diagonal).real))
    ids = (np.abs(sums) >= AMP_PRUNE).nonzero()[0]
    return TwoPhotonState._build(state.dim, network.out_modes, ids, sums[ids])


def evolve(state: TwoPhotonState, network: SinglePhotonUnitary) -> TwoPhotonState:
    """Propagate a two-photon state through a mode unitary.

    The symmetric amplitude function transforms as
    psi'(o1, o2) = sum over i1, i2 of U[o1, i1] U[o2, i2] psi(i1, i2),
    the matrix sandwich U psi U^T, which makes the bosonic exchange
    statistics (and the bunching interference) automatic. No matrix is
    formed: each term is read from the cached ``network.pair_terms``
    (:class:`~bellsort.states.PairTerms`) and formed as
    (U[o1, i1] psi) U[o2, i2], the rounding of the product's left factor
    first, and one ``bincount`` per real or imaginary part sums the terms
    per output pair over M² + 1 bins: every row has a dead slot, key M * M.
    tests/test_exact_real.py checks these bits against the complex product
    for every state and network the CLI evolves. For a state of S stored
    pairs through M modes this takes O(S·w) time for the terms, where
    w = 2 k² and k is the most nonzeros in a column of U, plus one pass over
    the bins; the table takes O(M²·w) memory per network, built on the first
    call. A dense network is therefore costly, and only tests evolve through
    one, at 16 modes or fewer. Raises ValueError unless
    ``state.basis == network.in_modes``; ``network.out_modes`` may be in any
    order. Norm is preserved (checked within 1e-9 over every output
    amplitude, so a NaN fails it), amplitudes below 1e-12 are pruned, and
    the result is complex if the state or the network is.
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
