"""Shared test helpers: independent oracles, a state comparison, generators,
the enumeration of the (state, network) pairs the CLI evolves, and the two
ways to evolve a list of pairs: one ``evolve`` each, or ``evolve_all`` per
network.

The first-quantized oracle deliberately avoids the library's pair-term
evolution: it expands a state into the ordered two-photon basis |i1>|i2>
(symmetrizing the stored upper-triangle amplitudes), applies kron(U, U), and
reads the symmetric amplitudes back. Agreement between the two paths is
itself one of the required properties.

The Fock oracle shares not even the storage convention: it starts from
Fock-ket terms and the single-photon matrix and returns outcome label ->
probability from two-boson permanents. The encoding oracle is the dense path
matrix of ``encode``, its sign computed here. The per-mode XOR table is the
Bell-family table as it was built before the rail arithmetic: mode by mode,
from each arm-B mode's flipped path and the sign of its low two path bits.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from bellsort import (
    BellIndex, SinglePhotonUnitary, TwoPhotonState, all_bell_indices, encode, evolve, evolve_all, network_for_setup,
)
from bellsort.modes import ARM_SECOND, Mode, canonical_pair
from bellsort.networks import prepared_state
from bellsort.states import AMP_PRUNE

PHASE_TOL = 1e-9  # per-amplitude slack of approx_equal
CLI_DIMS = (2, 4, 8, 16, 32)  # fig1 at the CLI's dimensions 2 and 4 and the benchmark sizes


class CliPair(NamedTuple):
    """One state and the network it is evolved through; ``idx`` is the Bell state it is."""

    setup: str
    idx: BellIndex
    encoded: bool  # made by encoding the setup's reference, not prepared directly
    state: TwoPhotonState
    network: SinglePhotonUnitary


def cli_pairs(max_dim: int = max(CLI_DIMS)):
    """Every (state, network) pair the CLI evolves, and fig1 at the benchmark sizes.

    For fig1 at each of ``CLI_DIMS`` up to ``max_dim`` and fig2 at d = 4:
    every prepared Bell (fig1) or hyper (fig2) state, then every message
    encoded on the setup's reference state. The CLI encodes only at d = 4;
    fig1 is encoded at the other dimensions too. ``max_dim`` caps the size
    for the oracles that expand a state over all ordered mode pairs.
    """
    for setup, dim in [("fig1", dim) for dim in CLI_DIMS] + [("fig2", 4)]:
        if dim > max_dim:
            continue
        network = network_for_setup(setup, dim).unitary
        indices = all_bell_indices(dim)
        encoded = encode(prepared_state(setup, dim, BellIndex(0, 0, 0)), indices)
        for idx, message in zip(indices, encoded):
            yield CliPair(setup, idx, False, prepared_state(setup, dim, idx), network)
            yield CliPair(setup, idx, True, message, network)


def evolve_each(pairs) -> list:
    """``evolve`` on each (state, network) pair; the ValueError it raises stands in for a rejected state."""
    results = []
    for state, network in pairs:
        try:
            results.append(evolve(state, network))
        except ValueError as exc:
            results.append(exc)
    return results


def evolve_families(pairs) -> list:
    """``evolve_all`` on the pairs grouped by network, each family in pair order; results in pair order.

    The ValueError a family raises stands in for each of its states.
    """
    families: dict[int, list[int]] = {}
    for position, (_, network) in enumerate(pairs):
        families.setdefault(id(network), []).append(position)
    results: list = [None] * len(pairs)
    for positions in families.values():
        try:
            evolved = evolve_all([pairs[p][0] for p in positions], pairs[positions[0]][1])
        except ValueError as exc:
            evolved = [exc] * len(positions)
        for position, state in zip(positions, evolved):
            results[position] = state
    return results


def amplitudes(state: TwoPhotonState) -> dict:
    """Canonical mode pair -> complex psi(m1, m2), read from the state's ``basis``, ``ids`` and ``vals``.

    The map ``TwoPhotonState.amps`` gives; tests read amplitudes here, and
    test_states.py checks that the two agree on every CLI pair.
    """
    size = len(state.basis)
    return {
        canonical_pair(state.basis[t // size], state.basis[t % size]): complex(a)
        for t, a in zip(state.ids.tolist(), state.vals.tolist())
    }


def from_kets(dim: int, kets) -> TwoPhotonState:
    """A state from Fock-ket terms c |1_m1, 1_m2>, or c |2_m> when m1 == m2; repeated pairs add up."""
    amps: dict = {}
    for m1, m2, c in kets:
        key = canonical_pair(m1, m2)
        amps[key] = amps.get(key, 0.0) + (c if m1 == m2 else c / math.sqrt(2.0))  # psi(m1, m2) = c / sqrt(2)
    return TwoPhotonState.from_amplitudes(dim, amps)


def encoding_unitary(dim: int, idx: BellIndex) -> SinglePhotonUnitary:
    """Dense oracle for ``encode``: the path matrix U(j, n, m)|x> = (-1)**(n*x0 + m*x1) |x XOR j>.

    The sign is computed here, not by the library's helpers, so the oracle
    shares no code with the ``encode`` it checks; modes are the paths 0..d-1.
    """
    x = np.arange(dim)
    mat = np.zeros((dim, dim))
    mat[x ^ idx.j, x] = (-1.0) ** (idx.n * (x & 1) + idx.m * ((x >> 1) & 1))
    return SinglePhotonUnitary(tuple(range(dim)), tuple(range(dim)), mat)


def _sign(x, n: int, m: int):
    """(-1)**(n*x0 + m*x1) for a path index x or an integer array of them."""
    return 1 - 2 * ((n * (x & 1) + m * ((x >> 1) & 1)) & 1)


def per_mode_xor_table(basis) -> tuple[np.ndarray, ...]:
    """The XOR pairing on a canonical ``basis`` built mode by mode: (moved, signs, ids, vals) as 2-d arrays.

    ``moved[j]`` looks up each arm-B mode with its path XOR j, and
    ``signs[n + 2m]`` is (-1)**(n*x0 + m*x1) on arm B: four sign rows at
    every dimension. The reference for the library's rail table.
    """
    size, half, index = len(basis), len(basis) // 2, {m: i for i, m in enumerate(basis)}
    paths = np.array([mode.path for mode in basis])
    flips = ([replace(m, path=m.path ^ j) if m.arm == ARM_SECOND else m for m in basis] for j in range(paths[-1] + 1))
    moved = np.array([[index[m] for m in flipped] for flipped in flips], dtype=np.intp)
    signs = np.where(np.arange(size) < half, 1.0, [_sign(paths, n, m) for m in (0, 1) for n in (0, 1)])
    ids = np.arange(half, dtype=np.intp) * size + moved[:, half:]
    vals = signs[:, half:] * (1.0 / math.sqrt(half) / math.sqrt(2.0))
    return moved, signs, ids, vals


def approx_equal(
    a: TwoPhotonState, b: TwoPhotonState, *, tol: float = PHASE_TOL, up_to_phase: bool = True
) -> bool:
    """Per-amplitude comparison of two states, by default up to a global phase.

    The global phase is quotiented out using the phase of ``a``'s
    largest-magnitude amplitude.
    """
    if a.dim != b.dim:
        return False
    amps_a, amps_b = amplitudes(a), amplitudes(b)
    phase_a = phase_b = 1.0 + 0.0j
    if up_to_phase:
        ref = max(amps_a, key=lambda k: abs(amps_a[k]))
        va, vb = amps_a[ref], amps_b.get(ref, 0.0)
        if abs(vb) < AMP_PRUNE:
            return False
        phase_a, phase_b = va / abs(va), vb / abs(vb)
    return all(
        abs(amps_a.get(key, 0.0) / phase_a - amps_b.get(key, 0.0) / phase_b) <= tol
        for key in set(amps_a) | set(amps_b)
    )


def first_quantized_vector(state: TwoPhotonState, basis: tuple[Mode, ...]) -> np.ndarray:
    """Ordered-basis expansion of the symmetric amplitude function."""
    size = len(basis)
    index = {m: i for i, m in enumerate(basis)}
    vec = np.zeros(size * size, dtype=complex)
    for (m1, m2), amp in amplitudes(state).items():
        i, k = index[m1], index[m2]
        vec[i * size + k] = amp
        vec[k * size + i] = amp
    return vec


def oracle_evolve(state: TwoPhotonState, network: SinglePhotonUnitary) -> dict:
    """Evolve via kron(U, U) on the ordered expansion; returns canonical amplitudes."""
    in_basis = tuple(network.in_modes)
    out_basis = tuple(network.out_modes)
    vec = first_quantized_vector(state, in_basis)
    out = np.kron(network.matrix, network.matrix) @ vec
    size = len(out_basis)
    amps: dict[tuple[Mode, Mode], complex] = {}
    for i in range(size):
        for k in range(i, size):
            amp = out[i * size + k]
            if abs(amp) > 1e-12:
                amps[(out_basis[i], out_basis[k])] = amp
    return amps


def fock_outcome_probabilities(kets, network: SinglePhotonUnitary, model: str = "pnrd") -> dict:
    """Outcome label -> probability for Fock-ket input terms through ``network``.

    ``kets`` are (m1, m2, c) terms c |1_m1, 1_m2>, or c |2_m> when m1 == m2.
    Input |i1 i2> goes to output |o1 o2> with amplitude
    perm(U[{o1, o2}, {i1, i2}]) / sqrt(n_o! n_i!), where n! is 2 for a doubly
    occupied mode and 1 otherwise. A label is the clicked modes' labels in mode
    order; the threshold model reports a doubly occupied mode as one click.
    """
    column = {m: i for i, m in enumerate(network.in_modes)}
    out, u = network.out_modes, network.matrix
    probs = {}
    for a in range(len(out)):
        for b in range(a, len(out)):
            amp = 0j
            for m1, m2, c in kets:
                i, k = column[m1], column[m2]
                perm = u[a, i] * u[b, k] + u[a, k] * u[b, i]
                amp += c * perm / math.sqrt((2 if a == b else 1) * (2 if i == k else 1))
            if abs(amp) ** 2 > 1e-20:
                clicks = sorted({out[a], out[b]} if model == "threshold" else (out[a], out[b]))
                probs[" ".join(m.label for m in clicks)] = abs(amp) ** 2
    return probs


def oracle_inner(a: TwoPhotonState, b: TwoPhotonState, basis: tuple[Mode, ...]) -> complex:
    """Physical two-photon inner product <a|b> from the ordered expansions."""
    return complex(np.vdot(first_quantized_vector(a, basis), first_quantized_vector(b, basis)))


def oracle_norm(state: TwoPhotonState) -> float:
    """sqrt(<s|s>) from the ordered expansion, independent of the library's norm code."""
    return math.sqrt(oracle_inner(state, state, state.basis).real)


def random_two_photon_state(
    dim: int, basis: tuple[Mode, ...], rng: np.random.Generator
) -> TwoPhotonState:
    size = len(basis)
    raw = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    sym = (raw + raw.T) / 2.0
    sym /= np.linalg.norm(sym)
    amps = {
        (basis[i], basis[k]): sym[i, k]
        for i in range(size)
        for k in range(i, size)
        if abs(sym[i, k]) > 1e-12
    }
    return TwoPhotonState.from_amplitudes(dim, amps)


def random_unitary(modes: tuple, rng: np.random.Generator) -> SinglePhotonUnitary:
    size = len(modes)
    raw = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(raw)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return SinglePhotonUnitary(tuple(modes), tuple(modes), q)


def where_pair_terms(network: SinglePhotonUnitary) -> tuple[np.ndarray, ...]:
    """``network.pair_terms`` built with full-size ``np.where`` copies: (row_of, keys, first, second).

    The reference for the library's in-place build, which prefills every
    slot as empty (key M * M, weights 0) and writes the live ones; this one
    writes every slot of each orientation from ``np.where``.
    """
    mat, size = network.matrix, len(network.in_modes)
    nonzero = mat != 0
    k = nonzero.sum(axis=0).max()
    order = np.argsort(~nonzero, axis=0, kind="stable")[:k]
    outs, weights = order.T.astype(np.int32), np.take_along_axis(mat, order, 0).T
    i, j = np.triu_indices(size)
    shape = (len(i), 2, k, k)
    keys, first, second = np.empty(shape, np.int32), np.empty(shape, mat.dtype), np.empty(shape, mat.dtype)
    for o, (a, b, stored) in enumerate(((i, j, i <= j), (j, i, i < j))):
        p, q = outs[a][:, :, None], outs[b][:, None, :]
        w1, w2 = weights[a][:, :, None], weights[b][:, None, :]
        live = (w1 != 0) & (w2 != 0) & (p <= q) & stored[:, None, None]
        keys[:, o] = np.where(live, p * size + q, size * size)
        first[:, o], second[:, o] = np.where(live, w1, 0), np.where(live, w2, 0)
    row_of = np.zeros(size * size, dtype=np.int32)
    row_of[i * size + j] = np.arange(len(i))
    return (row_of, *(array.reshape(len(i), -1) for array in (keys, first, second)))
