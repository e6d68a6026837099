"""The dtype rule: complex128 when given complex numbers, float64 otherwise.

Every element and state the CLI reaches is built real, so its evolution
runs in real arithmetic, through the network's pair-term table rather than
a matrix product. The printed probabilities must not move because of that,
so the guard below recomputes each CLI-reachable evolution the way a
complex-only representation did it, as the matrix product U psi U^T with
both operands cast to complex128, and requires the same amplitudes to the
last bit and the same support after pruning. ``evolve_all`` must give the
bytes of ``evolve`` on every state of a family, which the family gate
checks on the CLI's families, on the 256-state fig1 d=64 family, and on
complex states.
"""

import random
import tracemalloc

import numpy as np
import pytest

from bellsort import (
    BellIndex,
    SinglePhotonUnitary,
    TwoPhotonState,
    all_bell_indices,
    encode,
    evolve,
    evolve_all,
    make_bell_state,
    make_hyper_state,
    network_for_setup,
)
from bellsort.modes import Mode, path_modes
from bellsort.networks import prepared_state
from bellsort.states import AMP_PRUNE
from conftest import (
    CLI_DIMS, amplitudes, cli_pairs, encoding_unitary, evolve_each, evolve_families, first_quantized_vector, from_kets,
    oracle_evolve, random_two_photon_state, random_unitary,
)

# The reference pairs of both setups, then fig1 references at the other
# dimensions, each encoded on the second photon with every message.
ENCODE_CASES = [pytest.param("fig1", 4, id="fig1"), pytest.param("fig2", 4, id="fig2")] + [
    pytest.param("fig1", dim, id=f"fig1-d{dim}-second") for dim in CLI_DIMS if dim != 4
]


def complex_matrix(state, basis):
    """The state's complex128 amplitude matrix over ``basis``, read from ``amps``."""
    return first_quantized_vector(state, basis).reshape(len(basis), len(basis))


def complex_upper_triangle(matrix):
    """Upper triangle of a complex amplitude matrix as (pair ids, amplitudes), pruned as ``evolve`` prunes."""
    rows, cols = np.triu_indices(len(matrix))
    vals = matrix[rows, cols]
    keep = np.abs(vals) >= AMP_PRUNE
    return rows[keep] * len(matrix) + cols[keep], vals[keep]


def bit_defects(state, ids, vals):
    """How a real ``state`` differs from the complex upper triangle (ids, vals); [] if not."""
    defects = []
    if state.vals.dtype != np.float64:
        defects.append(f"stored as {state.vals.dtype}")
    if vals.imag.any():
        defects.append("the complex product has imaginary parts")
    if not np.array_equal(state.ids, ids):
        defects.append("different support")
    elif state.vals.tobytes() != vals.real.tobytes():
        defects.append("different amplitude bits")
    return defects


def complex_evolution_mismatches(pairs, through=evolve_each):
    """(position, defects) of every (state, network) that evolution takes to other bits
    than the complex128 product U psi U^T does; [] when the guard holds.

    ``through`` evolves the pairs: ``evolve_each`` or ``evolve_families``.
    """
    mismatches = []
    for position, ((state, network), evolved) in enumerate(zip(pairs, through(pairs))):
        if isinstance(evolved, ValueError):
            mismatches.append((position, [f"rejected: {evolved}"]))
            continue
        uc = network.matrix.astype(np.complex128)
        psic = complex_matrix(state, network.in_modes)
        defects = bit_defects(evolved, *complex_upper_triangle(uc @ psic @ uc.T))
        if defects:
            mismatches.append((position, defects))
    return mismatches


def state_bytes(state):
    """Everything that tells two evolved states apart, or the message of a rejection."""
    if isinstance(state, ValueError):
        return str(state)
    return state.dim, state.basis, state.ids.dtype, state.ids.tobytes(), state.vals.dtype, state.vals.tobytes()


def family_mismatches(pairs):
    """Positions of the (state, network) pairs where ``evolve_all``, over each network's
    family, gives other bytes (or another rejection) than ``evolve``; [] when the gate holds."""
    singles, families = evolve_each(pairs), evolve_families(pairs)
    return [t for t, (a, b) in enumerate(zip(singles, families)) if state_bytes(a) != state_bytes(b)]


class TestBitIdentityWithComplexEvolution:
    def test_every_cli_pair(self):
        pairs = [(p.state, p.network) for p in cli_pairs()]
        # prepared and encoded: fig1 at every dimension, then fig2
        assert len(pairs) == 2 * (4 + 16 + 32 + 64 + 128) + 2 * 16
        assert complex_evolution_mismatches(pairs) == []

    def test_every_prepared_fig1_state_at_d64(self):
        # 128 modes: the widest sums of the table path against BLAS's blocked
        # products that any CLI or benchmark size reaches, and beyond it
        network = network_for_setup("fig1", 64).unitary
        pairs = [(make_bell_state(64, idx), network) for idx in all_bell_indices(64)]
        assert len(pairs) == 256
        assert complex_evolution_mismatches(pairs) == []

    def test_fig2_network_matches_complex_composition(self):
        spec = network_for_setup("fig2", 4)
        stages = [stage.unitary.matrix.astype(np.complex128) for stage in spec.stages]
        composed = stages[0]
        for mat in stages[1:]:
            composed = mat @ composed
        net = spec.unitary
        assert not composed.imag.any()
        assert net.matrix.tobytes() == composed.real.tobytes()

    @pytest.mark.parametrize("setup,dim", ENCODE_CASES)
    def test_encode_matches_complex_local_unitary(self, setup, dim):
        # every message encoded in one call; basis order is arm, path, slot:
        # identity on arm A, U x 1_slot on arm B
        reference = prepared_state(setup, dim, BellIndex(0, 0, 0))
        slots = len(reference.basis) // (2 * dim)
        psic = complex_matrix(reference, reference.basis)
        indices = all_bell_indices(dim)
        encoded = encode(reference, indices)
        assert len(encoded) == len(indices)
        for idx, state in zip(indices, encoded):
            path = encoding_unitary(dim, idx).matrix.astype(np.complex128)
            full = np.kron(np.diag([1.0, 0.0]), np.eye(dim * slots)) + np.kron(
                np.diag([0.0, 1.0]), np.kron(path, np.eye(slots))
            )
            assert bit_defects(state, *complex_upper_triangle(full @ psic @ full.T)) == []


class TestFamilyEvolution:
    """``evolve_all`` gives the bytes of ``evolve`` on each state of a family."""

    def test_every_cli_pair_by_network(self):
        pairs = [(p.state, p.network) for p in cli_pairs()]
        assert len(pairs) == 520
        assert family_mismatches(pairs) == []

    @pytest.mark.parametrize("shuffled", [False, True], ids=["enumeration", "shuffled"])
    def test_fig1_d64_family(self, shuffled):
        network = network_for_setup("fig1", 64).unitary
        family = [make_bell_state(64, idx) for idx in all_bell_indices(64)]
        if shuffled:
            random.Random(64).shuffle(family)
        assert family_mismatches([(state, network) for state in family]) == []

    def test_a_generator_family_equals_the_list(self):
        network = network_for_setup("fig1", 4).unitary
        family = [make_bell_state(4, idx) for idx in all_bell_indices(4)]
        from_list = evolve_all(family, network)
        from_generator = evolve_all((state for state in family), network)
        assert [state_bytes(s) for s in from_generator] == [state_bytes(s) for s in from_list]
        assert len(from_list) == 16

    def test_fig1_d64_family_peak_memory(self):
        # the gathered terms and one state's 16,385 bins at a time: one dense
        # stacked buffer of every state's bins alone would take 256 * 16,385
        # float64, 33.5 MB
        network = network_for_setup("fig1", 64).unitary
        family = [make_bell_state(64, idx) for idx in all_bell_indices(64)]
        network.pair_terms  # built and cached before the measurement
        tracemalloc.start()
        try:
            evolve_all(family, network)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_complex_family_with_real_members(self):
        # a real state keeps evolve's float64 in a family made complex by the others
        rng = np.random.default_rng(12)
        basis = path_modes(4)
        complex_states = [random_two_photon_state(4, basis, rng) for _ in range(3)]
        real_states = [make_bell_state(4, idx) for idx in all_bell_indices(4)[5:8]]
        family = [state for pair in zip(complex_states, real_states) for state in pair]
        fig1, rotated = network_for_setup("fig1", 4).unitary, random_unitary(basis, rng)
        for network, dtypes in ((fig1, [np.complex128, np.float64] * 3), (rotated, [np.complex128] * 6)):
            pairs = [(state, network) for state in family]
            assert family_mismatches(pairs) == []
            assert [state.vals.dtype for state in evolve_families(pairs)] == dtypes


class TestDtypeRule:
    @pytest.mark.parametrize("dim", CLI_DIMS)
    def test_fig1_network_and_bell_states_are_real(self, dim):
        assert network_for_setup("fig1", dim).unitary.matrix.dtype == np.float64
        assert all(make_bell_state(dim, idx).vals.dtype == np.float64 for idx in all_bell_indices(dim))

    def test_fig2_network_and_hyper_states_are_real(self):
        assert network_for_setup("fig2", 4).unitary.matrix.dtype == np.float64
        assert all(make_hyper_state(idx).vals.dtype == np.float64 for idx in all_bell_indices(4))

    @pytest.mark.parametrize("setup", ["fig1", "fig2"])
    def test_encoded_states_are_real(self, setup):
        reference = prepared_state(setup, 4, BellIndex(0, 0, 0))
        assert [state.vals.dtype for state in encode(reference, all_bell_indices(4))] == [np.float64] * 16

    def test_complex_unitary_and_state_stay_complex(self):
        rng = np.random.default_rng(3)
        assert random_unitary(path_modes(4), rng).matrix.dtype == np.complex128
        state = from_kets(
            2, [(Mode("A", 0), Mode("B", 0), 0.6), (Mode("A", 1), Mode("B", 1), 0.8j)]
        )
        assert state.vals.dtype == np.complex128

    def test_zero_imaginary_parts_stay_complex128(self):
        # input that is not complex is stored real, ints included; complex
        # input stays complex128 even with every imaginary part zero
        modes = path_modes(2)
        assert SinglePhotonUnitary(modes, modes, np.eye(4, dtype=complex)).matrix.dtype == np.complex128
        assert SinglePhotonUnitary(modes, modes, np.eye(4, dtype=int)).matrix.dtype == np.float64
        real = TwoPhotonState(2, modes, [2, 7], [0.5, -0.5])
        widened = TwoPhotonState(2, modes, [2, 7], np.array([0.5, -0.5]) + 0j)
        assert (real.vals.dtype, widened.vals.dtype) == (np.float64, np.complex128)
        # the Mode-pair view reads the same complex amplitudes from both
        assert dict(widened.amps) == dict(real.amps)
        assert all(type(a) is complex for a in widened.amps.values())
        assert TwoPhotonState(2, modes, [0], [1]).vals.dtype == np.float64

    def test_real_kets_and_amplitudes_give_a_real_state(self):
        a0, b0, a1, b1 = Mode("A", 0), Mode("B", 0), Mode("A", 1), Mode("B", 1)
        kets = from_kets(2, [(a0, b0, 0.6), (a1, b1, -0.8)])
        bunched = TwoPhotonState.from_amplitudes(2, {(a0, a0): 1})
        assert (kets.vals.dtype, bunched.vals.dtype) == (np.float64, np.float64)

    def test_constructor_copies_the_caller_matrix(self):
        modes = path_modes(2)
        mat = np.eye(4)
        SinglePhotonUnitary(modes, modes, mat)
        assert mat.flags.writeable

    def test_real_state_through_complex_unitary_matches_oracle(self):
        rng = np.random.default_rng(5)
        state = make_bell_state(4, BellIndex(3, 1, 1))
        net = random_unitary(path_modes(4), rng)
        evolved = evolve(state, net)
        assert evolved.vals.dtype == np.complex128
        expected, amps = oracle_evolve(state, net), amplitudes(evolved)
        assert set(amps) == set(expected)
        for key, amp in expected.items():
            assert abs(amps[key] - amp) < 1e-10

    def test_complex_state_through_fig1_matches_oracle(self):
        rng = np.random.default_rng(6)
        state = random_two_photon_state(4, path_modes(4), rng)
        net = network_for_setup("fig1", 4).unitary
        evolved = evolve(state, net)
        assert evolved.vals.dtype == np.complex128
        expected, amps = oracle_evolve(state, net), amplitudes(evolved)
        assert set(amps) == set(expected)
        for key, amp in expected.items():
            assert abs(amps[key] - amp) < 1e-10
