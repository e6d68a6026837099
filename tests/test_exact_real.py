"""The dtype rule: float64 when exactly real, complex128 otherwise.

Every element and state the CLI reaches is real, so its evolution runs as
real matrix products. The printed probabilities must not move because of
that, so the guard below recomputes each CLI-reachable evolution the way a
complex-only representation did it, with both operands cast to complex128,
and requires the same amplitudes to the last bit and the same support after
pruning.
"""

import numpy as np
import pytest

from bellsort import (
    BellIndex,
    SinglePhotonUnitary,
    TwoPhotonState,
    all_bell_indices,
    encode,
    encoding_unitary,
    evolve,
    make_bell_state,
    make_hyper_state,
    network_for_setup,
)
from bellsort.dense_coding import reference_state
from bellsort.modes import Mode, path_modes
from bellsort.states import AMP_PRUNE
from conftest import oracle_evolve, random_two_photon_state, random_unitary

DIMS = (2, 4, 8, 16, 32)


# The reference pairs of both setups encoded on the second photon (ids "fig1",
# "fig2"), then the first photon, and fig1 references at the other dimensions.
ENCODE_CASES = [
    pytest.param("fig1", 4, "second", id="fig1"),
    pytest.param("fig2", 4, "second", id="fig2"),
    pytest.param("fig1", 4, "first", id="fig1-first"),
    pytest.param("fig2", 4, "first", id="fig2-first"),
] + [
    pytest.param("fig1", dim, which, id=f"fig1-d{dim}-{which}")
    for dim in DIMS
    if dim != 4
    for which in ("first", "second")
]


def complex_upper_triangle(matrix):
    """Upper triangle of a complex amplitude matrix, pruned as ``from_matrix`` prunes."""
    rows, cols = np.triu_indices(len(matrix))
    vals = matrix[rows, cols]
    keep = np.abs(vals) >= AMP_PRUNE
    return rows[keep], cols[keep], vals[keep]


def assert_same_bits(state, rows, cols, vals):
    assert state.vals.dtype == np.float64
    assert not vals.imag.any()
    assert np.array_equal(state.rows, rows) and np.array_equal(state.cols, cols)
    assert state.vals.tobytes() == vals.real.tobytes()


def assert_evolves_as_complex(state, network):
    uc = network.matrix.astype(np.complex128)
    psic = state.to_matrix(network.in_modes).astype(np.complex128)
    assert_same_bits(evolve(state, network), *complex_upper_triangle(uc @ psic @ uc.T))


def cli_pairs():
    """Every (state, network) the CLI evolves, plus fig1 at the benchmark sizes."""
    for dim in DIMS:
        for idx in all_bell_indices(dim):
            yield make_bell_state(dim, idx), network_for_setup("fig1", dim).unitary
    for idx in all_bell_indices(4):
        yield make_hyper_state(idx), network_for_setup("fig2").unitary
    for setup in ("fig1", "fig2"):
        for idx in all_bell_indices(4):
            yield encode(reference_state(setup), idx, "second"), network_for_setup(setup).unitary


class TestBitIdentityWithComplexEvolution:
    def test_every_cli_pair(self):
        count = 0
        for state, network in cli_pairs():
            assert_evolves_as_complex(state, network)
            count += 1
        assert count == (4 + 16 + 32 + 64 + 128) + 16 + 2 * 16

    def test_fig2_network_matches_complex_composition(self):
        spec = network_for_setup("fig2")
        stages = [stage.unitary.matrix.astype(np.complex128) for stage in spec.stages]
        composed = stages[0]
        for mat in stages[1:]:
            composed = mat @ composed
        net = spec.unitary
        assert not composed.imag.any()
        assert net.matrix.tobytes() == composed.real.tobytes()

    @pytest.mark.parametrize("setup,dim,which_photon", ENCODE_CASES)
    def test_encode_matches_complex_local_unitary(self, setup, dim, which_photon):
        # basis order is arm, path, slot: U x 1_slot on the encoded arm, identity on the other
        if dim == 4:
            reference = reference_state(setup)
        else:
            reference = make_bell_state(dim, BellIndex(0, 0, 0))
        slots = len(reference.basis) // (2 * dim)
        encoded_arm = np.diag([1.0, 0.0] if which_photon == "first" else [0.0, 1.0])
        psic = reference.to_matrix(reference.basis).astype(np.complex128)
        for idx in all_bell_indices(dim):
            path = encoding_unitary(dim, idx).matrix.astype(np.complex128)
            full = np.kron(np.eye(2) - encoded_arm, np.eye(dim * slots)) + np.kron(
                encoded_arm, np.kron(path, np.eye(slots))
            )
            encoded = encode(reference, idx, which_photon)
            assert_same_bits(encoded, *complex_upper_triangle(full @ psic @ full.T))


class TestDtypeRule:
    @pytest.mark.parametrize("dim", DIMS)
    def test_fig1_network_and_bell_states_are_real(self, dim):
        assert network_for_setup("fig1", dim).unitary.matrix.dtype == np.float64
        assert all(make_bell_state(dim, idx).vals.dtype == np.float64 for idx in all_bell_indices(dim))

    def test_fig2_network_and_hyper_states_are_real(self):
        assert network_for_setup("fig2").unitary.matrix.dtype == np.float64
        assert all(make_hyper_state(idx).vals.dtype == np.float64 for idx in all_bell_indices(4))

    @pytest.mark.parametrize("setup", ["fig1", "fig2"])
    def test_encoded_states_are_real(self, setup):
        reference = reference_state(setup)
        for idx in all_bell_indices(4):
            assert encode(reference, idx, "second").vals.dtype == np.float64

    def test_complex_unitary_and_state_stay_complex(self):
        rng = np.random.default_rng(3)
        assert random_unitary(path_modes(4), rng).matrix.dtype == np.complex128
        state = TwoPhotonState.from_kets(
            2, [(Mode("A", 0), Mode("B", 0), 0.6), (Mode("A", 1), Mode("B", 1), 0.8j)]
        )
        assert state.vals.dtype == np.complex128

    def test_zero_imaginary_parts_are_stored_real(self):
        modes = path_modes(2)
        unitary = SinglePhotonUnitary(modes, modes, np.eye(4, dtype=complex))
        assert unitary.matrix.dtype == np.float64
        state = TwoPhotonState(2, modes, [0, 1], [2, 3], np.array([0.5, -0.5]) + 0j)
        assert state.vals.dtype == np.float64
        # the Mode-pair view still reads complex amplitudes
        assert all(type(a) is complex for a in state.amps.values())

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
        expected = oracle_evolve(state, net)
        assert set(evolved.amps) == set(expected)
        for key, amp in expected.items():
            assert abs(evolved.amps[key] - amp) < 1e-10

    def test_complex_state_through_fig1_matches_oracle(self):
        rng = np.random.default_rng(6)
        state = random_two_photon_state(4, path_modes(4), rng)
        net = network_for_setup("fig1", 4).unitary
        evolved = evolve(state, net)
        assert evolved.vals.dtype == np.complex128
        expected = oracle_evolve(state, net)
        assert set(evolved.amps) == set(expected)
        for key, amp in expected.items():
            assert abs(evolved.amps[key] - amp) < 1e-10
