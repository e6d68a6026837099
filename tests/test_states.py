"""Tests for the Bell family, the hyperentangled states, and the encoders."""

import math

import numpy as np
import pytest

from bellsort import (
    BellIndex,
    SinglePhotonUnitary,
    TwoPhotonState,
    all_bell_indices,
    encode,
    encoding_unitary,
    make_bell_state,
    make_hyper_state,
)
from bellsort.modes import Mode, ModeBasis, path_modes, polarized_modes
from conftest import oracle_evolve, oracle_inner

A, B = "A", "B"
HALF = 0.5
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def ket_state(dim, terms):
    """Expected state from explicit Fock-ket coefficients."""
    return TwoPhotonState.from_kets(dim, terms)


class TestBellConstruction:
    def test_reference_state_is_uniform_diagonal(self):
        # (|00> + |11> + |22> + |33>) / 2
        expected = ket_state(
            4, [(Mode(A, x), Mode(B, x), HALF) for x in range(4)]
        )
        state = make_bell_state(4, BellIndex(0, 0, 0))
        assert state.approx_equal(expected, up_to_phase=False)

    def test_pairing_two_phase_one(self):
        # (|02> - |13> + |20> - |31>) / 2
        expected = ket_state(
            4,
            [
                (Mode(A, 0), Mode(B, 2), HALF),
                (Mode(A, 1), Mode(B, 3), -HALF),
                (Mode(A, 2), Mode(B, 0), HALF),
                (Mode(A, 3), Mode(B, 1), -HALF),
            ],
        )
        state = make_bell_state(4, BellIndex(2, 1, 0))
        assert state.approx_equal(expected, up_to_phase=False)

    def test_d2_states_are_the_standard_bell_basis(self):
        phi_minus = ket_state(
            2, [(Mode(A, 0), Mode(B, 0), INV_SQRT2), (Mode(A, 1), Mode(B, 1), -INV_SQRT2)]
        )
        assert make_bell_state(2, BellIndex(0, 1, 0)).approx_equal(phi_minus, up_to_phase=False)
        psi_plus = ket_state(
            2, [(Mode(A, 0), Mode(B, 1), INV_SQRT2), (Mode(A, 1), Mode(B, 0), INV_SQRT2)]
        )
        assert make_bell_state(2, BellIndex(1, 0, 0)).approx_equal(psi_plus, up_to_phase=False)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_gram_matrix_is_identity(self, dim):
        basis = path_modes(dim)
        states = [make_bell_state(dim, idx) for idx in all_bell_indices(dim)]
        count = len(states)
        assert count == dim * dim
        gram = np.array(
            [[oracle_inner(si, sk, basis) for sk in states] for si in states]
        )
        assert np.max(np.abs(gram - np.eye(count))) < 1e-12

    @pytest.mark.parametrize("dim", [2, 4])
    def test_normalized(self, dim):
        for idx in all_bell_indices(dim):
            assert abs(make_bell_state(dim, idx).norm() - 1.0) < 1e-12

    def test_exchange_symmetric_by_representation(self):
        state = make_bell_state(4, BellIndex(3, 1, 1))
        for (m1, m2) in state.support:
            assert state.amplitude(m1, m2) == state.amplitude(m2, m1)

    def test_invalid_indices_rejected(self):
        with pytest.raises(ValueError):
            make_bell_state(4, BellIndex(4, 0, 0))
        with pytest.raises(ValueError):
            make_bell_state(2, BellIndex(0, 0, 1))  # d=2 has no m=1 states
        with pytest.raises(ValueError):
            BellIndex(0, 2, 0)
        with pytest.raises(ValueError):
            make_bell_state(3, BellIndex(0, 0, 0))  # XOR pairing needs powers of two


class TestHyperState:
    def test_reference_hyper_state(self):
        coeff = HALF * INV_SQRT2
        expected = ket_state(
            4,
            [
                (Mode(A, x, p), Mode(B, x, p), coeff)
                for x in range(4)
                for p in ("H", "V")
            ],
        )
        assert make_hyper_state(BellIndex(0, 0, 0)).approx_equal(expected, up_to_phase=False)

    def test_worked_example_input(self):
        coeff = HALF * INV_SQRT2
        signs = {0: 1.0, 1: -1.0, 2: 1.0, 3: -1.0}
        expected = ket_state(
            4,
            [
                (Mode(A, x, p), Mode(B, x ^ 2, p), signs[x] * coeff)
                for x in range(4)
                for p in ("H", "V")
            ],
        )
        assert make_hyper_state(BellIndex(2, 1, 0)).approx_equal(expected, up_to_phase=False)

    def test_normalized(self):
        for idx in all_bell_indices(4):
            assert abs(make_hyper_state(idx).norm() - 1.0) < 1e-12

    @pytest.mark.parametrize("idx", all_bell_indices(4), ids=lambda i: i.label)
    def test_path_restriction_recovers_bell_state(self, idx):
        # Factoring out the polarization pair must leave the path Bell state.
        hyper = make_hyper_state(idx)
        path_amps = {}
        for (m1, m2), amp in hyper.amps.items():
            if m1.pol == "H" and m2.pol == "H":
                key = (Mode(m1.arm, m1.path), Mode(m2.arm, m2.path))
                path_amps[key] = amp * math.sqrt(2.0)
        restricted = TwoPhotonState.from_amplitudes(4, path_amps)
        assert restricted.approx_equal(make_bell_state(4, idx), up_to_phase=False)


class TestEncoding:
    def test_identity_unitary(self):
        mat = encoding_unitary(4, BellIndex(0, 0, 0)).matrix
        assert np.array_equal(mat, np.eye(4))

    def test_pairing_one_unitary_is_plain_swap(self):
        # j=1, n=m=0: permutation 0<->1, 2<->3 with +1 phases
        mat = encoding_unitary(4, BellIndex(1, 0, 0)).matrix
        expected = np.zeros((4, 4))
        for x, y in ((0, 1), (1, 0), (2, 3), (3, 2)):
            expected[y, x] = 1.0
        assert np.array_equal(mat, expected)

    def test_all_unitary(self):
        for idx in all_bell_indices(4):
            mat = encoding_unitary(4, idx).matrix
            assert np.max(np.abs(mat @ mat.conj().T - np.eye(4))) < 1e-12

    def test_nan_entry_fails_the_unitarity_check(self):
        # a NaN defect compares False against the tolerance either way round
        mat = np.eye(4)
        mat[1, 2] = math.nan
        with pytest.raises(ValueError, match="not unitary"):
            SinglePhotonUnitary(path_modes(2), path_modes(2), mat)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_entry_is_rejected_before_the_product(self, bad):
        # an inf entry would make the unitarity product warn (an error under
        # this suite's filterwarnings) before the defect check could raise
        mat = np.eye(4)
        mat[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite entries"):
            SinglePhotonUnitary(path_modes(2), path_modes(2), mat)

    def test_transposed_is_a_cached_read_only_contiguous_copy(self):
        unitary = encoding_unitary(4, BellIndex(3, 1, 1))
        transposed = unitary.transposed
        assert transposed is unitary.transposed
        assert transposed.flags.c_contiguous and not transposed.flags.writeable
        assert np.array_equal(transposed, unitary.matrix.T)
        assert not np.shares_memory(transposed, unitary.matrix)

    @pytest.mark.parametrize("dim", [2, 8, 16, 32])
    def test_all_unitary_at_other_dimensions(self, dim):
        # each one passes SinglePhotonUnitary's unitarity check and is an exact signed permutation
        for idx in all_bell_indices(dim):
            mat = encoding_unitary(dim, idx).matrix
            assert mat.dtype == np.float64
            assert np.array_equal(mat @ mat.T, np.eye(dim))

    def test_encode_identity_message(self):
        ref = make_bell_state(4, BellIndex(0, 0, 0))
        assert encode(ref, BellIndex(0, 0, 0), "second").approx_equal(ref, up_to_phase=False)

    def test_encode_specific_message(self):
        # U(1,0,1) on the second photon of the reference gives
        # (|01> + |10> - |23> - |32>) / 2, i.e. the (1,0,1) member.
        ref = make_bell_state(4, BellIndex(0, 0, 0))
        encoded = encode(ref, BellIndex(1, 0, 1), "second")
        expected = ket_state(
            4,
            [
                (Mode(A, 0), Mode(B, 1), HALF),
                (Mode(A, 1), Mode(B, 0), HALF),
                (Mode(A, 2), Mode(B, 3), -HALF),
                (Mode(A, 3), Mode(B, 2), -HALF),
            ],
        )
        assert encoded.approx_equal(expected)
        assert encoded.approx_equal(make_bell_state(4, BellIndex(1, 0, 1)))

    @pytest.mark.parametrize("idx", all_bell_indices(4), ids=lambda i: i.label)
    def test_encode_matches_construction_for_all_messages(self, idx):
        ref = make_bell_state(4, BellIndex(0, 0, 0))
        assert encode(ref, idx, "second").approx_equal(make_bell_state(4, idx))

    def test_encode_on_hyper_reference(self):
        ref = make_hyper_state(BellIndex(0, 0, 0))
        idx = BellIndex(2, 1, 0)
        assert encode(ref, idx, "second").approx_equal(make_hyper_state(idx))

    def test_matrix_inverse_undoes_encoding(self):
        # the inverse path matrix on arm B and the identity on arm A, through kron(U, U)
        ref = make_bell_state(4, BellIndex(0, 0, 0))
        modes = path_modes(4)
        for idx in all_bell_indices(4):
            encoded = encode(ref, idx, "second")
            inverse = encoding_unitary(4, idx).matrix.conj().T
            full = np.kron(np.diag([1.0, 0.0]), np.eye(4)) + np.kron(np.diag([0.0, 1.0]), inverse)
            undone = oracle_evolve(encoded, SinglePhotonUnitary(modes, modes, full))
            assert TwoPhotonState.from_amplitudes(4, undone).approx_equal(ref)

    def test_encode_first_photon_lands_in_the_family(self):
        ref = make_bell_state(4, BellIndex(0, 0, 0))
        encoded = encode(ref, BellIndex(2, 0, 1), "first")
        matches = [
            idx.label
            for idx in all_bell_indices(4)
            if encoded.approx_equal(make_bell_state(4, idx))
        ]
        assert len(matches) == 1

    def test_dimension_mismatch_rejected(self):
        ref = make_bell_state(2, BellIndex(0, 0, 0))
        with pytest.raises(ValueError):
            encode(ref, BellIndex(2, 0, 0), "second")
        with pytest.raises(ValueError):
            encode(ref, BellIndex(1, 0, 0), "third")

    def test_encode_state_in_another_basis_order(self):
        # the result lives in the canonical mode space, whatever order the input used
        ref = make_hyper_state(BellIndex(3, 1, 1))
        perm = np.random.default_rng(8).permutation(len(ref.basis))
        shuffled = ModeBasis(ref.basis[i] for i in perm)
        position = np.argsort(perm)  # canonical position -> position in shuffled
        rows, cols = position[ref.rows], position[ref.cols]
        low, high = np.minimum(rows, cols), np.maximum(rows, cols)
        moved = TwoPhotonState(4, shuffled, low, high, ref.vals)
        assert moved.approx_equal(ref, up_to_phase=False)
        for idx in all_bell_indices(4):
            for which in ("first", "second"):
                expected, got = encode(ref, idx, which), encode(moved, idx, which)
                assert got.basis == expected.basis == polarized_modes(4)
                assert np.array_equal(got.rows, expected.rows)
                assert np.array_equal(got.cols, expected.cols)
                assert got.vals.tobytes() == expected.vals.tobytes()

    def test_encode_rejects_non_power_of_two_dimension(self):
        state = TwoPhotonState.from_amplitudes(
            3, {(Mode(A, 0), Mode(B, 2)): HALF, (Mode(A, 2), Mode(B, 0)): HALF}
        )
        with pytest.raises(ValueError, match="power of two"):
            encode(state, BellIndex(1, 0, 0), "second")


class TestStateRepresentation:
    def test_norm_convention(self):
        # one doubled pair and one split pair, norm^2 = |a|^2 + 2|b|^2
        amps = {
            (Mode(A, 0), Mode(A, 0)): math.sqrt(0.5),
            (Mode(A, 1), Mode(B, 1)): 0.5,
        }
        state = TwoPhotonState.from_amplitudes(4, amps)
        assert abs(state.norm() - 1.0) < 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            TwoPhotonState.from_amplitudes(4, {(Mode(A, 0), Mode(B, 0)): 1.0})

    def test_tiny_amplitudes_pruned(self):
        amps = {
            (Mode(A, 0), Mode(B, 0)): HALF,
            (Mode(A, 1), Mode(B, 1)): HALF,
            (Mode(A, 2), Mode(B, 2)): 1e-13,
        }
        state = TwoPhotonState.from_amplitudes(4, amps)
        assert len(state.amps) == 2

    def test_keys_canonicalized(self):
        state = TwoPhotonState.from_amplitudes(4, {(Mode(B, 1), Mode(A, 0)): INV_SQRT2})
        ((m1, m2),) = state.support
        assert (m1.arm, m2.arm) == (A, B)

    def test_equality_up_to_global_phase(self):
        state = make_bell_state(4, BellIndex(2, 1, 0))
        flipped = TwoPhotonState.from_amplitudes(4, {k: -v for k, v in state.amps.items()})
        rotated = TwoPhotonState.from_amplitudes(4, {k: 1j * v for k, v in state.amps.items()})
        assert state.approx_equal(flipped)
        assert state.approx_equal(rotated)
        assert not state.approx_equal(flipped, up_to_phase=False)
        assert not state.approx_equal(make_bell_state(4, BellIndex(2, 0, 0)))

    def test_modes_outside_dimension_rejected(self):
        with pytest.raises(ValueError, match="outside dimension"):
            TwoPhotonState.from_amplitudes(2, {(Mode(A, 0), Mode(B, 3)): 1.0 / math.sqrt(2.0)})

    def test_mixed_polarization_rejected(self):
        amps = {(Mode(A, 0, "H"), Mode(B, 0, "+")): 1.0 / math.sqrt(2.0)}
        with pytest.raises(ValueError, match="mixed polarization"):
            TwoPhotonState.from_amplitudes(4, amps)

    def test_array_form_is_upper_triangle_of_the_basis(self):
        state = make_bell_state(4, BellIndex(2, 1, 0))
        assert state.basis == path_modes(4)
        assert np.all(state.rows <= state.cols)
        assert not state.vals.flags.writeable
        for i, k, a in zip(state.rows, state.cols, state.vals):
            assert state.amplitude(state.basis[i], state.basis[k]) == a
        with pytest.raises(ValueError):
            TwoPhotonState(4, state.basis, state.cols, state.rows, state.vals)

    def test_non_integer_pair_indices_rejected(self):
        # np.asarray(..., dtype=intp) would truncate these to the pair (0, 2)
        with pytest.raises(ValueError, match="pair indices must be integers"):
            TwoPhotonState(2, path_modes(2), [0.6], [2.7], [1.0])
        with pytest.raises(ValueError, match="pair indices must be integers"):
            TwoPhotonState(2, path_modes(2), np.array([0]), np.array([2.0]), [1.0])
        with pytest.raises(ValueError, match="pair indices must be integers"):
            TwoPhotonState(2, path_modes(2), [False], [True], [1.0])
        state = TwoPhotonState(2, path_modes(2), np.array([0], dtype=np.uint8), [2], [1.0])
        assert state.rows.dtype == np.intp

    def test_mode_space_tracks_polarization(self):
        assert make_bell_state(4, BellIndex(0, 0, 0)).mode_space() == path_modes(4)
        assert make_hyper_state(BellIndex(0, 0, 0)).mode_space() == polarized_modes(4)

    def test_bell_index_labels(self):
        idx = BellIndex(2, 1, 0)
        assert idx.label == "psi210"
        assert BellIndex.from_label("psi210") == idx
        assert BellIndex.parse("2,1,0") == idx
        with pytest.raises(ValueError):
            BellIndex.parse("2,1")
        for label in ("psi21", "psi12", "psi123", "psi0100"):
            with pytest.raises(ValueError):
                BellIndex.from_label(label)

    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32])
    def test_bell_labels_round_trip(self, dim):
        # n and m are single bits, so every digit before the last two is j
        for idx in all_bell_indices(dim):
            assert BellIndex.from_label(idx.label) == idx
