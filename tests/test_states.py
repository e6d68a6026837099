"""Tests for the Bell family, the hyperentangled states, and the encoders."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bellsort import (
    BellIndex,
    SinglePhotonUnitary,
    TwoPhotonState,
    all_bell_indices,
    encode,
    make_bell_state,
    make_hyper_state,
    states,
)
from bellsort.modes import (
    POL_DIAGONAL, POL_LINEAR, Mode, ModeBasis, canonical_pair, path_modes, polarized_modes,
)
from bellsort.states import AMP_PRUNE, NORM_TOL, UNITARY_TOL
from conftest import (
    amplitudes, approx_equal, cli_pairs, encoding_unitary, from_kets, oracle_evolve, oracle_inner, oracle_norm,
    per_mode_xor_table,
)

A, B = "A", "B"
HALF = 0.5
INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestBellConstruction:
    def test_reference_state_is_uniform_diagonal(self):
        # (|00> + |11> + |22> + |33>) / 2
        expected = from_kets(
            4, [(Mode(A, x), Mode(B, x), HALF) for x in range(4)]
        )
        state = make_bell_state(4, BellIndex(0, 0, 0))
        assert approx_equal(state, expected, up_to_phase=False)

    def test_pairing_two_phase_one(self):
        # (|02> - |13> + |20> - |31>) / 2
        expected = from_kets(
            4,
            [
                (Mode(A, 0), Mode(B, 2), HALF),
                (Mode(A, 1), Mode(B, 3), -HALF),
                (Mode(A, 2), Mode(B, 0), HALF),
                (Mode(A, 3), Mode(B, 1), -HALF),
            ],
        )
        state = make_bell_state(4, BellIndex(2, 1, 0))
        assert approx_equal(state, expected, up_to_phase=False)

    def test_d2_states_are_the_standard_bell_basis(self):
        phi_minus = from_kets(
            2, [(Mode(A, 0), Mode(B, 0), INV_SQRT2), (Mode(A, 1), Mode(B, 1), -INV_SQRT2)]
        )
        assert approx_equal(make_bell_state(2, BellIndex(0, 1, 0)), phi_minus, up_to_phase=False)
        psi_plus = from_kets(
            2, [(Mode(A, 0), Mode(B, 1), INV_SQRT2), (Mode(A, 1), Mode(B, 0), INV_SQRT2)]
        )
        assert approx_equal(make_bell_state(2, BellIndex(1, 0, 0)), psi_plus, up_to_phase=False)

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
            assert abs(oracle_norm(make_bell_state(dim, idx)) - 1.0) < 1e-12

    def test_exchange_symmetric_by_representation(self):
        state = make_bell_state(4, BellIndex(3, 1, 1))
        amps = amplitudes(state)
        for (m1, m2) in set(amps):
            assert amps.get(canonical_pair(m1, m2), 0) == amps.get(canonical_pair(m2, m1), 0)

    def test_invalid_indices_rejected(self):
        with pytest.raises(ValueError, match="pairing index j=4 out of range for dimension 4"):
            make_bell_state(4, BellIndex(4, 0, 0))
        with pytest.raises(ValueError, match="dimension 2 has only 4 Bell states; m must be 0"):
            make_bell_state(2, BellIndex(0, 0, 1))
        with pytest.raises(ValueError, match="n and m must be bits, got n=2, m=0"):
            BellIndex(0, 2, 0)
        with pytest.raises(ValueError, match="j must be nonnegative, got -1"):
            BellIndex(-1, 0, 0)
        with pytest.raises(ValueError, match="pairing index j=4 out of range for dimension 4"):
            make_hyper_state(BellIndex(4, 0, 0))
        with pytest.raises(ValueError, match="integer power of two >= 2 for the XOR pairing, got 3"):
            make_bell_state(3, BellIndex(0, 0, 0))


def ket_sign(idx, x):
    """(-1)**(n*x0 + m*x1), computed apart from the library's helpers."""
    return (-1.0) ** (idx.n * (x & 1) + idx.m * ((x >> 1) & 1))


def array_bytes(state):
    return state.ids.dtype, state.ids.tobytes(), state.vals.dtype, state.vals.tobytes()


class TestCachedBellArrays:
    @pytest.mark.parametrize(
        "basis",
        [path_modes(2**k) for k in range(1, 7)] + [polarized_modes(4, POL_LINEAR), polarized_modes(4, POL_DIAGONAL)],
        ids=lambda basis: f"d{basis[-1].path + 1}{basis[0].pol}",
    )
    def test_the_rail_table_has_the_bits_of_the_per_mode_table(self, basis):
        moved, signs, ids, vals = states._xor_table(basis)
        expected = per_mode_xor_table(basis)
        shared = min(len(signs), 4)  # d sign rows here, 4 in the per-mode table
        assert [(a.dtype, a.tobytes()) for a in (moved, np.array(ids), signs[:shared], np.array(vals[:shared]))] == [
            (a.dtype, a.tobytes()) for a in (expected[0], expected[2], expected[1][:shared], expected[3][:shared])
        ]
        half = len(basis) // 2
        paths = [mode.path for mode in basis[half:]]
        for p in range(len(signs)):
            row = [1.0] * half + [(-1.0) ** (p & x).bit_count() for x in paths]
            assert signs[p].tolist() == row, p

    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32, 64])
    def test_bell_states_have_the_bits_of_the_ket_oracle(self, dim):
        for idx in all_bell_indices(dim):
            kets = [(Mode(A, x), Mode(B, x ^ idx.j), ket_sign(idx, x) / math.sqrt(dim)) for x in range(dim)]
            assert array_bytes(make_bell_state(dim, idx)) == array_bytes(from_kets(dim, kets)), idx.label

    def test_hyper_states_have_the_bits_of_the_ket_oracle(self):
        for idx in all_bell_indices(4):
            kets = [
                (Mode(A, x, p), Mode(B, x ^ idx.j, p), ket_sign(idx, x) * HALF * INV_SQRT2)
                for x in range(4)
                for p in ("H", "V")
            ]
            assert array_bytes(make_hyper_state(idx)) == array_bytes(from_kets(4, kets)), idx.label

    @pytest.mark.parametrize("build", [lambda idx: make_bell_state(4, idx), make_hyper_state], ids=["bell", "hyper"])
    def test_arrays_are_read_only_and_shared_only_by_equal_indices(self, build):
        first, again, other_nm, other_j = (
            build(BellIndex(*jnm)) for jnm in ((2, 1, 0), (2, 1, 0), (2, 0, 1), (3, 1, 0))
        )
        assert first is not again
        assert first.ids is again.ids is other_nm.ids and first.vals is again.vals is other_j.vals
        assert first.ids is not other_j.ids and first.vals is not other_nm.vals
        for array in (first.ids, first.vals):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestHyperState:
    def test_reference_hyper_state(self):
        coeff = HALF * INV_SQRT2
        expected = from_kets(
            4,
            [
                (Mode(A, x, p), Mode(B, x, p), coeff)
                for x in range(4)
                for p in ("H", "V")
            ],
        )
        assert approx_equal(make_hyper_state(BellIndex(0, 0, 0)), expected, up_to_phase=False)

    def test_worked_example_input(self):
        coeff = HALF * INV_SQRT2
        signs = {0: 1.0, 1: -1.0, 2: 1.0, 3: -1.0}
        expected = from_kets(
            4,
            [
                (Mode(A, x, p), Mode(B, x ^ 2, p), signs[x] * coeff)
                for x in range(4)
                for p in ("H", "V")
            ],
        )
        assert approx_equal(make_hyper_state(BellIndex(2, 1, 0)), expected, up_to_phase=False)

    def test_normalized(self):
        for idx in all_bell_indices(4):
            assert abs(oracle_norm(make_hyper_state(idx)) - 1.0) < 1e-12

    @pytest.mark.parametrize("idx", all_bell_indices(4), ids=lambda i: i.label)
    def test_path_restriction_recovers_bell_state(self, idx):
        # Factoring out the polarization pair must leave the path Bell state.
        hyper = make_hyper_state(idx)
        path_amps = {}
        for (m1, m2), amp in amplitudes(hyper).items():
            if m1.pol == "H" and m2.pol == "H":
                key = (Mode(m1.arm, m1.path), Mode(m2.arm, m2.path))
                path_amps[key] = amp * math.sqrt(2.0)
        restricted = TwoPhotonState.from_amplitudes(4, path_amps)
        assert approx_equal(restricted, make_bell_state(4, idx), up_to_phase=False)


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

    def test_a_matrix_of_strings_is_rejected(self):
        # numpy would parse the strings as numbers
        with pytest.raises(ValueError, match="must be numbers, got dtype <U1"):
            SinglePhotonUnitary((0, 1), (0, 1), [["1", "0"], ["0", "1"]])

    @pytest.mark.parametrize("out_dim,shape", [(1, (2, 4)), (2, (3, 3))])
    def test_a_matrix_of_another_shape_is_rejected(self, out_dim, shape):
        # a non-square matrix for unequal bases, or a square one of the wrong size
        out_modes = path_modes(out_dim)
        message = f"matrix shape {shape} does not match mode counts ({len(out_modes)}, 4)"
        with pytest.raises(ValueError, match=re.escape(message)):
            SinglePhotonUnitary(path_modes(2), out_modes, np.zeros(shape))

    def test_unitarity_is_checked_at_its_tolerance(self):
        # the identity scaled by 1 + e has the defect (1 + e)**2 - 1, about 2e
        SinglePhotonUnitary(path_modes(2), path_modes(2), np.eye(4) * (1 + UNITARY_TOL / 4))
        # [[1, 0], [t, 1]] times its transpose is [[1, t], [t, 1]] in floats: the defect is t itself
        SinglePhotonUnitary(path_modes(1), path_modes(1), [[1.0, 0.0], [UNITARY_TOL, 1.0]])
        with pytest.raises(ValueError, match=r"not unitary \(max defect 2\.0"):
            SinglePhotonUnitary(path_modes(2), path_modes(2), np.eye(4) * (1 + UNITARY_TOL))

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

    @pytest.mark.parametrize("dim", [2, 8, 16, 32])
    def test_all_unitary_at_other_dimensions(self, dim):
        # each one passes SinglePhotonUnitary's unitarity check and is an exact signed permutation
        for idx in all_bell_indices(dim):
            mat = encoding_unitary(dim, idx).matrix
            assert mat.dtype == np.float64
            assert np.array_equal(mat @ mat.T, np.eye(dim))

    def test_encode_identity_message(self):
        ref = make_bell_state(4, BellIndex(0, 0, 0))
        assert approx_equal(encode(ref, [BellIndex(0, 0, 0)])[0], ref, up_to_phase=False)

    def test_encode_specific_message(self):
        # U(1,0,1) on the second photon of the reference gives
        # (|01> + |10> - |23> - |32>) / 2, i.e. the (1,0,1) member.
        ref = make_bell_state(4, BellIndex(0, 0, 0))
        (encoded,) = encode(ref, [BellIndex(1, 0, 1)])
        expected = from_kets(
            4,
            [
                (Mode(A, 0), Mode(B, 1), HALF),
                (Mode(A, 1), Mode(B, 0), HALF),
                (Mode(A, 2), Mode(B, 3), -HALF),
                (Mode(A, 3), Mode(B, 2), -HALF),
            ],
        )
        assert approx_equal(encoded, expected)
        assert approx_equal(encoded, make_bell_state(4, BellIndex(1, 0, 1)))

    @pytest.mark.parametrize("idx", all_bell_indices(4), ids=lambda i: i.label)
    def test_encode_matches_construction_for_all_messages(self, idx):
        ref = make_bell_state(4, BellIndex(0, 0, 0))
        assert approx_equal(encode(ref, [idx])[0], make_bell_state(4, idx))

    def test_encode_reads_a_generator_of_indices_once(self):
        # the index checks must not use the iterator up before the states are built
        ref = make_bell_state(4, BellIndex(0, 0, 0))
        from_list = encode(ref, all_bell_indices(4))
        from_generator = encode(ref, (idx for idx in all_bell_indices(4)))
        assert len(from_generator) == 16
        assert [(s.ids.tobytes(), s.vals.tobytes()) for s in from_generator] == [
            (s.ids.tobytes(), s.vals.tobytes()) for s in from_list
        ]

    def test_encode_on_hyper_reference(self):
        ref = make_hyper_state(BellIndex(0, 0, 0))
        idx = BellIndex(2, 1, 0)
        assert approx_equal(encode(ref, [idx])[0], make_hyper_state(idx))

    def test_matrix_inverse_undoes_encoding(self):
        # the inverse path matrix on arm B and the identity on arm A, through kron(U, U)
        ref = make_bell_state(4, BellIndex(0, 0, 0))
        modes = path_modes(4)
        for idx, encoded in zip(all_bell_indices(4), encode(ref, all_bell_indices(4))):
            inverse = encoding_unitary(4, idx).matrix.conj().T
            full = np.kron(np.diag([1.0, 0.0]), np.eye(4)) + np.kron(np.diag([0.0, 1.0]), inverse)
            undone = oracle_evolve(encoded, SinglePhotonUnitary(modes, modes, full))
            assert approx_equal(TwoPhotonState.from_amplitudes(4, undone), ref)

    def test_dimension_mismatch_rejected(self):
        ref = make_bell_state(2, BellIndex(0, 0, 0))
        with pytest.raises(ValueError, match="pairing index j=2 out of range for dimension 2"):
            encode(ref, [BellIndex(2, 0, 0)])

    @pytest.mark.parametrize(
        "dim,position,bad,message",
        [
            (4, 0, BellIndex(4, 1, 0), "pairing index j=4 out of range for dimension 4"),
            (4, 15, BellIndex(7, 0, 1), "pairing index j=7 out of range for dimension 4"),
            (2, 2, BellIndex(1, 0, 1), "dimension 2 has only 4 Bell states; m must be 0"),
        ],
    )
    def test_a_bad_index_anywhere_is_named_and_nothing_is_built(self, dim, position, bad, message, monkeypatch):
        ref = make_bell_state(dim, BellIndex(0, 0, 0))
        indices = list(all_bell_indices(dim))
        indices[position] = bad
        built = []
        build = TwoPhotonState._build.__func__
        counted = classmethod(lambda cls, *args: built.append(args) or build(cls, *args))
        monkeypatch.setattr(TwoPhotonState, "_build", counted)
        with pytest.raises(ValueError, match=rf"^message {position} \({bad.label}\): {message}$"):
            encode(ref, indices)
        assert built == []

    def test_a_message_that_is_no_bell_index_is_named(self):
        ref = make_bell_state(4, BellIndex(0, 0, 0))
        with pytest.raises(ValueError, match=r"^message 1 \(\(0, 0, 0\)\): expected a BellIndex, got tuple$"):
            encode(ref, [BellIndex(1, 0, 0), (0, 0, 0)])

    def test_encode_keeps_an_amplitude_at_the_prune_threshold(self):
        # as in the constructors, only |psi| below AMP_PRUNE is dropped
        amps = {(Mode(A, 0), Mode(B, 0)): HALF, (Mode(A, 1), Mode(B, 1)): HALF, (Mode(A, 2), Mode(B, 2)): AMP_PRUNE}
        (encoded,) = encode(TwoPhotonState.from_amplitudes(4, amps), [BellIndex(1, 0, 0)])
        assert sorted(encoded.vals.tolist()) == [AMP_PRUNE, HALF, HALF]

    def test_encode_of_no_messages_is_empty(self):
        assert encode(make_bell_state(4, BellIndex(0, 0, 0)), []) == []

    def test_encode_rejects_a_state_in_another_basis(self):
        # encode reads a state in the canonical mode space and re-indexes nothing:
        # not the same modes in another order, nor a subset of that space
        ref = make_hyper_state(BellIndex(3, 1, 1))
        perm = np.random.default_rng(8).permutation(len(ref.basis))
        shuffled = ModeBasis(ref.basis[i] for i in perm)
        position = np.argsort(perm)  # canonical position -> position in shuffled
        rows, cols = (position[a] for a in np.divmod(ref.ids, len(shuffled)))
        ids = np.minimum(rows, cols) * len(shuffled) + np.maximum(rows, cols)
        order = np.argsort(ids)  # the class takes pairs in row-major order
        moved = TwoPhotonState(4, shuffled, ids[order], ref.vals[order])
        assert approx_equal(moved, ref, up_to_phase=False)
        two_paths = TwoPhotonState(4, path_modes(2), [2, 7], [HALF, HALF])
        one_mode = TwoPhotonState(2, ModeBasis([Mode(A, 0)]), [0], [1.0])  # a bunched pair in a basis of one mode
        for state in (moved, two_paths, one_mode):
            with pytest.raises(ValueError, match="canonical mode space"):
                encode(state, [BellIndex(1, 0, 0)])

    def test_encode_rejects_non_power_of_two_dimension(self):
        state = TwoPhotonState.from_amplitudes(
            3, {(Mode(A, 0), Mode(B, 2)): HALF, (Mode(A, 2), Mode(B, 0)): HALF}
        )
        with pytest.raises(ValueError, match="power of two"):
            encode(state, [BellIndex(1, 0, 0)])

    @pytest.mark.parametrize("dim", [4.0, True, "4"], ids=["float", "bool", "str"])
    def test_a_bool_or_non_integer_dimension_is_rejected(self, dim):
        # 4.0 used to build a state whose encode failed with a bare TypeError
        # from the XOR pairing; True built a state of dimension True
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            TwoPhotonState(dim, path_modes(2), [2, 7], [HALF, HALF])
        with pytest.raises(ValueError, match="dimension must be an integer power of two"):
            make_bell_state(dim, BellIndex(0, 0, 0))

    @pytest.mark.parametrize("dim", [4.0, True, "4", 3], ids=["float", "bool", "str", "three"])
    def test_all_bell_indices_rejects_a_dimension_on_a_cold_cache(self, dim):
        # True used to give the 4 states of dimension 1, and 4.0 a bare TypeError from range
        all_bell_indices.cache_clear()
        with pytest.raises(ValueError, match="dimension must be an integer power of two"):
            all_bell_indices(dim)

    def test_all_bell_indices_rejects_a_float_after_its_integer(self):
        # an untyped cache would return the d=4 family for the key 4.0 == 4
        assert len(all_bell_indices(4)) == 16
        with pytest.raises(ValueError, match="dimension must be an integer power of two"):
            all_bell_indices(4.0)


class TestStateRepresentation:
    def test_norm_convention(self):
        # one doubled pair and one split pair, norm^2 = |a|^2 + 2|b|^2
        amps = {
            (Mode(A, 0), Mode(A, 0)): math.sqrt(0.5),
            (Mode(A, 1), Mode(B, 1)): 0.5,
        }
        state = TwoPhotonState.from_amplitudes(4, amps)
        assert abs(oracle_norm(state) - 1.0) < 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="state norm 1.414.* deviates from 1 by more than 1e-09"):
            TwoPhotonState.from_amplitudes(4, {(Mode(A, 0), Mode(B, 0)): 1.0})

    @pytest.mark.parametrize(
        "ids,vals",
        [
            ([1], ["0.7071067811865476"]),
            ([1], [b"0.7071067811865476"]),
            ([1], np.array([INV_SQRT2], dtype=object)),
            ([0], np.array([1], dtype="m8[s]")),  # psi(A0, A0) = one second
        ],
        ids=["str", "bytes", "object", "timedelta"],
    )
    def test_amplitudes_that_are_not_numbers_are_rejected(self, ids, vals):
        # numpy would parse the strings as numbers, read a timedelta as its count,
        # and an object array may hold anything
        with pytest.raises(ValueError, match="must be numbers, got dtype"):
            TwoPhotonState(2, path_modes(2), ids, vals)

    def test_tiny_amplitudes_pruned(self):
        amps = {
            (Mode(A, 0), Mode(B, 0)): HALF,
            (Mode(A, 1), Mode(B, 1)): HALF,
            (Mode(A, 2), Mode(B, 2)): 1e-13,
        }
        state = TwoPhotonState.from_amplitudes(4, amps)
        assert len(amplitudes(state)) == 2
        # the threshold itself is kept: only |psi| below it is dropped
        state = TwoPhotonState.from_amplitudes(4, {**amps, (Mode(A, 2), Mode(B, 2)): AMP_PRUNE})
        assert len(amplitudes(state)) == 3

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate amplitude for pair \(A0, B1\)"):
            TwoPhotonState.from_amplitudes(4, {(Mode(A, 0), Mode(B, 1)): HALF, (Mode(B, 1), Mode(A, 0)): HALF})

    def test_keys_canonicalized(self):
        state = TwoPhotonState.from_amplitudes(4, {(Mode(B, 1), Mode(A, 0)): INV_SQRT2})
        ((m1, m2),) = set(amplitudes(state))
        assert (m1.arm, m2.arm) == (A, B)

    def test_equality_up_to_global_phase(self):
        state = make_bell_state(4, BellIndex(2, 1, 0))
        flipped = TwoPhotonState.from_amplitudes(4, {k: -v for k, v in amplitudes(state).items()})
        rotated = TwoPhotonState.from_amplitudes(4, {k: 1j * v for k, v in amplitudes(state).items()})
        assert approx_equal(state, flipped)
        assert approx_equal(state, rotated)
        assert not approx_equal(state, flipped, up_to_phase=False)
        assert not approx_equal(state, make_bell_state(4, BellIndex(2, 0, 0)))

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
        size = len(state.basis)
        rows, cols = np.divmod(state.ids, size)
        assert np.all(rows <= cols)
        assert not state.ids.flags.writeable and not state.vals.flags.writeable
        for i, k, a in zip(rows, cols, state.vals):
            assert state.amps.get(canonical_pair(state.basis[i], state.basis[k]), 0) == a
        with pytest.raises(ValueError, match="pair indices must satisfy 0 <= row <= col"):
            TwoPhotonState(4, state.basis, cols * size + rows, state.vals)
        with pytest.raises(ValueError, match="pair indices must satisfy 0 <= row <= col"):
            TwoPhotonState(4, state.basis, state.ids - size, state.vals)

    def test_amps_is_the_array_form_read_as_mode_pairs(self):
        # tests read amplitudes through conftest.amplitudes, built from the arrays alone
        for pair in cli_pairs():
            assert dict(pair.state.amps) == amplitudes(pair.state)

    def test_an_empty_basis_is_rejected(self):
        # np.divmod by zero modes would read id 0 as the pair (0, 0)
        with pytest.raises(ValueError, match="the mode basis is empty"):
            TwoPhotonState(1, (), [0], [1.0])

    def test_a_repeated_mode_is_rejected(self):
        # (A0, A0) would store the bunched pair |A0 A0> as a distinct-mode pair of weight 2
        with pytest.raises(ValueError, match="mode A0 appears twice in the mode basis"):
            TwoPhotonState(1, (Mode(A, 0), Mode(A, 0)), [1], [INV_SQRT2])
        with pytest.raises(ValueError, match="mode B1 appears twice in the mode basis"):
            TwoPhotonState(2, (*path_modes(2), Mode(B, 1)), [1], [INV_SQRT2])

    def test_a_basis_pickled_in_another_process_hashes_as_its_tuple(self):
        # str hashes differ between hash seeds; a basis that kept its pickled
        # hash would hash unlike tuple(basis) and miss as a dict key
        header = "import pickle, sys; from bellsort.modes import path_modes; "
        dump = header + "sys.stdout.buffer.write(pickle.dumps(path_modes(4)))"
        load = header + (
            "basis = pickle.loads(sys.stdin.buffer.read()); "
            "print(type(basis).__name__, hash(basis) == hash(tuple(basis)), basis in {path_modes(4): 0})"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        output = b""
        for seed, code in (("1", dump), ("2", load)):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            output = subprocess.run([sys.executable, "-c", code], input=output, env=env, capture_output=True).stdout
        assert output.split() == [b"ModeBasis", b"True", b"True"]

    def test_a_mode_on_path_dim_is_outside_the_dimension(self):
        # path == dim is the boundary; (A0, B2) of the 3-path basis is a unit-norm state
        with pytest.raises(ValueError, match="mode A2 outside dimension 2"):
            TwoPhotonState(2, path_modes(3), [5], [INV_SQRT2])

    @pytest.mark.parametrize("ids", [[1, 2], [[1]]])
    def test_constructor_rejects_ids_and_vals_of_other_shapes(self, ids):
        # 1-d ids longer than vals would otherwise fail only inside the norm's product
        with pytest.raises(ValueError, match="ids and vals must be 1-d arrays of one length"):
            TwoPhotonState(2, path_modes(2), ids, [INV_SQRT2])

    @pytest.mark.parametrize("ids", [[2, 2], [7, 2]])
    def test_constructor_rejects_repeated_or_unordered_pairs(self, ids):
        # both pass the norm check; read as a state, the repeated pair (A0, B0)
        # gives an outcome distribution that sums to 0.5
        with pytest.raises(ValueError, match="distinct and in row-major order"):
            TwoPhotonState(2, path_modes(2), ids, [HALF, HALF])

    def test_non_integer_pair_indices_rejected(self):
        # np.asarray(..., dtype=intp) would truncate these to the pair (0, 2), id 2
        with pytest.raises(ValueError, match="pair indices must be integers"):
            TwoPhotonState(2, path_modes(2), [2.7], [INV_SQRT2])
        with pytest.raises(ValueError, match="pair indices must be integers"):
            TwoPhotonState(2, path_modes(2), np.array([2.0]), [INV_SQRT2])
        # and this to the pair (0, 1), id 1
        with pytest.raises(ValueError, match="pair indices must be integers"):
            TwoPhotonState(2, path_modes(2), [True], [INV_SQRT2])
        state = TwoPhotonState(2, path_modes(2), np.array([2], dtype=np.uint8), [INV_SQRT2])
        assert state.ids.dtype == np.intp

    @pytest.mark.parametrize("start", [0, 1], ids=["whole", "slice"])
    def test_constructor_copies_the_callers_arrays(self, start):
        # intp ids and float64 vals passed whole were frozen in place, and a
        # slice was kept as a view of the caller's base array
        bell = make_bell_state(4, BellIndex(2, 1, 0))
        ids, vals = np.array([0, *bell.ids], dtype=np.intp), np.array([0.0, *bell.vals])
        state = TwoPhotonState(4, bell.basis, ids[start:], vals[start:])
        expected = ids[start:].copy(), vals[start:].copy()
        assert ids.flags.writeable and vals.flags.writeable
        ids[:], vals[:] = 63, 5.0
        assert np.array_equal(state.ids, expected[0]) and np.array_equal(state.vals, expected[1])

    def test_mode_space_tracks_polarization(self):
        # encode works in the canonical mode space of the state's polarization family
        diagonal = TwoPhotonState.from_amplitudes(4, {(Mode(A, 0, "+"), Mode(B, 0, "-")): INV_SQRT2})
        for state, space in (
            (make_bell_state(4, BellIndex(0, 0, 0)), path_modes(4)),
            (make_hyper_state(BellIndex(0, 0, 0)), polarized_modes(4, POL_LINEAR)),
            (diagonal, polarized_modes(4, POL_DIAGONAL)),
        ):
            assert state.basis == space
            assert encode(state, [BellIndex(1, 0, 1)])[0].basis == space

    @pytest.mark.parametrize("scale", [1 + 2 * NORM_TOL, 1 - 2 * NORM_TOL, 2.0, 0.0, math.nan])
    def test_constructor_rejects_a_norm_off_one(self, scale):
        # the same rule and message as from_amplitudes and evolve
        state = make_bell_state(4, BellIndex(2, 1, 0))
        with pytest.raises(ValueError, match="deviates from 1 by more than 1e-09"):
            TwoPhotonState(4, state.basis, state.ids, state.vals * scale)
        with pytest.raises(ValueError, match="deviates from 1 by more than 1e-09"):
            TwoPhotonState.from_amplitudes(4, {k: v * scale for k, v in amplitudes(state).items()})

    def test_constructor_accepts_a_norm_within_the_tolerance(self):
        state = make_bell_state(4, BellIndex(2, 1, 0))
        for scale in (1 + NORM_TOL / 2, 1 - NORM_TOL / 2):
            near = TwoPhotonState(4, state.basis, state.ids, state.vals * scale)
            assert abs(oracle_norm(near) - 1.0) <= NORM_TOL

    def test_bell_index_labels(self):
        idx = BellIndex(2, 1, 0)
        assert idx.label == "psi210"
        assert BellIndex.parse("2,1,0") == idx
        with pytest.raises(ValueError, match="expected 'j,n,m', got '2,1'"):
            BellIndex.parse("2,1")
        with pytest.raises(ValueError, match="expected integers in 'j,n,m', got '2,x,0'"):
            BellIndex.parse("2,x,0")

    @pytest.mark.parametrize(
        "jnm", [(0, True, 0), (0, 0, False), (True, 0, 0), (0, 1.0, 0), (1.0, 0, 0), (0, 0, np.int64(1))]
    )
    def test_bell_index_rejects_non_integer_bits(self, jnm):
        # a label is "psi" followed by digits: not "psi0True0" or "psi01.00"
        with pytest.raises(ValueError, match="must be an integer"):
            BellIndex(*jnm)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_mode_order_is_the_canonical_basis_order(self, dim):
        # (arm, path, polarization label): "" first, H before V and + before -
        for basis in (path_modes(dim), polarized_modes(dim, POL_LINEAR), polarized_modes(dim, POL_DIAGONAL)):
            assert sorted(reversed(basis)) == list(basis)

    def test_mode_order_is_strict(self):
        # the dataclass order compares (arm, path, pol) tuples, so < must be strict
        mode = Mode(A, 1, "+")
        assert not mode < mode and mode <= mode and not mode > mode
        assert Mode(A, 1) < mode < Mode(A, 1, "-") < Mode(B, 0)

    def test_mode_rejects_an_unknown_arm_or_polarization(self):
        with pytest.raises(ValueError, match="unknown arm 'C', expected one of"):
            Mode("C", 0)
        with pytest.raises(ValueError, match="unknown polarization 'D'"):
            Mode(A, 0, "D")
        with pytest.raises(ValueError, match="^unknown polarization None$"):  # "" is no polarization
            Mode(A, 0, None)

    def test_mode_repr_is_its_label(self):
        assert repr(Mode(A, 0, "+")) == "Mode(A0+)"
        assert repr(Mode(B, 3)) == "Mode(B3)"

    @pytest.mark.parametrize("path", [True, False, 1.0, -1, "1"])
    def test_mode_rejects_a_bool_or_non_integer_path(self, path):
        # Mode("A", True) used to label itself "ATrue" and equal Mode("A", 1)
        with pytest.raises(ValueError, match="path index must be a nonnegative integer"):
            Mode(A, path)

    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32, 64])
    def test_bell_labels_are_distinct(self, dim):
        # classify rejects duplicate labels and rendering keys on them; n and m
        # are single bits, so every digit before the last two is j
        labels = [idx.label for idx in all_bell_indices(dim)]
        assert len(set(labels)) == len(labels)
