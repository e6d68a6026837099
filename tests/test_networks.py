"""Tests for the interferometer unitaries and two-photon evolution."""

import hashlib
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bellsort import (
    BellIndex,
    SinglePhotonUnitary,
    TwoPhotonState,
    all_bell_indices,
    evolve,
    evolve_all,
    grouping,
    make_bell_state,
    make_hyper_state,
    network_for_setup,
    networks,
    outcome_distribution,
)
from bellsort.modes import Mode, canonical_pair, path_modes, polarized_modes
from bellsort.networks import NetworkSpec, NetworkStage
from conftest import (
    amplitudes, approx_equal, cli_pairs, evolve_each, evolve_families, from_kets, oracle_evolve, oracle_norm,
    random_two_photon_state, random_unitary, where_pair_terms,
)

A, B = "A", "B"
INV_SQRT2 = 1.0 / math.sqrt(2.0)


# sha256 over every stage of a network (its kind, input and output mode
# labels, matrix dtype and matrix bytes) and then over its composed unitary,
# recorded from the networks as they were built before every stage became a
# per-mode rule filled in by one helper.
NETWORK_DIGESTS = {
    ("fig1", 2): "d2d3acb1ed0827dcae5b26dfee86da1f3a926b7976648a0dec589705e1c0f697",
    ("fig1", 4): "7cc14189005490bacc3914d3c36d15c4688515ea403ac50b5bddbb061713a268",
    ("fig1", 8): "248da1a384302229461b9a7f4d930ba8950b500d8ac1c79406c066e283c8a40e",
    ("fig1", 16): "ca41d23f6a643f9a7b446020200c4ba0bd3dce02f628bb037ec6ce82dd28cd30",
    ("fig1", 32): "4fd57af59170b934f955c49d528f04b05d09cc3ab3bd0726e978d692433c8ddc",
    ("fig1", 64): "6fe8cde72ed7b79b6f221869546fdfff9a693223191213e7f02882040af86c88",
    ("fig2", 4): "3aaf7cb235cacaa8ad69aa02fe44205ea12170bc20d4059f60f0d158334aa3ee",
}


def network_digest(spec):
    digest = hashlib.sha256()
    for kind, unitary in [(s.kind, s.unitary) for s in spec.stages] + [("unitary", spec.unitary)]:
        for field in (
            kind,
            " ".join(m.label for m in unitary.in_modes),
            " ".join(m.label for m in unitary.out_modes),
            str(unitary.matrix.dtype),
        ):
            digest.update(field.encode() + b"\n")
        digest.update(unitary.matrix.tobytes())
    return digest.hexdigest()


def network_digest_mismatches():
    """The (setup, dim) keys whose ``network_for_setup`` network differs from its digest."""
    return [
        key for key, pinned in NETWORK_DIGESTS.items() if network_digest(network_for_setup(*key)) != pinned
    ]


def arm_pattern(pair):
    return tuple(sorted(m.arm for m in pair))


def oracle_mismatches(cases, through=evolve_each):
    """Positions of the (state, network) cases where evolution and the kron(U, U) oracle disagree.

    ``through`` evolves the cases: ``evolve_each`` or ``evolve_families``. A
    case it rejects (a norm check raises) counts as a disagreement.
    """
    mismatches = []
    for position, ((state, net), evolved) in enumerate(zip(cases, through(cases))):
        if isinstance(evolved, ValueError):
            mismatches.append(position)
            continue
        evolved = amplitudes(evolved)
        expected = {canonical_pair(*key): a for key, a in oracle_evolve(state, net).items()}
        keys = set(evolved) | set(expected)
        if any(abs(evolved.get(key, 0.0) - expected.get(key, 0.0)) >= 1e-10 for key in keys):
            mismatches.append(position)
    return mismatches


def random_oracle_cases(dim, seed, count=40):
    """``count`` random (state, unitary) pairs over the path modes of ``dim``."""
    rng = np.random.default_rng(seed)
    basis = path_modes(dim)
    return [(random_two_photon_state(dim, basis, rng), random_unitary(basis, rng)) for _ in range(count)]


class TestFig1Structure:
    def test_matrix_is_blockwise_hadamard(self):
        net = network_for_setup("fig1", 4).unitary
        assert len(net.in_modes) == 8
        mat = net.matrix
        assert np.allclose(mat.imag, 0.0)
        index = {m: i for i, m in enumerate(net.in_modes)}
        for x in range(4):
            a, b = index[Mode(A, x)], index[Mode(B, x)]
            block = mat[np.ix_([a, b], [a, b])].real
            assert np.allclose(block, np.array([[1, 1], [1, -1]]) * INV_SQRT2)
        # everything off the per-path blocks vanishes
        for mo in net.in_modes:
            for mi in net.in_modes:
                if mo.path != mi.path:
                    assert mat[index[mo], index[mi]] == 0.0

    def test_unitary_and_involution(self):
        net = network_for_setup("fig1", 4).unitary
        eye = np.eye(len(net.in_modes))
        assert np.max(np.abs(net.matrix @ net.matrix.conj().T - eye)) < 1e-10
        assert np.max(np.abs(net.matrix @ net.matrix - eye)) < 1e-10

    def test_spec_stages(self):
        spec = network_for_setup("fig1", 4)
        assert [s.kind for s in spec.stages] == ["bs_hadamard"]
        assert all(m.pol == "" for m in spec.stages[0].unitary.in_modes)

    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32, 64])
    def test_the_unitary_is_the_one_stage_itself(self, dim):
        # no checked copy: one matrix and one pair-term table per network
        assert network_for_setup("fig1", dim).unitary is network_for_setup("fig1", dim).stages[0].unitary


class TestEvolutionArchetypes:
    @pytest.mark.parametrize("x", range(4))
    def test_identical_paths_bunch(self, x):
        # |x>_A |x>_B -> |x>_a|x>_a - |x>_b|x>_b, probability 1/2 each side
        state = from_kets(4, [(Mode(A, x), Mode(B, x), 1.0)])
        out = amplitudes(evolve(state, network_for_setup("fig1", 4).unitary))
        assert set(out) == {
            (Mode(A, x), Mode(A, x)),
            (Mode(B, x), Mode(B, x)),
        }
        assert out.get(canonical_pair(Mode(A, x), Mode(A, x)), 0) == pytest.approx(INV_SQRT2)
        assert out.get(canonical_pair(Mode(B, x), Mode(B, x)), 0) == pytest.approx(-INV_SQRT2)

    @pytest.mark.parametrize("x,y", [(0, 1), (0, 2), (1, 3), (2, 3)])
    def test_symmetric_pairs_stay_same_arm(self, x, y):
        state = from_kets(
            4, [(Mode(A, x), Mode(B, y), INV_SQRT2), (Mode(A, y), Mode(B, x), INV_SQRT2)]
        )
        out = amplitudes(evolve(state, network_for_setup("fig1", 4).unitary))
        assert set(out) == {
            (Mode(A, x), Mode(A, y)),
            (Mode(B, x), Mode(B, y)),
        }

    @pytest.mark.parametrize("x,y", [(0, 1), (0, 3), (1, 2)])
    def test_antisymmetric_pairs_split_arms(self, x, y):
        state = from_kets(
            4, [(Mode(A, x), Mode(B, y), INV_SQRT2), (Mode(A, y), Mode(B, x), -INV_SQRT2)]
        )
        out = amplitudes(evolve(state, network_for_setup("fig1", 4).unitary))
        assert set(out) == {
            (Mode(A, x), Mode(B, y)),
            (Mode(A, y), Mode(B, x)),
        }

    def test_identity_network_is_a_no_op(self):
        state = make_bell_state(4, BellIndex(3, 1, 0))
        identity = SinglePhotonUnitary(path_modes(4), path_modes(4), np.eye(8))
        assert approx_equal(evolve(state, identity), state, up_to_phase=False)

    def test_mode_mismatch_rejected(self):
        state = make_hyper_state(BellIndex(0, 0, 0))
        with pytest.raises(ValueError, match="the state is not stored in the network's input basis"):
            evolve(state, network_for_setup("fig1", 4).unitary)

    def test_paths_outside_the_network_rejected(self):
        # A d=4 state has photons on paths 2 and 3, which a d=2 network lacks.
        state = make_bell_state(4, BellIndex(2, 0, 0))
        with pytest.raises(ValueError, match="not stored in the network's input basis"):
            evolve(state, network_for_setup("fig1", 2).unitary)

    def test_nan_amplitude_fails_the_norm_check(self):
        # |nan - 1| > tol is False; written that way, a NaN state would evolve to an empty one
        with pytest.raises(ValueError, match="state norm nan"):
            TwoPhotonState(2, path_modes(2), [2, 7], [0.7071, math.nan])
        amps = {(Mode(A, 0), Mode(B, 0)): 0.7071, (Mode(A, 1), Mode(B, 1)): math.nan}
        with pytest.raises(ValueError, match="state norm nan"):
            TwoPhotonState.from_amplitudes(2, amps)

    @pytest.mark.parametrize("position", [0, 9, 16])
    def test_evolve_all_names_a_state_in_another_basis_before_any_gather(self, position, monkeypatch):
        network = network_for_setup("fig1", 4).unitary
        family = [make_bell_state(4, idx) for idx in all_bell_indices(4)]
        family.insert(position, make_hyper_state(BellIndex(0, 0, 0)))
        gathered = []
        terms = networks._terms
        monkeypatch.setattr(networks, "_terms", lambda *args: gathered.append(args) or terms(*args))
        with pytest.raises(ValueError, match=f"^state {position} is not stored in the network's input basis$"):
            evolve_all(family, network)
        assert gathered == []

    def test_evolve_all_of_no_states_is_empty(self):
        assert evolve_all([], network_for_setup("fig1", 4).unitary) == []

    def test_network_of_a_larger_dimension_rejected(self):
        # every mode of the d=4 state is an input of the d=8 network, but the
        # state is not stored in that network's 16-mode input basis
        state = make_bell_state(4, BellIndex(1, 0, 0))
        with pytest.raises(ValueError, match="not stored in the network's input basis"):
            evolve(state, network_for_setup("fig1", 8).unitary)


class TestEvolutionProperties:
    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(11)
        basis = path_modes(4)
        net = network_for_setup("fig1", 4).unitary
        for _ in range(20):
            state = random_two_photon_state(4, basis, rng)
            assert abs(oracle_norm(evolve(state, net)) - 1.0) < 1e-9

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_oracle_equivalence_random(self, dim):
        # pair-term evolution vs first-quantized kron oracle
        assert oracle_mismatches(random_oracle_cases(dim, 100 + dim)) == []

    @pytest.mark.parametrize("dim", [8, 16])
    def test_oracle_equivalence_on_the_benchmark_sizes(self, dim):
        # every state all_bell_indices(dim) builds, through fig1; kron(U, U)
        # is 1024 x 1024 at d=16 (d=32 would need 256 MB and is left out)
        net = network_for_setup("fig1", dim).unitary
        for idx in all_bell_indices(dim):
            state = make_bell_state(dim, idx)
            evolved = amplitudes(evolve(state, net))
            expected = oracle_evolve(state, net)
            assert set(evolved) == set(expected)
            for key, amp in expected.items():
                assert abs(evolved[key] - amp) < 1e-10

    def test_output_basis_in_another_order(self):
        # the network may list its output modes in any order; its input basis
        # is the state's own, and a state in another order is rejected
        rng = np.random.default_rng(7)
        basis = path_modes(4)
        net = SinglePhotonUnitary(basis, basis[::-1], random_unitary(basis, rng).matrix)
        state = make_bell_state(4, BellIndex(3, 1, 1))
        evolved = evolve(state, net)
        expected = {canonical_pair(*key): a for key, a in oracle_evolve(state, net).items()}
        amps = amplitudes(evolved)
        assert set(amps) == set(expected)
        for key, amp in expected.items():
            assert abs(amps[key] - amp) < 1e-10
        # outcome labels keep canonical click order on the reversed output basis
        labels = {" ".join([m1.label, m2.label]) for m1, m2 in expected}
        assert set(outcome_distribution(evolved)) == labels
        with pytest.raises(ValueError, match="not stored in the network's input basis"):
            evolve(state, random_unitary(basis[::-1], rng))

    def test_a_repeated_input_or_output_mode_is_rejected(self):
        # output modes (A0, A0) would send |A0 B0> to {'A0 A0': 1.0}, a pair the unitary never makes
        a0, b0 = Mode(A, 0), Mode(B, 0)
        with pytest.raises(ValueError, match="mode A0 appears twice in the mode basis"):
            SinglePhotonUnitary((a0, b0), (a0, a0), np.eye(2))
        with pytest.raises(ValueError, match="mode B0 appears twice in the mode basis"):
            SinglePhotonUnitary((b0, b0), (a0, b0), np.eye(2))

    @pytest.mark.parametrize("through", [evolve_each, evolve_families], ids=["evolve", "evolve_all"])
    def test_oracle_equivalence_on_the_measurement_networks(self, through):
        # every CLI pair at d <= 4, prepared and encoded, through fig1 and fig2
        assert oracle_mismatches([(p.state, p.network) for p in cli_pairs(4)], through) == []

    def test_hom_bunching_no_cross_arm_amplitude(self):
        net = network_for_setup("fig1", 4).unitary
        for x in range(4):
            state = from_kets(4, [(Mode(A, x), Mode(B, x), 1.0)])
            assert all(m1.arm == m2.arm for (m1, m2) in amplitudes(evolve(state, net)))

    def test_exchange_symmetry_dichotomy_over_component_pairs(self):
        # (|xy> + s|yx>)/sqrt(2): same-arm support iff s=+1, cross-arm iff s=-1
        net = network_for_setup("fig1", 4).unitary
        for x in range(4):
            for y in range(x + 1, 4):
                for s in (1.0, -1.0):
                    state = from_kets(
                        4,
                        [(Mode(A, x), Mode(B, y), INV_SQRT2), (Mode(A, y), Mode(B, x), s * INV_SQRT2)],
                    )
                    patterns = {arm_pattern(p) for p in amplitudes(evolve(state, net))}
                    assert patterns == ({(A, A), (B, B)} if s > 0 else {(A, B)})

    def test_exchange_symmetry_dichotomy_over_bell_states(self):
        net = network_for_setup("fig1", 4).unitary
        for idx in all_bell_indices(4):
            state = make_bell_state(4, idx)
            swapped = TwoPhotonState.from_amplitudes(
                4,
                {
                    (Mode(B if m1.arm == A else A, m1.path), Mode(B if m2.arm == A else A, m2.path)): a
                    for (m1, m2), a in amplitudes(state).items()
                },
            )
            symmetric = approx_equal(state, swapped, up_to_phase=False)
            patterns = {arm_pattern(p) for p in amplitudes(evolve(state, net))}
            if symmetric:
                assert patterns <= {(A, A), (B, B)}
            else:
                assert patterns == {(A, B)}

    def test_support_invariant_under_swapped_bs_sign_convention(self):
        plus_first = network_for_setup("fig1", 4).unitary
        # move the minus sign to the A row instead of the B row
        modes = path_modes(4)
        index = {m: i for i, m in enumerate(modes)}
        mat = np.zeros((8, 8))
        for x in range(4):
            a, b = index[Mode(A, x)], index[Mode(B, x)]
            mat[a, a] = -INV_SQRT2
            mat[a, b] = INV_SQRT2
            mat[b, a] = INV_SQRT2
            mat[b, b] = INV_SQRT2
        swapped = SinglePhotonUnitary(modes, modes, mat)
        for idx in all_bell_indices(4):
            state = make_bell_state(4, idx)
            assert set(amplitudes(evolve(state, plus_first))) == set(amplitudes(evolve(state, swapped)))


def test_networks_are_bit_identical_to_the_pinned_digests():
    assert network_digest_mismatches() == []


class TestFig2Network:
    def test_network_for_setup_is_built_once_and_read_only(self):
        net = network_for_setup("fig2")
        assert network_for_setup("fig2") is net
        with pytest.raises(ValueError, match="read-only"):
            net.unitary.matrix[0, 0] = 0.0

    def test_composed_matrix_unitary(self):
        net = network_for_setup("fig2").unitary
        assert len(net.in_modes) == 16
        assert np.max(np.abs(net.matrix @ net.matrix.conj().T - np.eye(16))) < 1e-10

    def test_stage_order_and_bases(self):
        spec = network_for_setup("fig2")
        assert [s.kind for s in spec.stages] == [
            "pbs0_rail_swap",
            "bs_hadamard",
            "pbs45_basis_change",
        ]
        net = spec.unitary
        assert tuple(net.in_modes) == polarized_modes(4, ("H", "V"))
        assert tuple(net.out_modes) == polarized_modes(4, ("+", "-"))

    def test_rail_swap_flips_ancilla_sign_exactly_for_odd_phase_bit(self):
        # On the worked-example state the first stage sends the polarization
        # pair |HH> + |VV> to |HH> - |VV> with all path amplitudes untouched.
        stage = network_for_setup("fig2").stages[0].unitary
        state = make_hyper_state(BellIndex(2, 1, 0))
        out = amplitudes(evolve(state, stage))
        for (m1, m2), amp in amplitudes(state).items():
            sign = -1.0 if m1.pol == "V" else 1.0
            assert out.get(canonical_pair(m1, m2), 0) == pytest.approx(sign * amp)

    def test_rail_swap_preserves_ancilla_sign_for_even_phase_bit(self):
        stage = network_for_setup("fig2").stages[0].unitary
        state = make_hyper_state(BellIndex(2, 0, 0))
        assert approx_equal(evolve(state, stage), state, up_to_phase=False)

    def test_worked_example_full_evolution(self):
        # Final state: (1/(2 sqrt 2)) (|A0+ A2-> + |A0- A2+> - |A1+ A3->
        # - |A1- A3+> - |B0+ B2-> - |B0- B2+> + |B1+ B3-> + |B1- B3+>)
        coeff = 1.0 / (2.0 * math.sqrt(2.0))
        terms = [
            ((A, 0, "+"), (A, 2, "-"), coeff),
            ((A, 0, "-"), (A, 2, "+"), coeff),
            ((A, 1, "+"), (A, 3, "-"), -coeff),
            ((A, 1, "-"), (A, 3, "+"), -coeff),
            ((B, 0, "+"), (B, 2, "-"), -coeff),
            ((B, 0, "-"), (B, 2, "+"), -coeff),
            ((B, 1, "+"), (B, 3, "-"), coeff),
            ((B, 1, "-"), (B, 3, "+"), coeff),
        ]
        expected = from_kets(
            4, [(Mode(*m1), Mode(*m2), c) for m1, m2, c in terms]
        )
        out = evolve(make_hyper_state(BellIndex(2, 1, 0)), network_for_setup("fig2").unitary)
        assert approx_equal(out, expected, up_to_phase=False, tol=1e-10)


# Caps on the bytes of each network's pair-term table (row_of, keys and both
# weights), just above their size: fig1 has 2 nonzeros per column and rows
# of 8 slots, fig2 has 4 and rows of 32
TABLE_BYTES_CAP = {
    ("fig1", 2): 1_700,
    ("fig1", 4): 6_100,
    ("fig1", 8): 23_000,
    ("fig1", 16): 89_000,
    ("fig1", 32): 350_000,
    ("fig1", 64): 1_400_000,
    ("fig2", 4): 89_000,
}


class TestPairTerms:
    @pytest.mark.parametrize("key", list(TABLE_BYTES_CAP), ids=lambda key: f"{key[0]}-d{key[1]}")
    def test_table_size_is_capped(self, key):
        unitary = network_for_setup(*key).unitary
        table = unitary.pair_terms
        size = len(unitary.in_modes)
        k = int((unitary.matrix != 0).sum(axis=0).max())
        assert table.row_of.shape == (size * size,)
        rows, width = table.keys.shape
        assert (rows, width) == (size * (size + 1) // 2, 2 * k * k)
        assert table.first.shape == table.second.shape == table.keys.shape
        assert sum(array.nbytes for array in table) <= TABLE_BYTES_CAP[key]

    @pytest.mark.parametrize(
        "key", [*TABLE_BYTES_CAP, "random"], ids=lambda key: key if key == "random" else f"{key[0]}-d{key[1]}"
    )
    def test_table_equals_the_where_build_to_the_byte(self, key):
        if key == "random":  # dense and complex
            unitary = random_unitary(path_modes(4), np.random.default_rng(30))
        else:
            unitary = network_for_setup(*key).unitary
        for got, want in zip(unitary.pair_terms, where_pair_terms(unitary), strict=True):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_the_d64_build_peaks_below_one_and_three_quarter_tables(self):
        # the table is 1,386,496 bytes; a full-size np.where copy per slot
        # array took the build's peak to 1.91 tables, writing in place to 1.67
        network = network_for_setup("fig1", 64).unitary
        fresh = SinglePhotonUnitary(network.in_modes, network.out_modes, network.matrix)
        tracemalloc.start()
        try:
            table = fresh.pair_terms
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * sum(array.nbytes for array in table)

    def test_table_is_built_once_and_read_only(self):
        unitary = network_for_setup("fig1", 4).unitary
        table = unitary.pair_terms
        assert unitary.pair_terms is table
        assert (table.row_of.dtype, table.keys.dtype, table.first.dtype) == (np.int32, np.int32, np.float64)
        assert not any(array.flags.writeable for array in table)

    @pytest.mark.parametrize("setup", ["fig1", "fig2", "uneven"])
    def test_empty_slots_feed_the_bin_past_the_last_pair_with_weight_zero(self, setup):
        if setup == "uneven":  # a beam splitter on path 0 only: columns of 2 and of 1 nonzeros, so padded slots
            s = INV_SQRT2
            matrix = [[s, 0, s, 0], [0, 1, 0, 0], [s, 0, -s, 0], [0, 0, 0, 1]]
            unitary = SinglePhotonUnitary(path_modes(2), path_modes(2), matrix)
        else:
            unitary = network_for_setup(setup, 4).unitary
        table = unitary.pair_terms
        size = len(unitary.in_modes)
        empty = table.keys == size * size
        assert empty.any()
        assert not table.first[empty].any() and not table.second[empty].any()
        assert table.first[~empty].all() and table.second[~empty].all()
        # every live slot feeds an upper-triangle pair
        rows, cols = np.divmod(table.keys[~empty], size)
        assert (rows <= cols).all()

    def test_a_nan_amplitude_fails_the_norm_check_of_evolve(self):
        # _build skips the norm check; the NaN reaches evolve's output bins and
        # must fail there rather than be pruned to a smaller state
        state = TwoPhotonState._build(2, path_modes(2), np.array([2, 7]), np.array([INV_SQRT2, math.nan]))
        with pytest.raises(ValueError, match="state norm nan"):
            evolve(state, network_for_setup("fig1", 2).unitary)


class TestSetupDimension:
    @pytest.mark.parametrize("setup", ["fig1", "fig2"])
    @pytest.mark.parametrize("dim", [4.0, True, "4"], ids=["float", "bool", "str"])
    def test_a_bool_or_non_integer_dimension_is_rejected_on_a_cold_cache(self, setup, dim):
        # 4.0 used to fail with a bare TypeError from range in path_modes (fig1)
        # and to build the d=4 network (fig2, where 4.0 == 4)
        network_for_setup.cache_clear()
        with pytest.raises(ValueError, match="dimension must be an integer"):
            network_for_setup(setup, dim)

    @pytest.mark.parametrize("setup", ["fig1", "fig2"])
    def test_a_float_dimension_is_rejected_after_its_integer(self, setup):
        # an untyped cache would return the d=4 spec for the key 4.0 == 4
        assert network_for_setup(setup, 4).dim == 4
        with pytest.raises(ValueError, match="dimension must be an integer"):
            network_for_setup(setup, 4.0)

    def test_fig1_needs_two_paths(self):
        with pytest.raises(ValueError, match="need at least two paths"):
            network_for_setup("fig1", 1)

    @pytest.mark.parametrize(
        "setup,dim", [("fig1", 1), ("fig1", 4.0), ("fig1", True), ("fig2", 2), ("fig2", 4.0), ("fig2", np.int64(4))]
    )
    def test_a_state_is_prepared_only_where_a_network_exists(self, setup, dim):
        # fig1 at 1 or 4.0 raised the XOR pairing's power-of-two message, and fig2 at 4.0 built the d=4 state
        with pytest.raises(ValueError) as network_error:
            network_for_setup(setup, dim)
        with pytest.raises(ValueError) as state_error:
            networks.prepared_state(setup, dim, BellIndex(0, 0, 0))
        assert str(state_error.value) == str(network_error.value)

    def test_an_unknown_setup_is_rejected(self):
        with pytest.raises(ValueError, match="unknown setup 'fig3', expected one of"):
            network_for_setup("fig3", 4)

    @pytest.mark.parametrize(
        "prepare",
        [
            lambda: networks.labelled_states("fig3", 4),
            lambda: networks.prepared_state("FIG2", 4, BellIndex(1, 0, 0)),
            lambda: grouping.compute_table("fig3", 4, "pnrd", "strict"),
        ],
        ids=["labelled_states", "prepared_state", "compute_table"],
    )
    def test_an_unknown_setup_prepares_no_state(self, prepare, monkeypatch):
        # these returned or built path-only fig1 states before anything checked the setup name
        built = []
        for name in ("make_bell_state", "make_hyper_state"):
            real = getattr(networks, name)
            monkeypatch.setattr(networks, name, lambda *args, real=real: built.append(args) or real(*args))
        message = re.escape("unknown setup ") + r"'(fig3|FIG2)'" + re.escape(", expected one of ('fig1', 'fig2')")
        with pytest.raises(ValueError, match=f"^{message}$"):
            prepare()
        assert built == []


class TestIdentitySemantics:
    def test_unitaries_compare_and_hash_by_identity(self):
        fig1 = network_for_setup("fig1", 4).unitary
        identity = SinglePhotonUnitary(path_modes(4), path_modes(4), np.eye(8))
        assert fig1 == fig1 and fig1 != identity
        assert len({fig1, identity, fig1}) == 2

    def test_stages_compare_and_hash_by_kind_and_unitary_object(self):
        fig1 = network_for_setup("fig1", 4).unitary
        stage = NetworkStage("bs_hadamard", fig1)
        assert stage == NetworkStage("bs_hadamard", fig1)
        assert hash(stage) == hash(NetworkStage("bs_hadamard", fig1))
        identity = SinglePhotonUnitary(path_modes(4), path_modes(4), np.eye(8))
        assert stage != NetworkStage("bs_hadamard", identity)

    def test_specs_compare_and_hash_by_fields(self):
        spec = network_for_setup("fig1", 4)
        same = NetworkSpec(spec.setup, spec.dim, spec.stages)
        assert spec == same and hash(spec) == hash(same)
        assert len({spec, same, network_for_setup("fig1", 8), network_for_setup("fig2")}) == 3


class TestNetworkSpecChecks:
    def test_a_spec_needs_a_stage(self):
        with pytest.raises(ValueError, match="a network needs at least one stage"):
            NetworkSpec("x", 4, ())

    def test_stages_must_take_the_modes_the_stage_before_gives(self):
        # the analyzer gives +/- modes and the beam splitters take H/V; the
        # product was labelled H/V -> H/V
        full = network_for_setup("fig2")
        message = "stage 'bs_hadamard' does not take the output modes of stage 'pbs45_basis_change'"
        with pytest.raises(ValueError, match=message):
            NetworkSpec("x", 4, (full.stages[2], full.stages[1]))
        prefix = replace(full, stages=full.stages[:2])
        assert prefix.unitary.out_modes == full.stages[1].unitary.out_modes
