"""Tests for the interferometer unitaries and two-photon evolution."""

import math

import numpy as np
import pytest

from bellsort import (
    BellIndex,
    SinglePhotonUnitary,
    TwoPhotonState,
    all_bell_indices,
    evolve,
    make_bell_state,
    make_hyper_state,
    network_for_setup,
)
from bellsort.modes import Mode, canonical_pair, path_modes, polarized_modes
from bellsort.networks import NetworkSpec, NetworkStage
from conftest import oracle_evolve, random_two_photon_state, random_unitary

A, B = "A", "B"
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def arm_pattern(pair):
    return tuple(sorted(m.arm for m in pair))


class TestFig1Structure:
    def test_matrix_is_blockwise_hadamard(self):
        net = network_for_setup("fig1", 4).unitary
        assert net.dim == 8
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
        eye = np.eye(net.dim)
        assert np.max(np.abs(net.matrix @ net.matrix.conj().T - eye)) < 1e-10
        assert np.max(np.abs(net.matrix @ net.matrix - eye)) < 1e-10

    def test_spec_stages(self):
        spec = network_for_setup("fig1", 4)
        assert [s.kind for s in spec.stages] == ["bs_hadamard"]
        assert all(m.pol is None for m in spec.stages[0].unitary.in_modes)


class TestEvolutionArchetypes:
    @pytest.mark.parametrize("x", range(4))
    def test_identical_paths_bunch(self, x):
        # |x>_A |x>_B -> |x>_a|x>_a - |x>_b|x>_b, probability 1/2 each side
        state = TwoPhotonState.from_kets(4, [(Mode(A, x), Mode(B, x), 1.0)])
        out = evolve(state, network_for_setup("fig1", 4).unitary)
        assert out.support == {
            (Mode(A, x), Mode(A, x)),
            (Mode(B, x), Mode(B, x)),
        }
        assert out.amplitude(Mode(A, x), Mode(A, x)) == pytest.approx(INV_SQRT2)
        assert out.amplitude(Mode(B, x), Mode(B, x)) == pytest.approx(-INV_SQRT2)

    @pytest.mark.parametrize("x,y", [(0, 1), (0, 2), (1, 3), (2, 3)])
    def test_symmetric_pairs_stay_same_arm(self, x, y):
        state = TwoPhotonState.from_kets(
            4, [(Mode(A, x), Mode(B, y), INV_SQRT2), (Mode(A, y), Mode(B, x), INV_SQRT2)]
        )
        out = evolve(state, network_for_setup("fig1", 4).unitary)
        assert out.support == {
            (Mode(A, x), Mode(A, y)),
            (Mode(B, x), Mode(B, y)),
        }

    @pytest.mark.parametrize("x,y", [(0, 1), (0, 3), (1, 2)])
    def test_antisymmetric_pairs_split_arms(self, x, y):
        state = TwoPhotonState.from_kets(
            4, [(Mode(A, x), Mode(B, y), INV_SQRT2), (Mode(A, y), Mode(B, x), -INV_SQRT2)]
        )
        out = evolve(state, network_for_setup("fig1", 4).unitary)
        assert out.support == {
            (Mode(A, x), Mode(B, y)),
            (Mode(A, y), Mode(B, x)),
        }

    def test_identity_network_is_a_no_op(self):
        state = make_bell_state(4, BellIndex(3, 1, 0))
        identity = SinglePhotonUnitary.identity(path_modes(4))
        assert evolve(state, identity).approx_equal(state, up_to_phase=False)

    def test_mode_mismatch_rejected(self):
        state = make_hyper_state(BellIndex(0, 0, 0))
        with pytest.raises(ValueError):
            evolve(state, network_for_setup("fig1", 4).unitary)

    def test_paths_outside_the_network_rejected(self):
        # A d=4 state has photons on paths 2 and 3, which a d=2 network lacks.
        state = make_bell_state(4, BellIndex(2, 0, 0))
        with pytest.raises(ValueError, match="not covered"):
            evolve(state, network_for_setup("fig1", 2).unitary)

    def test_network_of_a_larger_dimension_rejected(self):
        # every mode of the d=4 state is an input of the d=8 network, but the
        # evolved state would have photons on paths 4..7
        state = make_bell_state(4, BellIndex(1, 0, 0))
        with pytest.raises(ValueError, match="outside dimension"):
            evolve(state, network_for_setup("fig1", 8).unitary)


class TestEvolutionProperties:
    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(11)
        basis = path_modes(4)
        net = network_for_setup("fig1", 4).unitary
        for _ in range(20):
            state = random_two_photon_state(4, basis, rng)
            assert abs(evolve(state, net).norm() - 1.0) < 1e-9

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_oracle_equivalence_random(self, dim):
        # matrix sandwich vs first-quantized kron oracle
        rng = np.random.default_rng(100 + dim)
        basis = path_modes(dim)
        for _ in range(40):
            state = random_two_photon_state(dim, basis, rng)
            net = random_unitary(basis, rng)
            evolved = evolve(state, net)
            expected = oracle_evolve(state, net)
            keys = set(evolved.amps) | set(expected)
            for key in keys:
                got = evolved.amps.get(key, 0.0)
                want = expected.get(key, 0.0)
                assert abs(got - want) < 1e-10

    @pytest.mark.parametrize("dim", [8, 16])
    def test_oracle_equivalence_on_the_benchmark_sizes(self, dim):
        # every state all_bell_indices(dim) builds, through fig1; kron(U, U)
        # is 1024 x 1024 at d=16 (d=32 would need 256 MB and is left out)
        net = network_for_setup("fig1", dim).unitary
        for idx in all_bell_indices(dim):
            state = make_bell_state(dim, idx)
            evolved = evolve(state, net)
            expected = oracle_evolve(state, net)
            assert set(evolved.amps) == set(expected)
            for key, amp in expected.items():
                assert abs(evolved.amps[key] - amp) < 1e-10

    def test_network_basis_in_another_order(self):
        # the state is re-indexed onto the network's input basis
        rng = np.random.default_rng(7)
        basis = path_modes(4)[::-1]
        net = random_unitary(basis, rng)
        state = make_bell_state(4, BellIndex(3, 1, 1))
        evolved = evolve(state, net)
        expected = {canonical_pair(*key): a for key, a in oracle_evolve(state, net).items()}
        assert set(evolved.amps) == set(expected)
        for key, amp in expected.items():
            assert abs(evolved.amps[key] - amp) < 1e-10

    def test_oracle_equivalence_on_the_measurement_networks(self):
        for idx in all_bell_indices(4):
            state = make_bell_state(4, BellIndex(idx.j, idx.n, idx.m))
            evolved = evolve(state, network_for_setup("fig1", 4).unitary)
            expected = oracle_evolve(state, network_for_setup("fig1", 4).unitary)
            for key in set(evolved.amps) | set(expected):
                assert abs(evolved.amps.get(key, 0.0) - expected.get(key, 0.0)) < 1e-10
            hyper = make_hyper_state(idx)
            evolved = evolve(hyper, network_for_setup("fig2").unitary)
            expected = oracle_evolve(hyper, network_for_setup("fig2").unitary)
            for key in set(evolved.amps) | set(expected):
                assert abs(evolved.amps.get(key, 0.0) - expected.get(key, 0.0)) < 1e-10

    def test_hom_bunching_no_cross_arm_amplitude(self):
        net = network_for_setup("fig1", 4).unitary
        for x in range(4):
            state = TwoPhotonState.from_kets(4, [(Mode(A, x), Mode(B, x), 1.0)])
            out = evolve(state, net)
            assert all(m1.arm == m2.arm for (m1, m2) in out.support)

    def test_exchange_symmetry_dichotomy_over_component_pairs(self):
        # (|xy> + s|yx>)/sqrt(2): same-arm support iff s=+1, cross-arm iff s=-1
        net = network_for_setup("fig1", 4).unitary
        for x in range(4):
            for y in range(x + 1, 4):
                for s in (1.0, -1.0):
                    state = TwoPhotonState.from_kets(
                        4,
                        [(Mode(A, x), Mode(B, y), INV_SQRT2), (Mode(A, y), Mode(B, x), s * INV_SQRT2)],
                    )
                    patterns = {arm_pattern(p) for p in evolve(state, net).support}
                    assert patterns == ({(A, A), (B, B)} if s > 0 else {(A, B)})

    def test_exchange_symmetry_dichotomy_over_bell_states(self):
        net = network_for_setup("fig1", 4).unitary
        for idx in all_bell_indices(4):
            state = make_bell_state(4, idx)
            swapped = TwoPhotonState.from_amplitudes(
                4,
                {
                    (Mode(B if m1.arm == A else A, m1.path), Mode(B if m2.arm == A else A, m2.path)): a
                    for (m1, m2), a in state.amps.items()
                },
            )
            symmetric = state.approx_equal(swapped, up_to_phase=False)
            patterns = {arm_pattern(p) for p in evolve(state, net).support}
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
            assert evolve(state, plus_first).support == evolve(state, swapped).support


class TestFig2Network:
    def test_network_for_setup_is_built_once_and_read_only(self):
        net = network_for_setup("fig2")
        assert network_for_setup("fig2") is net
        with pytest.raises(ValueError):
            net.unitary.matrix[0, 0] = 0.0

    def test_composed_matrix_unitary(self):
        net = network_for_setup("fig2").unitary
        assert net.dim == 16
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
        out = evolve(state, stage)
        for (m1, m2), amp in state.amps.items():
            sign = -1.0 if m1.pol == "V" else 1.0
            assert out.amplitude(m1, m2) == pytest.approx(sign * amp)

    def test_rail_swap_preserves_ancilla_sign_for_even_phase_bit(self):
        stage = network_for_setup("fig2").stages[0].unitary
        state = make_hyper_state(BellIndex(2, 0, 0))
        assert evolve(state, stage).approx_equal(state, up_to_phase=False)

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
        expected = TwoPhotonState.from_kets(
            4, [(Mode(*m1), Mode(*m2), c) for m1, m2, c in terms]
        )
        out = evolve(make_hyper_state(BellIndex(2, 1, 0)), network_for_setup("fig2").unitary)
        assert out.approx_equal(expected, up_to_phase=False, tol=1e-10)


class TestIdentitySemantics:
    def test_unitaries_compare_and_hash_by_identity(self):
        fig1 = network_for_setup("fig1", 4).unitary
        identity = SinglePhotonUnitary.identity(path_modes(4))
        assert fig1 == fig1 and fig1 != identity
        assert len({fig1, identity, fig1}) == 2

    def test_stages_compare_and_hash_by_kind_and_unitary_object(self):
        fig1 = network_for_setup("fig1", 4).unitary
        stage = NetworkStage("bs_hadamard", fig1)
        assert stage == NetworkStage("bs_hadamard", fig1)
        assert hash(stage) == hash(NetworkStage("bs_hadamard", fig1))
        assert stage != NetworkStage("bs_hadamard", SinglePhotonUnitary.identity(path_modes(4)))

    def test_specs_compare_and_hash_by_fields(self):
        spec = network_for_setup("fig1", 4)
        same = NetworkSpec(spec.setup, spec.dim, spec.stages)
        assert spec == same and hash(spec) == hash(same)
        assert len({spec, same, network_for_setup("fig1", 8), network_for_setup("fig2")}) == 3
