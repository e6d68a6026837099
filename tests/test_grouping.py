"""Tests for the distinguishability partition and channel capacities."""

import math

import numpy as np
import pytest

from bellsort import (
    BellIndex,
    GroupTable,
    StateGroup,
    Outcome,
    all_bell_indices,
    channel_capacity,
    classify,
    load_reference_tables,
    diff_against_reference,
    make_bell_state,
    network_for_setup,
)
from bellsort.cli import compute_table, labelled_states

REFERENCE = load_reference_tables()


def as_content(table):
    return {
        frozenset(g.members): frozenset(o.label for o in g.support) for g in table.groups
    }


class TestTableReproduction:
    def test_fig1_reproduces_reference_table(self):
        table = compute_table("fig1", 4, "pnrd", "strict")
        assert len(table.groups) == 7
        assert diff_against_reference(table, REFERENCE.groups_for("fig1")) == []
        # the 7-row enumeration order also matches the reference numbering
        for group, ref in zip(table.groups, REFERENCE.groups_for("fig1")):
            assert frozenset(group.members) == ref.members
            assert {o.label for o in group.support} == set(ref.outcomes)

    def test_fig2_reproduces_reference_table(self):
        table = compute_table("fig2", 4, "pnrd", "strict")
        assert len(table.groups) == 12
        assert diff_against_reference(table, REFERENCE.groups_for("fig2")) == []
        assert as_content(table) == {
            ref.members: ref.outcomes for ref in REFERENCE.groups_for("fig2")
        }

    def test_fig2_matches_its_closed_form(self):
        # An independent gate on table2: the PBS rail swap reads the phase bit
        # n, and the beam splitters the parity of the signs over j's bits
        # (j0, j1), so psi<j><n><m> has key (0, n) for j = 0 and
        # (j, (n*j0 + m*j1) mod 2, n) otherwise.
        def key(idx):
            if idx.j == 0:
                return (0, idx.n)
            return (idx.j, (idx.n * (idx.j & 1) + idx.m * (idx.j >> 1)) % 2, idx.n)

        closed_form: dict = {}
        for idx in all_bell_indices(4):
            closed_form.setdefault(key(idx), set()).add(idx.label)
        expected = {frozenset(members) for members in closed_form.values()}
        assert len(expected) == 12

        strict = compute_table("fig2", 4, "pnrd", "strict")
        assert {frozenset(g.members) for g in strict.groups} == expected

        lossy = compute_table("fig2", 4, "threshold", "loss_conservative")
        assert {frozenset(g.members) for g in lossy.groups} == expected
        quarantined = [set(g.members) for g in lossy.groups if g.quarantined]
        assert quarantined == [{"psi000", "psi001"}]
        assert len(lossy.usable_groups) == 11

    def test_classify_takes_the_setup_from_the_network(self):
        for setup in ("fig1", "fig2"):
            network = network_for_setup(setup, 4)
            assert classify(labelled_states(setup, 4), network).setup == setup
            assert network.unitary is network.unitary
            product = network.stages[0].unitary.matrix
            for stage in network.stages[1:]:
                product = stage.unitary.matrix @ product
            assert np.array_equal(network.unitary.matrix, product)
            assert network.unitary.in_modes == network.stages[0].unitary.in_modes
            assert network.unitary.out_modes == network.stages[-1].unitary.out_modes

    def test_d2_baseline_three_groups(self):
        table = compute_table("fig1", 2, "pnrd", "strict")
        memberships = {frozenset(g.members) for g in table.groups}
        assert memberships == {
            frozenset({"psi000", "psi010"}),  # both parity states bunch
            frozenset({"psi100"}),            # symmetric, same arm
            frozenset({"psi110"}),            # antisymmetric, split arms
        }

    def test_single_state_input(self):
        states = [("psi210", make_bell_state(4, BellIndex(2, 1, 0)))]
        table = classify(states, network_for_setup("fig1", 4))
        assert len(table.groups) == 1
        assert table.groups[0].members == ("psi210",)

    def test_partition_of_the_distributions_equals_classify(self):
        from bellsort.grouping import distributions, partition

        states = labelled_states("fig2", 4)
        network = network_for_setup("fig2")
        table = classify(states, network, "threshold", "loss_conservative")
        split = partition(distributions(states, network, "threshold"), "fig2", "loss_conservative")
        assert split == table

    def test_partition_of_a_single_distribution_from_a_mapping(self):
        from bellsort import OutcomeDistribution
        from bellsort.grouping import partition

        dist = OutcomeDistribution.from_probs("threshold", {Outcome.from_label("A0"): 1.0})
        table = partition([("psi000", dist)], "fig1", "loss_conservative")
        assert table.groups[0].quarantined

    def test_partition_needs_one_output_basis(self):
        from bellsort.grouping import distributions, partition

        d4 = distributions(labelled_states("fig1", 4)[:1], network_for_setup("fig1", 4))
        d2 = distributions([("other", make_bell_state(2, BellIndex(1, 0, 0)))], network_for_setup("fig1", 2))
        with pytest.raises(ValueError, match="one output basis"):
            partition(d4 + d2, "fig1")

    def test_duplicate_labels_rejected(self):
        state = make_bell_state(4, BellIndex(0, 0, 0))
        with pytest.raises(ValueError):
            classify([("x", state), ("x", state)], network_for_setup("fig1", 4))


class TestPartitionProperties:
    @pytest.mark.parametrize("setup,dim", [("fig1", 4), ("fig2", 4), ("fig1", 2)])
    def test_partition_is_valid(self, setup, dim):
        table = compute_table(setup, dim, "pnrd", "strict")
        labels = [label for label, _ in labelled_states(setup, dim)]
        assert sorted(table.labels) == sorted(labels)
        supports = [g.support for g in table.groups]
        for i in range(len(supports)):
            for k in range(i + 1, len(supports)):
                assert not (supports[i] & supports[k])

    @pytest.mark.parametrize("setup", ["fig1", "fig2"])
    def test_members_of_a_group_share_their_support(self, setup):
        from bellsort import evolve, outcome_distribution

        network = network_for_setup(setup).unitary
        states = dict(labelled_states(setup, 4))
        table = compute_table(setup, 4, "pnrd", "strict")
        for group in table.groups:
            member_supports = {
                outcome_distribution(evolve(states[m], network)).support
                for m in group.members
            }
            assert len(member_supports) == 1
            assert member_supports.pop() == group.support

    @pytest.mark.parametrize("setup", ["fig1", "fig2"])
    def test_only_the_first_group_needs_number_resolution(self, setup):
        table = compute_table(setup, 4, "pnrd", "strict")
        flagged = [g.index for g in table.groups if g.needs_number_resolution]
        assert flagged == [1]

    def test_fig2_refines_fig1(self):
        coarse = compute_table("fig1", 4, "pnrd", "strict")
        fine = compute_table("fig2", 4, "pnrd", "strict")
        assert len(fine.groups) >= len(coarse.groups)
        fine_memberships = [set(g.members) for g in fine.groups]
        for group in coarse.groups:
            parts = [m for m in fine_memberships if m <= set(group.members)]
            assert set().union(*parts) == set(group.members)

    def test_groups_are_maximal(self):
        # splitting any group further would leave intersecting supports
        # across the split, i.e. each group is connected in the
        # confusability graph
        from bellsort import evolve, outcome_distribution

        for setup in ("fig1", "fig2"):
            network = network_for_setup(setup).unitary
            states = dict(labelled_states(setup, 4))
            table = compute_table(setup, 4, "pnrd", "strict")
            for group in table.groups:
                members = list(group.members)
                if len(members) < 2:
                    continue
                supports = {
                    m: outcome_distribution(evolve(states[m], network)).support
                    for m in members
                }
                reached = {members[0]}
                frontier = [members[0]]
                while frontier:
                    current = frontier.pop()
                    for other in members:
                        if other not in reached and supports[current] & supports[other]:
                            reached.add(other)
                            frontier.append(other)
                assert reached == set(members)


class TestPoliciesAndCapacity:
    def test_capacities_match_closed_forms(self):
        cases = [
            ("fig1", "pnrd", "strict", 7),
            ("fig1", "threshold", "loss_conservative", 6),
            ("fig2", "pnrd", "strict", 12),
            ("fig2", "threshold", "loss_conservative", 11),
        ]
        for setup, model, policy, k in cases:
            cap = channel_capacity(compute_table(setup, 4, model, policy))
            assert abs(cap - math.log2(k)) < 1e-12

    def test_quoted_two_decimal_figures(self):
        for setup in ("fig1", "fig2"):
            for model, policy in (("pnrd", "strict"), ("threshold", "loss_conservative")):
                expected = REFERENCE.capacities[setup][model]
                cap = channel_capacity(compute_table(setup, 4, model, policy))
                assert abs(cap - math.log2(expected["groups"])) < 1e-12
                assert abs(cap - float(expected["bits_text"])) <= 0.01

    def test_loss_conservative_quarantines_only_the_bunched_group(self):
        table = compute_table("fig1", 4, "threshold", "loss_conservative")
        quarantined = [g for g in table.groups if g.quarantined]
        assert len(quarantined) == 1
        assert set(quarantined[0].members) == {"psi000", "psi001", "psi010", "psi011"}
        assert len(table.usable_groups) == 6

    def test_strict_threshold_keeps_all_groups(self):
        # ideal lossless threshold detectors still separate single clicks
        table = compute_table("fig1", 4, "threshold", "strict")
        assert len(table.groups) == 7
        assert len(table.usable_groups) == 7
        assert abs(channel_capacity(table) - math.log2(7)) < 1e-12

    def test_loss_conservative_with_pnrd_changes_nothing(self):
        table = compute_table("fig2", 4, "pnrd", "loss_conservative")
        assert len(table.usable_groups) == 12

    def test_empty_capacity_rejected(self):
        quarantined = StateGroup(
            1, ("psi000",), frozenset({Outcome.from_label("A0")}), quarantined=True
        )
        table = GroupTable("fig1", "threshold", "loss_conservative", (quarantined,))
        with pytest.raises(ValueError):
            channel_capacity(table)


class TestSerialization:
    @pytest.mark.parametrize("setup", ["fig1", "fig2"])
    def test_group_table_round_trip(self, setup):
        table = compute_table(setup, 4, "threshold", "loss_conservative")
        assert GroupTable.from_dict(table.to_dict()) == table

    def test_invalid_partition_rejected(self):
        g1 = StateGroup(1, ("a",), frozenset({Outcome.from_label("A0 A1")}))
        g2 = StateGroup(2, ("a",), frozenset({Outcome.from_label("A2 A3")}))
        with pytest.raises(ValueError):
            GroupTable("fig1", "pnrd", "strict", (g1, g2))
        g3 = StateGroup(2, ("b",), frozenset({Outcome.from_label("A0 A1")}))
        with pytest.raises(ValueError):
            GroupTable("fig1", "pnrd", "strict", (g1, g3))
