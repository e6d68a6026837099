"""Tests for the distinguishability partition and channel capacities."""

import dataclasses
import math
import random

import numpy as np
import pytest

from bellsort import (
    BellIndex,
    GroupTable,
    StateGroup,
    Outcome,
    OutcomeDistribution,
    all_bell_indices,
    channel_capacity,
    classify,
    load_reference_tables,
    diff_against_reference,
    make_bell_state,
    grouping,
    network_for_setup,
)
from bellsort.cli import compute_table, labelled_states
from bellsort.detection import outcome_table
from bellsort.grouping import distributions, partition
from bellsort.modes import path_modes

REFERENCE = load_reference_tables()


def as_content(table):
    return {
        frozenset(g.members): frozenset(o.label for o in g.support) for g in table.groups
    }


def assert_supports_hold_the_shared_outcomes(table, network, model):
    shared = {id(o) for o in outcome_table(network.unitary.out_modes, model).values()}
    assert {id(o) for g in table.groups for o in g.support} <= shared


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

    @pytest.mark.parametrize("policy", ["strict", "loss_conservative"])
    @pytest.mark.parametrize("model", ["pnrd", "threshold"])
    @pytest.mark.parametrize("setup", ["fig1", "fig2"])
    def test_partition_of_the_distributions_equals_classify(self, setup, model, policy):
        # classify partitions evolved support ids; partition reads full distributions
        states = labelled_states(setup, 4)
        network = network_for_setup(setup, 4)
        table = classify(states, network, model, policy)
        assert table == partition(distributions(states, network, model), setup, policy)
        assert_supports_hold_the_shared_outcomes(table, network, model)

    def test_partition_of_a_single_distribution_from_a_mapping(self):
        from bellsort import OutcomeDistribution
        from bellsort.grouping import partition

        dist = OutcomeDistribution.from_probs("threshold", {Outcome.from_label("A0"): 1.0})
        table = partition([("psi000", dist)], "fig1", "loss_conservative")
        assert table.groups[0].quarantined

    def test_partition_needs_one_output_basis(self):
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
        assert sorted(label for g in table.groups for label in g.members) == sorted(labels)
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
        flagged = [g.index for g in table.groups if any(o.is_bunched for o in g.support)]
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


def fig1_closed_form_key(idx):
    """fig1 reveals the pair class j and, for j != 0, the exchange parity (n*j0 + m*j1) mod 2."""
    if idx.j == 0:
        return (0,)
    return (idx.j, (idx.n * (idx.j & 1) + idx.m * ((idx.j >> 1) & 1)) % 2)


def pairwise_partition(labelled):
    """(members, support) per group, by searching every pair of supports for a shared outcome.

    Groups are found from their first member in input order, as partition numbers them.
    """
    supports = [dist.support for _, dist in labelled]
    placed: set[int] = set()
    groups = []
    for start in range(len(supports)):
        if start in placed:
            continue
        placed.add(start)
        members, frontier = [start], [start]
        while frontier:
            current = frontier.pop()
            for other in range(len(supports)):
                if other not in placed and supports[current] & supports[other]:
                    placed.add(other)
                    members.append(other)
                    frontier.append(other)
        members.sort()
        groups.append(
            (
                tuple(labelled[i][0] for i in members),
                frozenset().union(*(supports[i] for i in members)),
            )
        )
    return groups


class TestPartitionAtScale:
    @pytest.mark.parametrize("shuffled", [False, True], ids=["enumerated", "shuffled"])
    @pytest.mark.parametrize("dim,expected_groups", [(8, 14), (16, 28), (32, 56)])
    def test_fig1_matches_its_closed_form(self, dim, expected_groups, shuffled):
        # every nonzero j splits into two groups except those with
        # j0 = j1 = 0 (j = 4, 8, ...), whose states all have parity 0
        indices = list(all_bell_indices(dim))
        if shuffled:
            random.Random(dim).shuffle(indices)
        table = classify(
            [(idx.label, make_bell_state(dim, idx)) for idx in indices], network_for_setup("fig1", dim)
        )
        closed_form: dict = {}
        for idx in indices:
            closed_form.setdefault(fig1_closed_form_key(idx), []).append(idx.label)
        # numbered by first member in input order, members in input order
        assert [g.members for g in table.groups] == [tuple(m) for m in closed_form.values()]
        assert [g.index for g in table.groups] == list(range(1, expected_groups + 1))

    def test_classify_equals_the_partition_of_the_distributions(self):
        indices = list(all_bell_indices(32))
        random.Random(5).shuffle(indices)
        states = [(idx.label, make_bell_state(32, idx)) for idx in indices]
        network = network_for_setup("fig1", 32)
        table = classify(states, network)
        assert len(states) == 128 and len(table.groups) == 56
        assert table == partition(distributions(states, network), "fig1")
        assert_supports_hold_the_shared_outcomes(table, network, "pnrd")

    @pytest.mark.parametrize("model", ["pnrd", "threshold"])
    def test_partition_equals_a_pairwise_search(self, model):
        basis = path_modes(8)
        size = len(basis)
        upper = np.array([i * size + k for i in range(size) for k in range(i, size)])
        table = outcome_table(basis, model)
        rng = np.random.default_rng(9)
        for _ in range(40):
            pool = rng.choice(upper, size=rng.integers(4, len(upper)), replace=False)
            labelled = []
            for s in range(rng.integers(1, 40)):
                ids = rng.choice(pool, size=rng.integers(1, 6), replace=False)
                dist = OutcomeDistribution(model, table, ids, np.full(len(ids), 1 / len(ids)))
                labelled.append((f"s{s}", dist))
            got = partition(labelled, "fig1", "loss_conservative")
            expected = pairwise_partition(labelled)
            assert [(g.members, g.support) for g in got.groups] == expected
            assert [g.quarantined for g in got.groups] == [
                model == "threshold" and any(o.is_single_click for o in support) for _, support in expected
            ]


class TestClassifyInputErrors:
    def test_empty_input(self):
        with pytest.raises(ValueError, match="no states to classify"):
            classify([], network_for_setup("fig1", 4))

    def test_unknown_model_fails_before_any_evolution(self, monkeypatch):
        evolved = []
        evolve = grouping.evolve
        monkeypatch.setattr(grouping, "evolve", lambda *args: evolved.append(args) or evolve(*args))
        states, network = labelled_states("fig1", 4), network_for_setup("fig1", 4)
        with pytest.raises(ValueError, match="unknown detector model 'ideal'"):
            classify(states, network, "ideal")
        assert evolved == []
        classify(states[:2], network)  # the counter sees evolutions
        assert len(evolved) == 2

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy 'lenient'"):
            classify(labelled_states("fig1", 4), network_for_setup("fig1", 4), "pnrd", "lenient")

    def test_output_basis_before_the_analyzers(self):
        # fig2 without its PBS@45 stage ends in the H/V basis, where no detector sits
        full = network_for_setup("fig2", 4)
        truncated = dataclasses.replace(full, stages=full.stages[:2])
        with pytest.raises(ValueError, match="not in a detector basis"):
            classify(labelled_states("fig2", 4), truncated)


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
