"""Tests for the distinguishability partition and channel capacities."""

import dataclasses
import json
import math
import random

import numpy as np
import pytest

from bellsort import (
    BellIndex,
    GroupTable,
    StateGroup,
    all_bell_indices,
    channel_capacity,
    classify,
    load_reference_tables,
    diff_against_reference,
    evolve,
    make_bell_state,
    grouping,
    network_for_setup,
    outcome_distribution,
    run_sdc,
    SdcConfig,
)
from bellsort.detection import outcome_labels
from bellsort.grouping import compute_table
from bellsort.modes import path_modes
from bellsort.networks import labelled_states, prepared_state

REFERENCE = load_reference_tables()


def outcomes_after(state, network):
    """The labels of the outcomes ``state`` can give after ``network``."""
    return frozenset(outcome_distribution(evolve(state, network)))


def as_content(table):
    return {frozenset(g.members): g.support for g in table.groups}


def assert_supports_hold_the_shared_outcomes(table, network, model):
    shared = {id(o) for o in outcome_labels(network.unitary.out_modes, model).tolist() if o is not None}
    assert {id(o) for g in table.groups for o in g.support} <= shared


class TestTableReproduction:
    def test_fig1_reproduces_reference_table(self):
        table = compute_table("fig1", 4, "pnrd", "strict")
        assert len(table.groups) == 7
        assert diff_against_reference(table, REFERENCE.tables["fig1"]) == []
        # the 7-row enumeration order also matches the reference numbering
        for group, ref in zip(table.groups, REFERENCE.tables["fig1"].groups, strict=True):
            assert frozenset(group.members) == frozenset(ref.members)
            assert group.support == ref.support

    def test_fig2_reproduces_reference_table(self):
        table = compute_table("fig2", 4, "pnrd", "strict")
        assert len(table.groups) == 12
        assert diff_against_reference(table, REFERENCE.tables["fig2"]) == []
        assert as_content(table) == as_content(REFERENCE.tables["fig2"])

    def test_fig2_matches_its_closed_form(self):
        expected = {frozenset(members) for members in closed_form_groups("fig2", all_bell_indices(4))}
        assert len(expected) == 12
        assert closed_form_mismatches([("fig2", 4)]) == []

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
    def test_the_sdc_table_equals_classify(self, setup, model, policy):
        # classify partitions evolved Bell states; run_sdc the distributions of encoded messages
        network = network_for_setup(setup, 4)
        table = classify(labelled_states(setup, 4), network, model, policy)
        sdc_table = run_sdc(SdcConfig(setup, model, policy, shots=1)).table
        assert sdc_table == table
        assert_supports_hold_the_shared_outcomes(sdc_table, network, model)

    def test_duplicate_labels_rejected(self):
        # GroupTable rejects a repeated label, whether its copies share a group or not
        network = network_for_setup("fig1", 4)
        state = make_bell_state(4, BellIndex(0, 0, 0))
        with pytest.raises(ValueError, match=r"group 1 repeats a member: \['x', 'x'\]"):
            classify([("x", state), ("x", state)], network)
        other = make_bell_state(4, BellIndex(2, 0, 0))
        with pytest.raises(ValueError, match=r"groups do not partition the state labels: \['x'\] repeat"):
            classify([("x", state), ("x", other)], network)


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
        network = network_for_setup(setup, 4).unitary
        states = dict(labelled_states(setup, 4))
        table = compute_table(setup, 4, "pnrd", "strict")
        for group in table.groups:
            member_supports = {outcomes_after(states[m], network) for m in group.members}
            assert len(member_supports) == 1
            assert member_supports.pop() == group.support

    @pytest.mark.parametrize("setup", ["fig1", "fig2"])
    def test_only_the_first_group_needs_number_resolution(self, setup):
        table = compute_table(setup, 4, "pnrd", "strict")
        flagged = [
            g.index for g in table.groups if any(len(set(o.split())) < 2 for o in g.support)
        ]
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
        for setup in ("fig1", "fig2"):
            network = network_for_setup(setup, 4).unitary
            states = dict(labelled_states(setup, 4))
            table = compute_table(setup, 4, "pnrd", "strict")
            for group in table.groups:
                members = list(group.members)
                if len(members) < 2:
                    continue
                supports = {m: outcomes_after(states[m], network) for m in members}
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


def fig2_closed_form_key(idx):
    """fig2 also reveals the phase bit n, which its PBS rail swap reads.

    An independent gate on table2: the beam splitters read the parity of
    the signs over j's bits (j0, j1), so psi<j><n><m> has key (0, n) for
    j = 0 and (j, (n*j0 + m*j1) mod 2, n) otherwise.
    """
    if idx.j == 0:
        return (0, idx.n)
    return (idx.j, (idx.n * (idx.j & 1) + idx.m * (idx.j >> 1)) % 2, idx.n)


CLOSED_FORM_KEYS = {"fig1": fig1_closed_form_key, "fig2": fig2_closed_form_key}
CLOSED_FORM_CASES = [("fig1", 4), ("fig1", 8), ("fig1", 16), ("fig1", 32), ("fig2", 4)]


def closed_form_groups(setup, indices):
    """Labels grouped by the setup's closed-form key, numbered and ordered by first member."""
    groups: dict = {}
    for idx in indices:
        groups.setdefault(CLOSED_FORM_KEYS[setup](idx), []).append(idx.label)
    return [tuple(members) for members in groups.values()]


def closed_form_mismatches(cases=CLOSED_FORM_CASES, shuffled=False):
    """The (setup, dim) cases whose pnrd/strict table is not their closed form.

    ``shuffled`` feeds the states in a seeded random order; groups are then
    numbered by first member in that order, members kept in it.
    """
    mismatches = []
    for setup, dim in cases:
        indices = list(all_bell_indices(dim))
        if shuffled:
            random.Random(dim).shuffle(indices)
        states = [(idx.label, prepared_state(setup, dim, idx)) for idx in indices]
        table = classify(states, network_for_setup(setup, dim))
        expected = list(enumerate(closed_form_groups(setup, indices), start=1))
        if [(g.index, g.members) for g in table.groups] != expected:
            mismatches.append((setup, dim))
    return mismatches


def pairwise_partition(labelled, table):
    """(members, support) per group, by searching every pair of supports for a shared outcome.

    Groups are found from their first member in input order, as grouping.partition numbers them.
    """
    supports = [frozenset(table[i] for i in ids) for _, ids in labelled]
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


ID_CONTAINERS = {
    "list": list,
    "int32": lambda ids: np.array(ids, dtype=np.int32),
    "intp": lambda ids: np.array(ids, dtype=np.intp),
}


def pairwise_search_mismatches(model):
    """The cases, as (case, container), where grouping.partition differs from a pairwise search.

    Forty seeded random families over the outcomes of 16 modes, each with
    ids in random order, then (case 40) a chain of 100 states, each sharing
    one outcome with the next, with ids in decreasing order: one group,
    which takes the partition 8 rounds, more than any random family (1-5),
    and (case 41) an empty state before and after one outcome, each empty
    state its own group: an empty list of ids is float64 in numpy.
    Each is partitioned with the ids as a list, an int32 array and an intp
    array. The search reads the same ids as Python ints, and flags the
    quarantine by its own rule: a label with no space is a single click.
    """
    basis = path_modes(8)
    size = len(basis)
    upper = np.array([i * size + k for i in range(size) for k in range(i, size)])
    table = outcome_labels(basis, model)
    rng = np.random.default_rng(9)
    families = []
    for _ in range(40):
        pool = rng.choice(upper, size=rng.integers(4, len(upper)), replace=False)
        labelled = []
        for s in range(rng.integers(1, 40)):
            ids = rng.choice(pool, size=rng.integers(1, 6), replace=False)
            labelled.append((f"s{s}", ids.tolist()))
        families.append(labelled)
    chain = upper[100::-1].tolist()
    families.append([(f"c{s}", chain[s : s + 2]) for s in range(100)])
    families.append([("e0", []), ("e1", chain[:1]), ("e2", [])])
    mismatches = []
    for case, labelled in enumerate(families):
        expected = pairwise_partition(labelled, table)
        quarantined = [model == "threshold" and any(" " not in o for o in support) for _, support in expected]
        for name, container in ID_CONTAINERS.items():
            got = grouping.partition(
                [(label, container(ids)) for label, ids in labelled], table, "fig1", model, "loss_conservative"
            )
            if [(g.members, g.support) for g in got.groups] != expected or [
                g.quarantined for g in got.groups
            ] != quarantined:
                mismatches.append((case, name))
    return mismatches


class TestPartitionAtScale:
    @pytest.mark.parametrize("shuffled", [False, True], ids=["enumerated", "shuffled"])
    @pytest.mark.parametrize("dim,expected_groups", [(8, 14), (16, 28), (32, 56)])
    def test_fig1_matches_its_closed_form(self, dim, expected_groups, shuffled):
        # every nonzero j splits into two groups except those with
        # j0 = j1 = 0 (j = 4, 8, ...), whose states all have parity 0
        assert len(closed_form_groups("fig1", all_bell_indices(dim))) == expected_groups
        assert closed_form_mismatches([("fig1", dim)], shuffled) == []

    def test_shuffled_d32_groups_hold_the_shared_outcomes(self):
        indices = list(all_bell_indices(32))
        random.Random(5).shuffle(indices)
        states = [(idx.label, make_bell_state(32, idx)) for idx in indices]
        network = network_for_setup("fig1", 32)
        table = classify(states, network)
        assert len(states) == 128 and len(table.groups) == 56
        assert_supports_hold_the_shared_outcomes(table, network, "pnrd")

    def test_shuffled_d64_family_equals_a_pairwise_search_and_its_closed_form(self):
        indices = list(all_bell_indices(64))
        random.Random(64).shuffle(indices)
        states = [(idx.label, make_bell_state(64, idx)) for idx in indices]
        network = network_for_setup("fig1", 64)
        table = classify(states, network)
        labelled = [(label, evolve(state, network.unitary).ids.tolist()) for label, state in states]
        expected = pairwise_partition(labelled, outcome_labels(network.unitary.out_modes, "pnrd"))
        assert len(states) == 256 and len(table.groups) == 112
        assert [(g.members, g.support) for g in table.groups] == expected
        assert [g.members for g in table.groups] == closed_form_groups("fig1", indices)

    @pytest.mark.parametrize("model", ["pnrd", "threshold"])
    def test_partition_equals_a_pairwise_search(self, model):
        assert pairwise_search_mismatches(model) == []


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
        with pytest.raises(ValueError, match="unknown policy 'bogus'"):
            classify(states, network, "pnrd", "bogus")
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
        quarantined = StateGroup(1, ("psi000",), frozenset({"A0"}), quarantined=True)
        table = GroupTable("fig1", "threshold", "loss_conservative", (quarantined,))
        with pytest.raises(ValueError, match="no usable groups, capacity undefined"):
            channel_capacity(table)


class TestSerialization:
    @pytest.mark.parametrize("setup", ["fig1", "fig2"])
    def test_group_table_round_trip(self, setup):
        # written as JSON and not read back: the written form must survive
        # json unchanged and carry every group of the table
        table = compute_table(setup, 4, "threshold", "loss_conservative")
        data = table.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert (data["setup"], data["model"], data["policy"]) == (
            setup, "threshold", "loss_conservative"
        )
        written = [
            (g["id"], tuple(g["members"]), frozenset(g["outcomes"]), g["quarantined"])
            for g in data["groups"]
        ]
        assert written == [
            (g.index, g.members, g.support, g.quarantined)
            for g in table.groups
        ]

    def test_invalid_partition_rejected(self):
        g1 = StateGroup(1, ("a",), frozenset({"A0 A1"}))
        g2 = StateGroup(2, ("a",), frozenset({"A2 A3"}))
        with pytest.raises(ValueError, match=r"groups do not partition the state labels: \['a'\] repeat"):
            GroupTable("fig1", "pnrd", "strict", (g1, g2))
        g3 = StateGroup(2, ("b",), frozenset({"A0 A1"}))
        with pytest.raises(ValueError, match=r"group supports are not pairwise disjoint: \['A0 A1'\] repeat"):
            GroupTable("fig1", "pnrd", "strict", (g1, g3))
        g4 = StateGroup(2, ("b", "c", "b"), frozenset({"A2 A3"}))
        with pytest.raises(ValueError, match=r"group 2 repeats a member: \['b', 'c', 'b'\]"):
            GroupTable("fig1", "pnrd", "strict", (g1, g4))
        assert GroupTable("fig1", "pnrd", "strict", (g1, StateGroup(2, ("b", "c"), frozenset({"A2 A3"})))).groups
