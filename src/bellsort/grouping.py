"""Distinguishability partition of Bell states and channel capacities.

Two encoded states can be told apart by a measurement setup exactly when
their detection-outcome supports are disjoint, so the distinguishable
groups are the connected components of the confusability graph (states as
vertices, edges where supports intersect). The channel capacity of the
resulting superdense-coding scheme is log2 of the number of usable groups.

Policies: ``strict`` counts every group. ``loss_conservative`` models
threshold (non-number-resolving) detectors that cannot certify two-photon
arrival: any group whose support contains a single-click outcome is
quarantined and excluded from the capacity count. With the beam-splitter
setup this drops exactly the bunched group (7 -> 6 usable groups); with
the ancilla-assisted setup 12 -> 11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .detection import (
    MODEL_PNRD,
    MODEL_THRESHOLD,
    Outcome,
    OutcomeDistribution,
    outcome_distribution,
)
from .networks import NetworkSpec, evolve
from .states import TwoPhotonState

POLICY_STRICT = "strict"
POLICY_LOSS_CONSERVATIVE = "loss_conservative"
POLICIES = (POLICY_STRICT, POLICY_LOSS_CONSERVATIVE)


@dataclass(frozen=True)
class StateGroup:
    """One distinguishable group: its members and their shared outcome support."""

    index: int
    members: tuple[str, ...]
    support: frozenset[Outcome]
    quarantined: bool = False

    @property
    def needs_number_resolution(self) -> bool:
        return any(o.is_bunched for o in self.support)


@dataclass(frozen=True)
class GroupTable:
    """A partition of state labels into groups with pairwise disjoint supports."""

    setup: str
    model: str
    policy: str
    groups: tuple[StateGroup, ...]

    def __post_init__(self) -> None:
        seen_members: set[str] = set()
        seen_outcomes: set[Outcome] = set()
        for group in self.groups:
            if seen_members & set(group.members):
                raise ValueError("groups do not partition the state labels")
            if seen_outcomes & group.support:
                raise ValueError("group supports are not pairwise disjoint")
            seen_members |= set(group.members)
            seen_outcomes |= group.support

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for group in self.groups for label in group.members)

    @property
    def usable_groups(self) -> tuple[StateGroup, ...]:
        # Built from a list: tuple(generator) allocates a guessed size and
        # resizes, so each call would park one tuple on the free list of its
        # final size, which only a full garbage collection empties.
        return tuple([g for g in self.groups if not g.quarantined])

    def group_of(self, label: str) -> StateGroup:
        for group in self.groups:
            if label in group.members:
                return group
        raise KeyError(label)

    def decoder(self) -> dict[Outcome, int]:
        """Outcome -> group index map; total over the union of supports."""
        return {o: g.index for g in self.groups for o in g.support}

    def to_dict(self) -> dict:
        return {
            "setup": self.setup,
            "model": self.model,
            "policy": self.policy,
            "groups": [
                {
                    "id": g.index,
                    "members": list(g.members),
                    "outcomes": sorted(o.label for o in g.support),
                    "quarantined": g.quarantined,
                }
                for g in self.groups
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GroupTable":
        groups = tuple(
            StateGroup(
                index=g["id"],
                members=tuple(g["members"]),
                support=frozenset(Outcome.from_label(lbl) for lbl in g["outcomes"]),
                quarantined=g.get("quarantined", False),
            )
            for g in data["groups"]
        )
        return cls(data["setup"], data["model"], data["policy"], groups)


def classify(
    states: Sequence[tuple[str, TwoPhotonState]],
    network: NetworkSpec,
    model: str = MODEL_PNRD,
    policy: str = POLICY_STRICT,
) -> GroupTable:
    """Partition labelled states into distinguishable groups under a setup.

    ``network`` is the :class:`NetworkSpec` from ``network_for_setup``; the
    table is labelled with its setup. Evolves every state, computes its
    outcome support, and returns the connected components of the
    confusability graph, numbered by first appearance in the input order.
    """
    return partition(distributions(states, network, model), network.setup, policy)


def distributions(
    states: Sequence[tuple[str, TwoPhotonState]],
    network: NetworkSpec,
    model: str = MODEL_PNRD,
) -> list[tuple[str, OutcomeDistribution]]:
    """Evolve every labelled state once through the network's unitary and detect it."""
    unitary = network.unitary
    return [(label, outcome_distribution(evolve(state, unitary), model)) for label, state in states]


def partition(
    labelled: Sequence[tuple[str, OutcomeDistribution]],
    setup: str,
    policy: str = POLICY_STRICT,
) -> GroupTable:
    """Group labelled distributions whose supports are connected by shared outcomes.

    The distributions must come from :func:`outcome_distribution` over one
    output basis and one detector model, so that equal outcome ids mean
    equal outcomes. Groups are numbered by their first member in input
    order; members keep input order.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if not labelled:
        raise ValueError("no states to classify")
    labels = [label for label, _ in labelled]
    if len(set(labels)) != len(labels):
        raise ValueError("state labels must be unique")
    dists = [dist for _, dist in labelled]
    table, model = dists[0].table, dists[0].model
    if any(dist.table is not table for dist in dists):
        raise ValueError("partition needs distributions of one output basis and detector model")

    parent = list(range(len(dists)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # Join every state to the first state that had one of its outcomes.
    first: dict[int, int] = {}
    for i, dist in enumerate(dists):
        for outcome_id in dist.ids.tolist():
            ri, rk = find(i), find(first.setdefault(outcome_id, i))
            if ri != rk:
                parent[max(ri, rk)] = min(ri, rk)

    # Roots are the smallest member index, so sorted roots number the groups.
    roots = [find(i) for i in range(len(dists))]
    members: dict[int, list[int]] = {}
    for i, root in enumerate(roots):
        members.setdefault(root, []).append(i)
    supports: dict[int, list[Outcome]] = {}
    for outcome_id, i in first.items():
        supports.setdefault(roots[i], []).append(table[outcome_id])

    groups = []
    for index, root in enumerate(sorted(members), start=1):
        support = frozenset(supports[root])
        quarantined = (
            policy == POLICY_LOSS_CONSERVATIVE
            and model == MODEL_THRESHOLD
            and any(o.is_single_click for o in support)
        )
        groups.append(
            StateGroup(
                index=index,
                members=tuple([labels[i] for i in members[root]]),  # see usable_groups
                support=support,
                quarantined=quarantined,
            )
        )
    return GroupTable(setup, model, policy, tuple(groups))


def channel_capacity(table: GroupTable) -> float:
    """Superdense-coding capacity in bits per photon: log2(usable groups)."""
    usable = len(table.usable_groups)
    if usable == 0:
        raise ValueError("no usable groups, capacity undefined")
    return math.log2(usable)
