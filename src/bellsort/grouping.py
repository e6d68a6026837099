"""Distinguishability partition of Bell states and channel capacities.

Two encoded states can be told apart by a measurement setup exactly when
their detection-outcome supports are disjoint, so the distinguishable
groups are the connected components of the confusability graph (states as
vertices, edges where supports intersect). The channel capacity of the
resulting superdense-coding scheme is log2 of the number of usable groups.

One function partitions outcome ids (see :mod:`bellsort.detection`):
:func:`classify` reads them from each evolved state and builds no
distribution; ``run_sdc`` reads them from the distributions it samples.

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
from itertools import chain, repeat
from typing import Sequence

from .detection import MODEL_PNRD, OutcomeTable, _has_single_click, outcome_table
from .networks import NetworkSpec, evolve, labelled_states, network_for_setup
from .states import TwoPhotonState

POLICY_STRICT = "strict"
POLICY_LOSS_CONSERVATIVE = "loss_conservative"
POLICIES = (POLICY_STRICT, POLICY_LOSS_CONSERVATIVE)


@dataclass(frozen=True)
class StateGroup:
    """One distinguishable group: its members and their shared outcome support."""

    index: int
    members: tuple[str, ...]
    support: frozenset[str]
    quarantined: bool = False


@dataclass(frozen=True)
class GroupTable:
    """A partition of state labels, none repeated, into groups with pairwise disjoint supports."""

    setup: str
    model: str
    policy: str
    groups: tuple[StateGroup, ...]

    def __post_init__(self) -> None:
        seen_members: set[str] = set()
        seen_outcomes: set[str] = set()
        for group in self.groups:
            if len(set(group.members)) < len(group.members):
                raise ValueError(f"group {group.index} repeats a member: {list(group.members)}")
            if repeated := seen_members.intersection(group.members):
                raise ValueError(f"groups do not partition the state labels: {sorted(repeated)} repeat")
            if repeated := seen_outcomes & group.support:
                raise ValueError(f"group supports are not pairwise disjoint: {sorted(repeated)} repeat")
            seen_members.update(group.members)
            seen_outcomes |= group.support

    @property
    def usable_groups(self) -> tuple[StateGroup, ...]:
        # Built from a list: tuple(generator) allocates a guessed size and
        # resizes, so each call would park one tuple on the free list of its
        # final size, which only a full garbage collection empties.
        return tuple([g for g in self.groups if not g.quarantined])

    def decoder(self) -> dict[str, int]:
        """Outcome label -> group index map; total over the union of supports."""
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
                    "outcomes": sorted(g.support),
                    "quarantined": g.quarantined,
                }
                for g in self.groups
            ],
        }


def classify(
    states: Sequence[tuple[str, TwoPhotonState]],
    network: NetworkSpec,
    model: str = MODEL_PNRD,
    policy: str = POLICY_STRICT,
) -> GroupTable:
    """Partition labelled states into distinguishable groups under a setup.

    ``network`` is the :class:`NetworkSpec` from ``network_for_setup``; the
    table is labelled with its setup. The model and policy are checked
    before anything is evolved. Each state is evolved once (``evolve``
    checks its norm) and its support ids are partitioned directly, building
    no per-state distribution.
    """
    unitary = network.unitary
    table = outcome_table(unitary.out_modes, model)
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    supports = [(label, evolve(state, unitary).ids.tolist()) for label, state in states]
    return _partition(supports, table, network.setup, policy)


def compute_table(setup: str, dim: int, model: str, policy: str) -> GroupTable:
    """The table of a setup's labelled Bell family at ``dim``, as :func:`classify` makes it."""
    return classify(labelled_states(setup, dim), network_for_setup(setup, dim), model, policy)


def _partition(
    supports: Sequence[tuple[str, list[int]]], table: OutcomeTable, setup: str, policy: str
) -> GroupTable:
    """Group labelled outcome-id lists by shared ids; ``table`` maps an id to its label.

    The table's ``model`` labels the result, so the two cannot disagree;
    callers check ``policy``. Groups are numbered by their first member in
    input order; members keep input order. The first state to have an
    outcome owns it. Each state is joined, by union-find, to each distinct
    owner of its outcomes, and a group's support is the union of its
    members' outcomes. Both touch each outcome id only through C-level dict
    and set calls, so Python loops once per link: 128 times for the 128 fig1
    states at d = 32, against 4,224 ids.
    """
    if not supports:
        raise ValueError("no states to classify")
    labels = [label for label, _ in supports]
    if len(set(labels)) != len(labels):
        raise ValueError("state labels must be unique")

    id_lists = [ids for _, ids in supports]
    parent = list(range(len(supports)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # Join every state to each distinct first owner of its outcomes.
    first: dict[int, int] = {}
    for i, ids in enumerate(id_lists):
        for owner in set(map(first.setdefault, ids, repeat(i))):
            ri, rk = find(i), find(owner)
            if ri != rk:
                parent[max(ri, rk)] = min(ri, rk)

    # Roots are the smallest member index, so sorted roots number the groups.
    members: dict[int, list[int]] = {}
    for i in range(len(supports)):
        members.setdefault(find(i), []).append(i)

    groups = []
    for index, root in enumerate(sorted(members), start=1):
        # ids in first-seen order, so the frozenset is built in one order
        ids = dict.fromkeys(chain.from_iterable([id_lists[i] for i in members[root]]))
        groups.append(
            StateGroup(
                index=index,
                members=tuple([labels[i] for i in members[root]]),  # see usable_groups
                support=frozenset(map(table.__getitem__, ids)),
                quarantined=policy == POLICY_LOSS_CONSERVATIVE and _has_single_click(ids, table),
            )
        )
    return GroupTable(setup, table.model, policy, tuple(groups))


def channel_capacity(table: GroupTable) -> float:
    """Superdense-coding capacity in bits per photon: log2(usable groups)."""
    usable = len(table.usable_groups)
    if usable == 0:
        raise ValueError("no usable groups, capacity undefined")
    return math.log2(usable)
