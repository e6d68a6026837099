"""Distinguishability partition of Bell states and channel capacities.

Two encoded states can be told apart by a measurement setup exactly when
their detection-outcome supports are disjoint, so the distinguishable
groups are the connected components of the confusability graph (states as
vertices, edges where supports intersect). The channel capacity of the
resulting superdense-coding scheme is log2 of the number of usable groups.

One function, :func:`partition`, groups outcome ids (see
:mod:`bellsort.detection`); :func:`classify` and ``run_sdc`` read them from
each evolved state, not from a distribution.

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

import numpy as np

from .detection import MODEL_PNRD, MODEL_THRESHOLD, outcome_labels
from .networks import NetworkSpec, evolve, labelled_states, network_for_setup
from .states import TwoPhotonState

POLICY_STRICT = "strict"
POLICY_LOSS_CONSERVATIVE = "loss_conservative"
POLICIES = (POLICY_STRICT, POLICY_LOSS_CONSERVATIVE)


def check_policy(policy: str) -> None:
    """Raise unless ``policy`` is one of :data:`POLICIES`."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")


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
        members = [label for group in self.groups for label in group.members]
        supports = [group.support for group in self.groups]
        if len(set(members)) == len(members) and len(frozenset().union(*supports)) == sum(map(len, supports)):
            return  # valid, checked in one pass; the loop below names the first fault
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
    before anything is evolved, ``outcome_labels`` checking the model. Each
    state is evolved once (``evolve`` checks its norm) and its support ids
    are partitioned directly, building no per-state distribution.
    """
    unitary = network.unitary
    labels = outcome_labels(unitary.out_modes, model)
    check_policy(policy)
    supports = [(label, evolve(state, unitary).ids) for label, state in states]
    return partition(supports, labels, network.setup, model, policy)


def compute_table(setup: str, dim: int, model: str, policy: str) -> GroupTable:
    """The table of a setup's labelled Bell family at ``dim``, as :func:`classify` makes it."""
    return classify(labelled_states(setup, dim), network_for_setup(setup, dim), model, policy)


def partition(
    supports: Sequence[tuple[str, Sequence[int] | np.ndarray]], labels: np.ndarray, setup: str, model: str, policy: str
) -> GroupTable:
    """Group labelled outcome ids, a list or an integer array per state in any order, by shared ids.

    ``labels`` is ``outcome_labels`` of the output basis under ``model``;
    callers check ``policy``, and ``GroupTable`` rejects a repeated label.
    Groups are the connected components of states sharing ids, numbered by
    first member, with members in input order, and found by min-label
    hooking with pointer jumping (Shiloach & Vishkin 1982). Each state
    starts as its own root. Each round, one ``np.minimum.at`` gives each
    outcome its states' least root, a second lowers the root of state r to
    that of any outcome of a state rooted at r, and each state then takes
    its root's root. Roots only fall and stay state indices, so the rounds
    end; at the first that changes none, each is its group's least index.
    A group's support, the outcomes its members own, is labelled by one
    index into ``labels``. Under the threshold model, id i * (M + 1) is the
    single click i, which no usable ``loss_conservative`` group holds.
    """
    if not supports:
        raise ValueError("no states to classify")
    names = [name for name, _ in supports]
    count = len(names)

    ids = np.concatenate([state_ids for _, state_ids in supports]).astype(np.intp, copy=False)  # [] is float64
    state_of = np.repeat(np.arange(count), [len(state_ids) for _, state_ids in supports])
    roots, least = None, np.arange(count)
    while not np.array_equal(least, roots):  # until a round changes no root
        roots, first = least, np.full(len(labels), count)
        id_roots = roots[state_of]
        np.minimum.at(first, ids, id_roots)
        least = roots.copy()
        np.minimum.at(least, id_roots, first[ids])
        least = least[least]
    members: dict[int, list[int]] = {}  # a root is its group's first index, so keys come in root order
    for i, root in enumerate(roots.tolist()):
        members.setdefault(root, []).append(i)
    outcomes = np.flatnonzero(first < count)
    owner_roots = first[outcomes]
    grouped = outcomes[np.argsort(owner_roots, kind="stable")]
    grouped_labels = labels[grouped].tolist()
    quarantine = policy == POLICY_LOSS_CONSERVATIVE and model == MODEL_THRESHOLD
    single = (grouped % (math.isqrt(len(labels)) + 1) == 0).tolist() if quarantine else []
    ends = np.cumsum(np.bincount(owner_roots, minlength=count)[list(members)]).tolist()
    groups = []
    for index, (indices, start, end) in enumerate(zip(members.values(), [0, *ends], ends), start=1):
        members_of = tuple([names[i] for i in indices])  # see usable_groups
        groups.append(StateGroup(index, members_of, frozenset(grouped_labels[start:end]), any(single[start:end])))
    return GroupTable(setup, model, policy, tuple(groups))


def channel_capacity(table: GroupTable) -> float:
    """Superdense-coding capacity in bits per photon: log2(usable groups)."""
    usable = len(table.usable_groups)
    if usable == 0:
        raise ValueError("no usable groups, capacity undefined")
    return math.log2(usable)
