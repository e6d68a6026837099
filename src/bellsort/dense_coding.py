"""End-to-end superdense-coding round trip.

The receiver prepares the reference state (the (0,0,0) Bell state, or its
hyperentangled version for the ancilla-assisted setup) and sends the second
photon to the sender, who encodes a message by applying one of the local
unitaries and returns the photon. The receiver measures with the chosen
setup and decodes the message's group from the detection outcome. With
ideal detectors the group supports are disjoint, so decoding is error-free;
messages sharing a group are inherently indistinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .detection import MODEL_PNRD, MODELS, _check_shots_and_seed, _draw, outcome_distribution, outcome_table
from .grouping import GroupTable, POLICIES, POLICY_STRICT, _partition, channel_capacity
from .networks import SETUP_FIG1, SETUPS, evolve_all, network_for_setup, prepared_state
from .states import BellIndex, all_bell_indices, encode


@dataclass(frozen=True)
class SdcConfig:
    """Run parameters for a superdense-coding experiment."""

    setup: str = SETUP_FIG1
    model: str = MODEL_PNRD
    policy: str = POLICY_STRICT
    seed: int = 0
    shots: int = 1000

    def __post_init__(self) -> None:
        if self.setup not in SETUPS:
            raise ValueError(f"unknown setup {self.setup!r}")
        if self.model not in MODELS:
            raise ValueError(f"unknown detector model {self.model!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        _check_shots_and_seed(self.shots, self.seed)
        # numpy integers pass the check but not json.dumps of the report
        object.__setattr__(self, "shots", int(self.shots))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class SdcReport:
    """Decode statistics of one run: per-message group counts and accuracy."""

    config: SdcConfig
    table: GroupTable
    message_counts: Mapping[str, Mapping[int, int]] = field(repr=False)
    accuracy: float
    bits_per_photon: float

    def to_dict(self) -> dict:
        return {
            "config": {
                "setup": self.config.setup,
                "model": self.config.model,
                "policy": self.config.policy,
                "seed": self.config.seed,
                "shots": self.config.shots,
            },
            "table": self.table.to_dict(),
            "message_counts": {
                label: {str(gid): c for gid, c in sorted(counts.items())}
                for label, counts in self.message_counts.items()
            },
            "accuracy": self.accuracy,
            "bits_per_photon": self.bits_per_photon,
        }


def run_sdc(config: SdcConfig) -> SdcReport:
    """Send each of the 16 messages ``config.shots`` times and decode by group membership.

    The 16 messages are encoded in one ``encode`` call and evolved in one
    ``evolve_all`` call; each evolved state's outcome distribution feeds
    both the partition and the message's draw. Per-message sampling uses
    the derived seed ``config.seed + ordinal`` so runs are reproducible yet
    messages are independent. Drawn outcomes are decoded by id, through the
    group supports read once per run.
    """
    reference = prepared_state(config.setup, 4, BellIndex(0, 0, 0))
    unitary = network_for_setup(config.setup).unitary
    indices = all_bell_indices(4)
    evolved = evolve_all(encode(reference, indices), unitary)
    dists = {idx.label: outcome_distribution(state, config.model) for idx, state in zip(indices, evolved)}
    supports = [(label, dist.ids) for label, dist in dists.items()]
    outcomes = outcome_table(unitary.out_modes, config.model)
    table = _partition(supports, outcomes, config.setup, config.policy)
    by_label = table.decoder()
    decoder = {i: by_label[outcomes[i]] for _, ids in supports for i in ids.tolist()}  # each id is in a support
    own_groups = {label: g.index for g in table.groups for label in g.members}

    message_counts: dict[str, dict[int, int]] = {}
    correct = 0
    for ordinal, (label, dist) in enumerate(dists.items()):
        own_group = own_groups[label]
        ids, counts = _draw(dist, config.shots, config.seed + ordinal)
        per_group: dict[int, int] = {}
        for outcome, count in zip(ids.tolist(), counts.tolist()):
            if not count:
                continue
            gid = decoder[outcome]
            per_group[gid] = per_group.get(gid, 0) + count
            if gid == own_group:
                correct += count
        message_counts[label] = per_group

    return SdcReport(
        config=config,
        table=table,
        message_counts=message_counts,
        accuracy=correct / (config.shots * len(dists)),
        bits_per_photon=channel_capacity(table),
    )
