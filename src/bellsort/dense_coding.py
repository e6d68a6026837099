"""End-to-end superdense-coding round trip.

The receiver prepares the reference state (the (0,0,0) Bell state, or its
hyperentangled version for the ancilla-assisted setup) and sends the second
photon to the sender, who encodes a message by applying one of the local
unitaries and returns the photon. The receiver measures with the chosen
setup and decodes the message's group from the detected outcome's label.
With ideal detectors the group supports are disjoint, so decoding is
error-free; messages sharing a group are inherently indistinguishable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping

from .detection import MODEL_PNRD, check_model, check_shots_and_seed, outcome_distribution, outcome_labels, sample
from .grouping import GroupTable, POLICY_STRICT, channel_capacity, check_policy, partition
from .networks import SETUP_FIG1, check_setup, evolve_all, network_for_setup, prepared_state
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
        check_setup(self.setup, 4)  # the dimension run_sdc prepares and builds at
        check_model(self.model)
        check_policy(self.policy)
        check_shots_and_seed(self.shots, self.seed)
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
            "config": asdict(self.config),
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
    ``evolve_all`` call; the evolved states' outcome ids are partitioned,
    and each state's outcome distribution is drawn from with ``sample``.
    Per-message sampling uses the derived seed ``config.seed + ordinal`` so
    runs are reproducible yet messages are independent. Outcomes are decoded
    by label through the groups' outcome -> group map, every outcome of a
    distribution whether drawn or not, so one in no group support fails.
    """
    reference = prepared_state(config.setup, 4, BellIndex(0, 0, 0))
    unitary = network_for_setup(config.setup).unitary
    indices = all_bell_indices(4)
    evolved = evolve_all(encode(reference, indices), unitary)
    labels = [idx.label for idx in indices]
    supports = [(label, state.ids) for label, state in zip(labels, evolved)]
    id_labels = outcome_labels(unitary.out_modes, config.model)
    table = partition(supports, id_labels, config.setup, config.model, config.policy)
    decoder = {outcome: g.index for g in table.groups for outcome in g.support}
    own_groups = {label: g.index for g in table.groups for label in g.members}

    message_counts: dict[str, dict[int, int]] = {}
    correct = 0
    for ordinal, (label, state) in enumerate(zip(labels, evolved)):
        dist = outcome_distribution(state, config.model)
        group_of = {outcome: decoder[outcome] for outcome in dist}
        per_group: dict[int, int] = {}
        for outcome, count in sample(dist, config.shots, config.seed + ordinal).items():
            gid = group_of[outcome]
            per_group[gid] = per_group.get(gid, 0) + count
        correct += per_group.get(own_groups[label], 0)
        message_counts[label] = per_group

    return SdcReport(
        config=config,
        table=table,
        message_counts=message_counts,
        accuracy=correct / (config.shots * len(labels)),
        bits_per_photon=channel_capacity(table),
    )
