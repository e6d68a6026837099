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

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .detection import MODEL_PNRD, MODELS, sample
from .grouping import GroupTable, POLICIES, POLICY_STRICT, channel_capacity, distributions, partition
from .networks import SETUP_FIG1, SETUP_FIG2, SETUPS, network_for_setup
from .states import BellIndex, TwoPhotonState, all_bell_indices, encode, make_bell_state, make_hyper_state


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
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")


@dataclass(frozen=True)
class SdcReport:
    """Decode statistics of one run: per-message group counts and accuracy."""

    config: SdcConfig
    table: GroupTable
    message_counts: Mapping[str, Mapping[int, int]] = field(repr=False)
    accuracy: float = 0.0
    bits_per_photon: float = 0.0

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

    @classmethod
    def from_dict(cls, data: dict) -> "SdcReport":
        cfg = SdcConfig(**data["config"])
        counts = {
            label: {int(gid): c for gid, c in per.items()}
            for label, per in data["message_counts"].items()
        }
        return cls(
            config=cfg,
            table=GroupTable.from_dict(data["table"]),
            message_counts=counts,
            accuracy=data["accuracy"],
            bits_per_photon=data["bits_per_photon"],
        )


def reference_state(setup: str) -> TwoPhotonState:
    """The shared pair the receiver prepares before any encoding."""
    origin = BellIndex(0, 0, 0)
    return make_hyper_state(origin) if setup == SETUP_FIG2 else make_bell_state(4, origin)


def run_sdc(config: SdcConfig, messages: Sequence[BellIndex] | None = None) -> SdcReport:
    """Run the protocol for every message and decode by group membership.

    Every encoded state is evolved once; its outcome distribution feeds both
    the partition and the message's samples. Per-message sampling uses the
    derived seed ``config.seed + ordinal`` so runs are reproducible yet
    messages are independent. An outcome missing from every group support
    would mean the evolution and the partition disagree and raises
    immediately.
    """
    if messages is None:
        messages = all_bell_indices(4)
    for idx in messages:
        idx.validate_for(4)

    reference = reference_state(config.setup)
    network = network_for_setup(config.setup)
    encoded = [(idx.label, encode(reference, idx, "second")) for idx in all_bell_indices(4)]
    labelled = distributions(encoded, network, config.model)
    table = partition(labelled, config.setup, config.policy)
    decoder = table.decoder()
    dists = dict(labelled)

    message_counts: dict[str, dict[int, int]] = {}
    correct = 0
    total = 0
    for ordinal, idx in enumerate(messages):
        own_group = table.group_of(idx.label).index
        counts: Counter = sample(dists[idx.label], config.shots, config.seed + ordinal)
        per_group: dict[int, int] = {}
        for outcome, count in counts.items():
            if outcome not in decoder:
                raise RuntimeError(
                    f"outcome {outcome.label} of message {idx.label} lies outside every group support"
                )
            gid = decoder[outcome]
            per_group[gid] = per_group.get(gid, 0) + count
            if gid == own_group:
                correct += count
        total += config.shots
        message_counts[idx.label] = per_group

    return SdcReport(
        config=config,
        table=table,
        message_counts=message_counts,
        accuracy=correct / total,
        bits_per_photon=channel_capacity(table),
    )
