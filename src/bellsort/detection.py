"""Detector outcomes, exact Born-rule distributions, and seeded sampling.

One detector sits on every output mode, so a click is the output
:class:`~bellsort.modes.Mode` that fired, labelled as the mode is: output
arm and path (``A0`` .. ``B3``) with a ``+``/``-`` suffix in the
ancilla-assisted setup (``A0+`` .. ``B3-``). A photon-number-resolving
detector (PNRD) reports the full click multiset, so ``A0 A0`` is a valid
outcome; a threshold detector only reports click/no-click and collapses
that outcome to the singleton ``A0``.

Outcomes of one output basis of M modes have integer ids: the detected
mode pair (i, k), i <= k, has id i * M + k under either model (under the
threshold model (i, i) stands for the single click i). Distributions made by
:func:`outcome_distribution` keep their outcomes as these ids and build the
:class:`Outcome` objects only when read, from a per-basis table.

Sampling uses numpy's seeded PCG64 generator; identical (seed, shots) give
bit-identical counts. It draws one multinomial over the outcomes in label
order, which each distribution computes once (``OutcomeDistribution.order``)
and shares with rendering.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .modes import Mode, ModeBasis, POL_LINEAR
from .states import BORN_NORM_TOL, PROB_TOL, TwoPhotonState, _pair_weights

MODEL_PNRD = "pnrd"
MODEL_THRESHOLD = "threshold"
MODELS = (MODEL_PNRD, MODEL_THRESHOLD)

RNG_ALGORITHM = "PCG64"

_DETECTOR_RE = re.compile(r"^([AB])(0|[1-9]\d*)([+-]?)$")  # no leading zeros, so labels round-trip


@dataclass(frozen=True)
class Outcome:
    """A detection event: the sorted clicked output modes, with multiplicity under PNRD.

    Hashed once at construction and again on unpickling (string hashes
    differ between processes); the label is built on first use.
    """

    clicks: tuple[Mode, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.clicks) <= 2:
            raise ValueError("an outcome carries one or two clicks")
        clicks = tuple(sorted(self.clicks))
        object.__setattr__(self, "clicks", clicks)
        object.__setattr__(self, "_hash", hash(clicks))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Outcome, (self.clicks,)

    @classmethod
    def from_label(cls, label: str) -> "Outcome":
        """Parse space-separated detector labels such as ``"A0+ B2-"``."""
        clicks = []
        for part in label.split():
            match = _DETECTOR_RE.match(part)
            if not match:
                raise ValueError(f"not a detector label: {part!r}")
            arm, path, pol = match.groups()
            clicks.append(Mode(arm, int(path), pol or None))
        return cls(tuple(clicks))

    @cached_property
    def label(self) -> str:
        return " ".join([m.label for m in self.clicks])

    @property
    def is_single_click(self) -> bool:
        return len(self.clicks) == 1

    @property
    def is_bunched(self) -> bool:
        return len(self.clicks) == 2 and self.clicks[0] == self.clicks[1]

    def collapse_multiplicity(self) -> "Outcome":
        """The threshold-detector view: drop repeated clicks."""
        return Outcome(tuple(sorted(set(self.clicks))))

    def __repr__(self) -> str:
        return f"Outcome({self.label})"


class OutcomeTable(dict):
    """Outcome id -> Outcome for one output basis and detector model.

    Entries are built on first lookup. ``outcome_table`` shares one table
    per (basis, model), so equal ids mean equal outcomes.
    """

    def __init__(self, basis: ModeBasis, model: str) -> None:
        super().__init__()
        for mode in basis:
            if mode.pol in POL_LINEAR:
                raise ValueError(
                    f"mode {mode.label} is not in a detector basis"
                    " (apply the 45-degree analyzers first)"
                )
        self.basis = basis
        self.model = model

    def __missing__(self, outcome_id: int) -> Outcome:
        i, k = divmod(outcome_id, len(self.basis))
        if i == k and self.model == MODEL_THRESHOLD:
            clicks = (self.basis[i],)
        else:
            clicks = (self.basis[i], self.basis[k])
        outcome = self[outcome_id] = Outcome(clicks)
        return outcome


outcome_table = lru_cache(maxsize=16)(OutcomeTable)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Exact probability map over detection outcomes for one detector model.

    Stored as arrays: outcome ``table[ids[t]]`` has probability ``p[t]``.
    ``probs`` is the Outcome -> probability view, built on first use.
    Build one from a mapping with :meth:`from_probs`.
    """

    model: str
    table: Mapping[int, Outcome] = field(repr=False)
    ids: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown detector model {self.model!r}")

    @classmethod
    def from_probs(cls, model: str, probs: Mapping[Outcome, float]) -> "OutcomeDistribution":
        """From an Outcome -> probability map; zeros are dropped, the rest must sum to 1."""
        given = {o: float(p) for o, p in probs.items()}
        if not all(math.isfinite(p) for p in given.values()):
            raise ValueError("non-finite probability")
        if any(p < 0 for p in given.values()):
            raise ValueError("negative probability")
        cleaned = {o: p for o, p in given.items() if p > 0.0}
        total = sum(cleaned.values())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        table = dict(enumerate(cleaned))
        return cls(model, table, np.arange(len(table)), np.array(list(cleaned.values())))

    @cached_property
    def probs(self) -> Mapping[Outcome, float]:
        table = self.table
        return MappingProxyType({table[i]: p for i, p in zip(self.ids.tolist(), self.p.tolist())})

    def __eq__(self, other) -> bool:
        if not isinstance(other, OutcomeDistribution):
            return NotImplemented
        return self.model == other.model and self.probs == other.probs

    @property
    def support(self) -> frozenset[Outcome]:
        return frozenset(self.probs)

    @cached_property
    def order(self) -> np.ndarray:
        """Positions into ``ids`` and ``p`` in outcome-label order, used for sampling and rendering."""
        table = self.table
        labels = [table[i].label for i in self.ids.tolist()]
        order = np.array(sorted(range(len(labels)), key=labels.__getitem__), dtype=np.intp)
        order.flags.writeable = False
        return order

    def sorted_items(self) -> list[tuple[Outcome, float]]:
        """(outcome, probability) pairs in label order."""
        table, order = self.table, self.order
        return [(table[i], p) for i, p in zip(self.ids[order].tolist(), self.p[order].tolist())]

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "probs": {o.label: p for o, p in self.sorted_items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OutcomeDistribution":
        probs = {Outcome.from_label(label): p for label, p in data["probs"].items()}
        return cls.from_probs(data["model"], probs)


def outcome_distribution(state: TwoPhotonState, model: str = MODEL_PNRD) -> OutcomeDistribution:
    """Born-rule outcome probabilities of a post-network two-photon state.

    PNRD weights: P({m, m}) = |psi(m, m)|**2 and P({m1, m2}) =
    2 |psi(m1, m2)|**2 for distinct modes. The threshold model reports the
    bunched pair {m, m} as the single click m; each outcome still comes
    from exactly one mode pair. The weights are normalised by their
    left-to-right sum in the state's (row-major upper-triangle) order, so
    the probabilities are reproducible to the last bit.
    """
    if model not in MODELS:
        raise ValueError(f"unknown detector model {model!r}")
    weights = _pair_weights(state.rows, state.cols) * np.abs(state.vals) ** 2
    total = sum(weights.tolist())  # the squared norm
    deviation = abs(math.sqrt(total) - 1.0)
    if not deviation <= BORN_NORM_TOL:  # a NaN amplitude fails too
        raise ValueError(f"state is not normalized (norm off by {deviation:.3e})")
    table = outcome_table(state.basis, model)
    return OutcomeDistribution(model, table, _outcome_ids(state), weights / total)


def _outcome_ids(state: TwoPhotonState) -> np.ndarray:
    """Outcome id of each stored pair (i, k): i * M + k over the state's M modes."""
    return state.rows * len(state.basis) + state.cols


def sample(dist: OutcomeDistribution, shots: int, seed: int) -> Counter[Outcome]:
    """Draw i.i.d. detection outcomes; returns the outcome multiset.

    The generator is numpy's PCG64 seeded with ``seed``; identical
    (seed, shots) pairs reproduce identical counts.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    table, order = dist.table, dist.order
    pvals = dist.p[order]
    counts = np.random.default_rng(seed).multinomial(shots, pvals / pvals.sum())
    return Counter({table[i]: c for i, c in zip(dist.ids[order].tolist(), counts.tolist()) if c})
