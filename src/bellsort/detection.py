"""Detector outcomes, exact Born-rule distributions, and seeded sampling.

One detector sits on every output mode, so a click is the output
:class:`~bellsort.modes.Mode` that fired, labelled as the mode is: output
arm and path (``A0`` .. ``B3``) with a ``+``/``-`` suffix in the
ancilla-assisted setup (``A0+`` .. ``B3-``). A photon-number-resolving
detector (PNRD) reports the full click multiset, so ``A0 A0`` is a valid
outcome; a threshold detector only reports click/no-click and collapses
that outcome to the singleton ``A0``.

An outcome is its label: the clicked modes' labels in mode order,
space-separated (``A3 B1``, ``A0 A0``, threshold ``A0``). Outcomes of one
output basis have integer ids: the pair id (see :mod:`bellsort.states`) of
the detected mode pair under either model, so an evolved state's ``ids``
are its outcome ids (under the threshold model the pair of mode i with
itself stands for the single click i). Distributions made by
:func:`outcome_distribution` keep their outcomes as these ids; an
:class:`OutcomeTable` turns an id into its label when read.

Sampling uses numpy's seeded PCG64 generator; identical (seed, shots) give
bit-identical counts. It draws one multinomial over the outcomes in label
order, which each distribution computes once (``OutcomeDistribution.order``)
and shares with rendering. :func:`sample` labels the draw's outcomes;
``run_sdc`` decodes the same draw by outcome id.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

from .modes import ModeBasis, POL_LINEAR, canonical_pair
from .states import TwoPhotonState, _pair_weights

MODEL_PNRD = "pnrd"
MODEL_THRESHOLD = "threshold"
MODELS = (MODEL_PNRD, MODEL_THRESHOLD)

RNG_ALGORITHM = "PCG64"
MAX_SHOTS = int(np.iinfo(np.int64).max)  # the largest count numpy's multinomial draws


class OutcomeTable(dict):
    """Outcome id -> outcome label for one output basis and detector model.

    An outcome id is the pair id of the clicked modes (see
    :mod:`bellsort.states`). Entries are built on first lookup.
    ``outcome_table`` shares one table per (basis, model), so each label is
    built once.
    """

    def __init__(self, basis: ModeBasis, model: str) -> None:
        super().__init__()
        if model not in MODELS:
            raise ValueError(f"unknown detector model {model!r}")
        for mode in basis:
            if mode.pol in POL_LINEAR:
                raise ValueError(
                    f"mode {mode.label} is not in a detector basis"
                    " (apply the 45-degree analyzers first)"
                )
        self.basis = basis
        self.model = model

    def __missing__(self, outcome_id: int) -> str:
        i, k = divmod(outcome_id, len(self.basis))
        if i == k and self.model == MODEL_THRESHOLD:
            clicks = (self.basis[i],)
        else:
            # a network's output basis need not be in mode order
            clicks = canonical_pair(self.basis[i], self.basis[k])
        label = self[outcome_id] = " ".join([m.label for m in clicks])
        return label


outcome_table = lru_cache(maxsize=16)(OutcomeTable)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Exact probability map over detection outcomes for one detector model.

    Stored as arrays: outcome ``table[ids[t]]`` has probability ``p[t]``,
    and the model is ``table.model``; ``sorted_items`` reads them as
    (label, probability) pairs. Only :func:`outcome_distribution`
    makes one; results are written as JSON (``to_dict``) and not parsed back.
    """

    table: OutcomeTable = field(repr=False)
    ids: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)

    @cached_property
    def order(self) -> np.ndarray:
        """Positions into ``ids`` and ``p`` in outcome-label order, used for sampling and rendering."""
        table = self.table
        labels = [table[i] for i in self.ids.tolist()]
        order = np.array(sorted(range(len(labels)), key=labels.__getitem__), dtype=np.intp)
        order.flags.writeable = False
        return order

    def sorted_items(self) -> list[tuple[str, float]]:
        """(outcome, probability) pairs in label order."""
        table, order = self.table, self.order
        return [(table[i], p) for i, p in zip(self.ids[order].tolist(), self.p[order].tolist())]

    def to_dict(self) -> dict:
        return {
            "model": self.table.model,
            "probs": dict(self.sorted_items()),
        }


def outcome_distribution(state: TwoPhotonState, model: str = MODEL_PNRD) -> OutcomeDistribution:
    """Born-rule outcome probabilities of a post-network two-photon state.

    PNRD weights: P({m, m}) = |psi(m, m)|**2 and P({m1, m2}) =
    2 |psi(m1, m2)|**2 for distinct modes. The threshold model reports the
    bunched pair {m, m} as the single click m; each outcome still comes
    from exactly one mode pair. Every state has unit norm within 1e-9 (its
    constructor and evolution check it), so the norm is not checked again;
    the weights are still normalised by their left-to-right sum in the
    state's (row-major upper-triangle) order, so the probabilities are
    reproducible to the last bit.
    """
    table = outcome_table(state.basis, model)
    weights = _pair_weights(state.ids, len(state.basis)) * np.abs(state.vals) ** 2
    total = sum(weights.tolist())  # the squared norm
    return OutcomeDistribution(table, state.ids, weights / total)


def _has_single_click(ids: Iterable[int], table: OutcomeTable) -> bool:
    """Whether any outcome id is a single click: under the threshold model, the id i * M + i."""
    stride = len(table.basis) + 1
    return table.model == MODEL_THRESHOLD and any(i % stride == 0 for i in ids)


def _check_shots_and_seed(shots: int, seed: int) -> None:
    """Raise unless ``shots`` is an integer in [1, MAX_SHOTS] and ``seed`` an integer >= 0.

    A bool is an int but no count, and a float would be truncated by the
    draw while callers count it whole, so both are rejected; numpy
    integers pass.
    """
    for name, value, least in (("shots", shots, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    if shots > MAX_SHOTS:  # more would overflow inside the draw
        raise ValueError(f"shots must be at most {MAX_SHOTS}, got {shots!r}")


def _draw(dist: OutcomeDistribution, shots: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One seeded multinomial draw: the outcome ids in label order and their counts; callers check shots and seed."""
    order = dist.order
    pvals = dist.p[order]
    return dist.ids[order], np.random.default_rng(seed).multinomial(shots, pvals / pvals.sum())


def sample(dist: OutcomeDistribution, shots: int, seed: int) -> Counter[str]:
    """Draw i.i.d. detection outcomes with the module's seeded generator; returns the outcome multiset."""
    _check_shots_and_seed(shots, seed)
    ids, counts = _draw(dist, shots, seed)
    table = dist.table
    return Counter({table[i]: c for i, c in zip(ids.tolist(), counts.tolist()) if c})
