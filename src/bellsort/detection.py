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
are its outcome ids. The detector model is only a relabelling: the
threshold model reads the pair of mode i with itself as the single click
i. :func:`check_model` is the one check of a model name.
:func:`outcome_labels`, an array indexed by id, is the one map from id to
label, and checks the model and the basis. :func:`outcome_distribution`
returns a plain dict from outcome label to probability, in label order.

Sampling uses numpy's seeded PCG64 generator; identical (seed, shots) give
bit-identical counts. :func:`sample` draws one multinomial over a
distribution's outcomes in the mapping's own order, which for
:func:`outcome_distribution` is label order; the CLI renders the counts and
``run_sdc`` decodes them by label.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Mapping

import numpy as np

from .modes import ModeBasis, POL_LINEAR, canonical_pair
from .states import NORM_TOL, TwoPhotonState, pair_weights

MODEL_PNRD = "pnrd"
MODEL_THRESHOLD = "threshold"
MODELS = (MODEL_PNRD, MODEL_THRESHOLD)

RNG_ALGORITHM = "PCG64"
MAX_SHOTS = int(np.iinfo(np.int64).max)  # the largest count numpy's multinomial draws


def check_model(model: str) -> None:
    """Raise unless ``model`` is one of :data:`MODELS`."""
    if model not in MODELS:
        raise ValueError(f"unknown detector model {model!r}")


@lru_cache(maxsize=16)
def outcome_labels(basis: ModeBasis, model: str) -> np.ndarray:
    """Outcome id -> outcome label for one output basis and detector model, as a read-only object array.

    Id i * M + k (i <= k) holds the label of modes i and k in mode order,
    for a network's output basis need not be in mode order; ids below the
    diagonal hold None. The array is shared per (basis, model).
    """
    check_model(model)
    for mode in basis:
        if mode.pol in POL_LINEAR:
            raise ValueError(f"mode {mode.label} is not in a detector basis (apply the 45-degree analyzers first)")
    size = len(basis)
    labels = np.full(size * size, None, dtype=object)
    for i, k in zip(*np.triu_indices(size)):
        labels[i * size + k] = " ".join([m.label for m in canonical_pair(basis[i], basis[k])])
    if model == MODEL_THRESHOLD:  # the bunched pair (i, i) clicks once, as mode i
        labels[:: size + 1] = [mode.label for mode in basis]
    labels.flags.writeable = False
    return labels


def outcome_distribution(state: TwoPhotonState, model: str = MODEL_PNRD) -> dict[str, float]:
    """Born-rule outcome probabilities of a post-network two-photon state: label -> probability, in label order.

    PNRD weights: P({m, m}) = |psi(m, m)|**2 and P({m1, m2}) =
    2 |psi(m1, m2)|**2 for distinct modes. The threshold model reports the
    bunched pair {m, m} as the single click m; each outcome still comes
    from exactly one mode pair. Every state has unit norm within
    ``NORM_TOL`` (its constructor and evolution check it), so the norm is
    not checked again; the weights are still normalised by their
    left-to-right sum in the state's (row-major upper-triangle) order, so
    the probabilities are reproducible to the last bit, and only then keyed
    by label and sorted.
    """
    labels = outcome_labels(state.basis, model)
    weights = pair_weights(state.ids, len(state.basis)) * np.abs(state.vals) ** 2
    total = sum(weights.tolist())  # the squared norm
    return dict(sorted(zip(labels[state.ids].tolist(), (weights / total).tolist())))


def check_shots_and_seed(shots: int, seed: int) -> None:
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


def sample(probs: Mapping[str, float], shots: int, seed: int) -> Counter[str]:
    """Draw ``shots`` i.i.d. outcomes with the module's seeded generator; returns the outcome multiset.

    One multinomial over the outcomes of ``probs`` in the mapping's own
    order, its values normalised by their sum. The values must be finite,
    >= 0 and sum to 1 within ``NORM_TOL``, so a map of counts is rejected.
    """
    check_shots_and_seed(shots, seed)
    pvals = np.fromiter(probs.values(), dtype=float, count=len(probs))
    # a negative value gives NaN, so inf - inf is never summed; an empty map sums to 0,
    # and a NaN or an infinity makes the sum NaN or infinite
    total = float(pvals.sum()) if min(probs.values(), default=0.0) >= 0 else math.nan
    if not abs(total - 1.0) <= NORM_TOL:
        raise ValueError(f"outcome probabilities must be finite, >= 0 and sum to 1 within {NORM_TOL}")
    counts = np.random.default_rng(seed).multinomial(shots, pvals / total)
    return Counter({outcome: c for outcome, c in zip(probs, counts.tolist()) if c})
