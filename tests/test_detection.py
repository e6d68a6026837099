"""Tests for outcome distributions and seeded sampling."""

import copy
import math
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from bellsort import (
    BellIndex,
    DetectorId,
    Outcome,
    OutcomeDistribution,
    TwoPhotonState,
    all_bell_indices,
    evolve,
    make_bell_state,
    make_hyper_state,
    network_for_setup,
    outcome_distribution,
    sample,
)
from bellsort.detection import OutcomeTable
from bellsort.modes import Mode, path_modes

A, B = "A", "B"


def fig1_distribution(idx, model="pnrd", dim=4):
    state = make_bell_state(dim, idx)
    return outcome_distribution(evolve(state, network_for_setup("fig1", dim).unitary), model)


def label_sorted_sample(dist, shots, seed):
    """Sampling as first written: sort the Outcome map by label, normalise, draw."""
    items = sorted(dist.probs.items(), key=lambda kv: kv[0].label)
    pvals = np.array([p for _, p in items])
    pvals = pvals / pvals.sum()
    counts = np.random.default_rng(seed).multinomial(shots, pvals)
    return items, Counter({o: int(c) for (o, _), c in zip(items, counts) if c})


def guarded_distributions():
    """Every fig1 (d = 2, 4) and fig2 distribution under both detector models, and fig1 at d = 16.

    Below ten paths the label order equals the outcome-id order; at d = 16
    ("A10" sorts before "A2") it does not.
    """
    for model in ("pnrd", "threshold"):
        for dim in (2, 4, 16):
            for idx in all_bell_indices(dim):
                yield fig1_distribution(idx, model, dim)
        for idx in all_bell_indices(4):
            network = network_for_setup("fig2").unitary
            yield outcome_distribution(evolve(make_hyper_state(idx), network), model)


class TestOutcomeLabels:
    def test_detector_parsing_round_trip(self):
        for label in ("A0", "B3", "A0+", "B3-"):
            assert DetectorId.from_label(label).label == label
        with pytest.raises(ValueError):
            DetectorId.from_label("C0")
        with pytest.raises(ValueError):
            DetectorId.from_mode(Mode(A, 0, "H"))

    def test_outcome_sorted_canonically(self):
        d1, d2 = DetectorId.from_label("B1"), DetectorId.from_label("A3")
        assert Outcome.pair(d1, d2).label == "A3 B1"
        plus, minus = DetectorId.from_label("A0+"), DetectorId.from_label("A0-")
        assert Outcome.pair(minus, plus).label == "A0+ A0-"

    def test_outcome_hash_contract(self):
        tabled = OutcomeTable(path_modes(4), "pnrd")[0 * 8 + 5]
        parsed = Outcome.from_label("A0 B1")
        unpickled = pickle.loads(pickle.dumps(tabled))
        copied = copy.deepcopy(tabled)
        outcomes = (tabled, parsed, unpickled, copied)
        assert len({id(o) for o in outcomes}) == 4
        for outcome in outcomes:
            assert outcome == tabled
            assert hash(outcome) == hash(tabled) == hash(tabled.clicks)
            assert outcome.label == "A0 B1"
        for key in outcomes:
            keyed = {key: "found"}
            assert all(keyed.get(o) == "found" for o in outcomes)

    def test_outcome_unpickled_from_another_process_hashes_here(self):
        # string hashes are salted per process, so the stored hash cannot travel
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": src}
        code = (
            "import pickle, sys; from bellsort import Outcome; "
            "sys.stdout.buffer.write(pickle.dumps(Outcome.from_label('A1+ B3-')))"
        )
        data = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
        outcome = pickle.loads(data.stdout)
        assert hash(outcome) == hash(Outcome.from_label("A1+ B3-"))
        assert {Outcome.from_label("A1+ B3-"): 1}[outcome] == 1

    def test_multiplicity_collapse(self):
        double = Outcome.from_label("A0 A0")
        assert double.is_bunched
        single = double.collapse_multiplicity()
        assert single.label == "A0"
        assert single.is_single_click
        split = Outcome.from_label("A0 A1")
        assert split.collapse_multiplicity() == split


class TestDistributions:
    def test_same_arm_pair_state_quarter_each(self):
        # four outcomes of probability 1/4: A0 A1, B0 B1, A2 A3, B2 B3
        dist = fig1_distribution(BellIndex(1, 0, 0))
        expected = {"A0 A1": 0.25, "B0 B1": 0.25, "A2 A3": 0.25, "B2 B3": 0.25}
        assert {o.label: pytest.approx(p) for o, p in dist.probs.items()} == expected

    def test_bunched_state_eighth_each(self):
        dist = fig1_distribution(BellIndex(0, 0, 0))
        assert len(dist.probs) == 8
        for outcome, p in dist.probs.items():
            assert outcome.is_bunched
            assert p == pytest.approx(0.125)

    def test_worked_hyper_example_eighth_each(self):
        state = make_hyper_state(BellIndex(2, 1, 0))
        dist = outcome_distribution(evolve(state, network_for_setup("fig2").unitary))
        assert {o.label for o in dist.support} == {
            "A0+ A2-", "A0- A2+", "A1+ A3-", "A1- A3+",
            "B0+ B2-", "B0- B2+", "B1+ B3-", "B1- B3+",
        }
        for p in dist.probs.values():
            assert p == pytest.approx(0.125, abs=1e-10)

    def test_threshold_collapses_bunched_outcomes(self):
        dist = fig1_distribution(BellIndex(0, 0, 0), model="threshold")
        assert {o.label for o in dist.support} == {
            "A0", "A1", "A2", "A3", "B0", "B1", "B2", "B3"
        }
        for p in dist.probs.values():
            assert p == pytest.approx(0.125)

    def test_threshold_is_probability_preserving_collapse(self):
        for idx in all_bell_indices(4):
            pnrd = fig1_distribution(idx)
            thresh = fig1_distribution(idx, model="threshold")
            merged: dict = {}
            for o, p in pnrd.probs.items():
                key = o.collapse_multiplicity()
                merged[key] = merged.get(key, 0.0) + p
            assert set(merged) == set(thresh.probs)
            for o, p in merged.items():
                assert thresh.probs[o] == pytest.approx(p)

    def test_probabilities_sum_to_one_everywhere(self):
        for idx in all_bell_indices(4):
            for model in ("pnrd", "threshold"):
                total = sum(fig1_distribution(idx, model).probs.values())
                assert abs(total - 1.0) < 1e-9
                state = make_hyper_state(idx)
                dist = outcome_distribution(evolve(state, network_for_setup("fig2").unitary), model)
                assert abs(sum(dist.probs.values()) - 1.0) < 1e-9

    def test_unnormalized_state_rejected(self):
        # psi(A0, B0) = 0.7, psi(A1, B1) = 0.2; the raw constructor skips the norm check
        bad = TwoPhotonState(2, path_modes(2), [0, 1], [2, 3], [0.7, 0.2])
        with pytest.raises(ValueError):
            outcome_distribution(bad)

    def test_distribution_round_trip(self):
        dist = fig1_distribution(BellIndex(2, 1, 0))
        again = OutcomeDistribution.from_dict(dist.to_dict())
        assert again == dist


class TestSampling:
    def test_point_mass(self):
        dist = OutcomeDistribution.from_probs("pnrd", {Outcome.from_label("A0 A0"): 1.0})
        counts = sample(dist, 500, seed=3)
        assert counts == Counter({Outcome.from_label("A0 A0"): 500})

    def test_same_seed_identical(self):
        dist = fig1_distribution(BellIndex(1, 0, 0))
        assert sample(dist, 10000, seed=42) == sample(dist, 10000, seed=42)
        assert sample(dist, 10000, seed=42) != sample(dist, 10000, seed=43)

    def test_uniform_four_outcomes_within_five_sigma(self):
        dist = fig1_distribution(BellIndex(1, 0, 0))
        shots = 100_000
        counts = sample(dist, shots, seed=7)
        sigma = math.sqrt(0.25 * 0.75 / shots)
        for outcome in dist.support:
            freq = counts[outcome] / shots
            assert abs(freq - 0.25) < 5 * sigma

    def test_invalid_shots(self):
        dist = fig1_distribution(BellIndex(1, 0, 0))
        with pytest.raises(ValueError):
            sample(dist, 0, seed=1)

    def test_chi_square_consistency_over_100_seeds(self):
        # stat should beat the 0.999 quantile in fewer than 1% of runs
        dist = fig1_distribution(BellIndex(1, 0, 0))
        shots = 100_000
        items = dist.sorted_items()
        threshold = chi2.ppf(0.999, df=len(items) - 1)
        exceedances = 0
        for seed in range(100):
            counts = sample(dist, shots, seed=seed)
            stat = sum(
                (counts[o] - shots * p) ** 2 / (shots * p) for o, p in items
            )
            if stat > threshold:
                exceedances += 1
        assert exceedances / 100 < 0.01

    @pytest.mark.parametrize("seed", [0, 11, 2024])
    def test_counts_match_the_label_sorted_draw(self, seed):
        count = 0
        for dist in guarded_distributions():
            items, expected = label_sorted_sample(dist, 100_000, seed)
            counts = sample(dist, 100_000, seed)
            assert dist.sorted_items() == items
            assert counts == expected
            assert list(counts) == list(expected)  # the decode loop reads this order
            count += 1
        assert count == 2 * (4 + 16 + 64 + 16)

    def test_counts_total_equals_shots(self):
        rng = np.random.default_rng(5)
        dist = fig1_distribution(BellIndex(0, 1, 1))
        for _ in range(5):
            shots = int(rng.integers(1, 5000))
            assert sum(sample(dist, shots, seed=int(rng.integers(1 << 30))).values()) == shots
