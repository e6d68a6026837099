"""Tests for outcome distributions and seeded sampling."""

import json
import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2

from bellsort import (
    BellIndex,
    SinglePhotonUnitary,
    TwoPhotonState,
    all_bell_indices,
    evolve,
    grouping,
    make_bell_state,
    make_hyper_state,
    network_for_setup,
    outcome_distribution,
    sample,
)
from bellsort.detection import MAX_SHOTS, outcome_labels
from bellsort.grouping import compute_table
from bellsort.modes import POL_DIAGONAL, POL_LINEAR, Mode, path_modes, polarized_modes
from conftest import cli_pairs, fock_outcome_probabilities, from_kets, random_unitary

A, B = "A", "B"


def fig1_distribution(idx, model="pnrd", dim=4):
    state = make_bell_state(dim, idx)
    return outcome_distribution(evolve(state, network_for_setup("fig1", dim).unitary), model)


def collapse(outcome):
    """The threshold-detector view of an outcome label: a repeated click dropped."""
    return " ".join(dict.fromkeys(outcome.split()))


def reachable_output_bases():
    """The output basis of every fig1 network at d = 2 .. 32 and of fig2, and a reversed basis."""
    bases = [network_for_setup("fig1", dim).unitary.out_modes for dim in range(2, 33)]
    return [*bases, network_for_setup("fig2").unitary.out_modes, path_modes(4)[::-1]]


def relabelling_mismatches(bases):
    """Positions of the bases whose threshold labels are not the PNRD labels with
    each bunched pair collapsed to its single click; [] when the gate holds."""
    mismatches = []
    for position, basis in enumerate(bases):
        pnrd, threshold = (outcome_labels(basis, model).tolist() for model in ("pnrd", "threshold"))
        size = len(basis)
        bunched = range(0, size * size, size + 1)
        expected = [collapse(o) if i in bunched else o for i, o in enumerate(pnrd)]
        if threshold != expected or any(len(pnrd[i].split()) != 2 for i in bunched):
            mismatches.append(position)
    return mismatches


def label_sorted_sample(dist, shots, seed):
    """Sampling as first written: sort the outcome map by label, normalise, draw."""
    # sorted here, not read in the map's own order, which is the order sampling uses
    items = sorted(dist.items())
    pvals = np.array([p for _, p in items])
    pvals = pvals / pvals.sum()
    counts = np.random.default_rng(seed).multinomial(shots, pvals)
    return items, Counter({o: int(c) for (o, _), c in zip(items, counts) if c})


def sampling_mismatches(dists, shots, seed):
    """Positions of the distributions whose items, counts or count order differ
    from the label-sorted draw; [] when the guard holds."""
    mismatches = []
    for position, dist in enumerate(dists):
        items, expected = label_sorted_sample(dist, shots, seed)
        counts = sample(dist, shots, seed)
        # the decode loop reads the counts in their order
        if list(dist.items()) != items or counts != expected or list(counts) != list(expected):
            mismatches.append(position)
    return mismatches


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
    def test_outcome_labels_check_model_and_basis(self):
        # outcome_labels is the one place the detector model is checked
        with pytest.raises(ValueError, match="unknown detector model 'ideal'"):
            outcome_labels(path_modes(4), "ideal")
        state = make_bell_state(4, BellIndex(0, 0, 0))
        with pytest.raises(ValueError, match="unknown detector model 'ideal'"):
            outcome_distribution(state, "ideal")
        with pytest.raises(ValueError, match="A0H is not in a detector basis"):
            outcome_labels(polarized_modes(4, POL_LINEAR), "pnrd")

    @pytest.mark.parametrize("model", ["pnrd", "threshold"])
    def test_every_outcome_label_is_distinct(self, model):
        # classify rejects duplicate labels and rendering keys on them
        bases = [path_modes(dim) for dim in (2, 4, 16, 32)] + [polarized_modes(4, POL_DIAGONAL)]
        for basis in bases:
            table = outcome_labels(basis, model)
            size = len(basis)
            labels = [table[i * size + k] for i in range(size) for k in range(i, size)]
            assert len(set(labels)) == len(labels)
            # and the ids below the diagonal, which no state holds, hold no label
            assert [table[i * size + k] for i in range(size) for k in range(i)] == [None] * (size * (size - 1) // 2)

    def test_outcome_sorted_canonically(self):
        # reversed bases put the higher mode first, so the table must sort the pair
        reversed_paths = outcome_labels(path_modes(4)[::-1], "pnrd")
        assert reversed_paths[2 * 8 + 4] == "A3 B1"  # (B1, A3)
        reversed_signs = outcome_labels(polarized_modes(4, POL_DIAGONAL)[::-1], "pnrd")
        assert reversed_signs[14 * 16 + 15] == "A0+ A0-"  # (A0-, A0+)
        assert outcome_labels(path_modes(16)[::-1], "pnrd")[15 * 32 + 21] == "A10 B0"  # (B0, A10)
        assert outcome_labels(path_modes(16), "pnrd")[2 * 32 + 10] == "A2 A10"  # mode order, not text
        assert outcome_labels(path_modes(4), "threshold")[0] == "A0"
        assert outcome_labels(path_modes(4)[::-1], "threshold")[7 * 8 + 7] == "A0"

    def test_multiplicity_collapse(self):
        pnrd, threshold = (outcome_labels(path_modes(4), model) for model in ("pnrd", "threshold"))
        assert pnrd[0] == "A0 A0"
        assert threshold[0] == collapse(pnrd[0]) == "A0"
        assert threshold[1] == pnrd[1] == collapse(pnrd[1]) == "A0 A1"

    def test_the_threshold_labels_relabel_only_the_bunched_pairs(self):
        bases = reachable_output_bases()
        assert len(bases) == 33 and relabelling_mismatches(bases) == []

    def test_labels_are_shared_and_read_only(self):
        # one array per (basis, model) is shared by every caller, so a write
        # into it would relabel every later table
        basis = network_for_setup("fig1", 4).unitary.out_modes
        labels = outcome_labels(basis, "pnrd")
        assert outcome_labels(basis, "pnrd") is labels
        with pytest.raises(ValueError, match="read-only"):
            labels[1] = "B9 B9"
        assert labels[1] == "A0 A1"
        assert "A0 A1" in compute_table("fig1", 4, "pnrd", "strict").groups[1].support

    @pytest.mark.parametrize("model", ["pnrd", "threshold"])
    def test_single_clicks_are_read_from_ids(self, model):
        # the quarantine never looks inside a label; the id rule must agree with it
        for basis in (path_modes(4), path_modes(4)[::-1], polarized_modes(4, POL_DIAGONAL)):
            table = outcome_labels(basis, model)
            size = len(basis)
            ids = [i * size + k for i in range(size) for k in range(i, size)]
            singletons = [(str(i), [i]) for i in ids]  # one state, and so one group, per outcome
            partition = grouping.partition(singletons, table, "fig1", model, "loss_conservative")
            flags = [group.quarantined for group in partition.groups]
            assert flags == [len(table[i].split()) == 1 for i in ids]
            assert sum(flags) == (size if model == "threshold" else 0)


class TestDistributions:
    def test_same_arm_pair_state_quarter_each(self):
        # four outcomes of probability 1/4: A0 A1, B0 B1, A2 A3, B2 B3
        dist = fig1_distribution(BellIndex(1, 0, 0))
        expected = {"A0 A1": 0.25, "B0 B1": 0.25, "A2 A3": 0.25, "B2 B3": 0.25}
        assert dist == pytest.approx(expected)

    def test_bunched_state_eighth_each(self):
        dist = fig1_distribution(BellIndex(0, 0, 0))
        assert len(dist) == 8
        for outcome, p in dist.items():
            first, second = outcome.split()
            assert first == second
            assert p == pytest.approx(0.125)

    def test_worked_hyper_example_eighth_each(self):
        state = make_hyper_state(BellIndex(2, 1, 0))
        dist = outcome_distribution(evolve(state, network_for_setup("fig2").unitary))
        assert set(dist) == {
            "A0+ A2-", "A0- A2+", "A1+ A3-", "A1- A3+",
            "B0+ B2-", "B0- B2+", "B1+ B3-", "B1- B3+",
        }
        for p in dist.values():
            assert p == pytest.approx(0.125, abs=1e-10)

    def test_threshold_collapses_bunched_outcomes(self):
        dist = fig1_distribution(BellIndex(0, 0, 0), model="threshold")
        assert set(dist) == {
            "A0", "A1", "A2", "A3", "B0", "B1", "B2", "B3"
        }
        for p in dist.values():
            assert p == pytest.approx(0.125)

    def test_threshold_is_probability_preserving_collapse(self):
        for idx in all_bell_indices(4):
            pnrd = fig1_distribution(idx)
            thresh = fig1_distribution(idx, model="threshold")
            merged: dict = {}
            for o, p in pnrd.items():
                key = collapse(o)
                merged[key] = merged.get(key, 0.0) + p
            assert set(merged) == set(thresh)
            for o, p in merged.items():
                assert thresh[o] == pytest.approx(p)

    def test_probabilities_sum_to_one_everywhere(self):
        for idx in all_bell_indices(4):
            for model in ("pnrd", "threshold"):
                total = sum(fig1_distribution(idx, model).values())
                assert abs(total - 1.0) < 1e-9
                state = make_hyper_state(idx)
                dist = outcome_distribution(evolve(state, network_for_setup("fig2").unitary), model)
                assert abs(sum(dist.values()) - 1.0) < 1e-9

    def test_unnormalized_state_rejected(self):
        # psi(A0, B0) = 0.7, psi(A1, B1) = 0.2: no such state reaches outcome_distribution
        with pytest.raises(ValueError, match="deviates from 1"):
            TwoPhotonState(2, path_modes(2), [2, 7], [0.7, 0.2])

    def test_nan_amplitude_fails_the_norm_check(self):
        # |sqrt(nan) - 1| > tol is False, so the check must be written to fail on NaN
        with pytest.raises(ValueError, match="deviates from 1"):
            TwoPhotonState(2, path_modes(2), [2, 7], [0.7071, math.nan])

    def test_distribution_round_trip(self):
        # written as JSON and not read back: every probability must survive
        # json exactly (a non-finite one would not compare equal)
        state = evolve(make_bell_state(4, BellIndex(2, 1, 0)), network_for_setup("fig1", 4).unitary)
        dist = outcome_distribution(state)
        assert json.loads(json.dumps(dist)) == dist
        # one entry per outcome id of the state, keyed by its label
        table = outcome_labels(state.basis, "pnrd")
        assert sorted(dist) == sorted(table[i] for i in state.ids.tolist())
        assert list(dist) == sorted(dist)

    def test_every_guarded_distribution_is_in_label_order(self):
        for dist in guarded_distributions():
            assert list(dist) == sorted(dist)


def bell_kets(idx, dim, pols=("",)):
    """Bell state ``idx`` as Fock kets, from its definition: every x and pol of
    (-1)**(n*x0 + m*x1) |1_(A, x, pol), 1_(B, x XOR j, pol)>, normalised."""
    c = 1 / math.sqrt(dim * len(pols))
    return [
        (Mode(A, x, p), Mode(B, x ^ idx.j, p), (-1) ** (idx.n * (x & 1) + idx.m * (x >> 1 & 1)) * c)
        for x in range(dim)
        for p in pols
    ]


@pytest.mark.parametrize("model", ["pnrd", "threshold"])
class TestFockOracle:
    """``outcome_distribution`` against two-boson permanents over Fock kets."""

    @staticmethod
    def assert_matches(state, kets, network, model):
        dist = outcome_distribution(evolve(state, network), model)
        expected = fock_outcome_probabilities(kets, network, model)
        assert dist == pytest.approx(expected, abs=1e-12)

    def test_single_kets(self, model):
        net = network_for_setup("fig1", 4).unitary
        a0, a1, b0, b3 = Mode(A, 0), Mode(A, 1), Mode(B, 0), Mode(B, 3)
        for m1, m2 in [(a0, a1), (b3, a1), (a1, a1), (b0, b3), (b3, b3)]:
            kets = [(m1, m2, 1.0)]
            self.assert_matches(from_kets(4, kets), kets, net, model)

    def test_hom_pair(self, model):
        # one photon in each input port of a 50:50 splitter: both leave together
        kets = [(Mode(A, 0), Mode(B, 0), 1.0)]
        net = network_for_setup("fig1", 4).unitary
        bunched = {"pnrd": {"A0 A0": 0.5, "B0 B0": 0.5}, "threshold": {"A0": 0.5, "B0": 0.5}}[model]
        assert fock_outcome_probabilities(kets, net, model) == pytest.approx(bunched)
        self.assert_matches(from_kets(4, kets), kets, net, model)

    def test_every_d4_bell_state_through_fig1_and_fig2(self, model):
        # every CLI pair at d <= 4, prepared and encoded; an encoded message is its Bell state
        for p in cli_pairs(4):
            kets = bell_kets(p.idx, p.state.dim, ("H", "V") if p.setup == "fig2" else ("",))
            self.assert_matches(p.state, kets, p.network, model)

    def test_random_unitaries(self, model):
        # every other network lists its output modes in reverse, and labels stay in mode order
        rng = np.random.default_rng(23)
        basis = path_modes(3)
        pairs = [(basis[i], basis[k]) for i in range(len(basis)) for k in range(i, len(basis))]
        for trial in range(10):
            chosen = rng.choice(len(pairs), size=4, replace=False)
            coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
            kets = [(*pairs[t], c) for t, c in zip(chosen, coeffs / np.linalg.norm(coeffs))]
            net = random_unitary(basis, rng)
            if trial % 2:
                net = SinglePhotonUnitary(basis, basis[::-1], net.matrix)
            self.assert_matches(from_kets(3, kets), kets, net, model)


class TestSampling:
    def test_point_mass(self):
        a0 = Mode(A, 0)
        dist = outcome_distribution(from_kets(2, [(a0, a0, 1.0)]))
        counts = sample(dist, 500, seed=3)
        assert counts == Counter({"A0 A0": 500})

    def test_same_seed_identical(self):
        dist = fig1_distribution(BellIndex(1, 0, 0))
        assert sample(dist, 10000, seed=42) == sample(dist, 10000, seed=42)
        assert sample(dist, 10000, seed=42) != sample(dist, 10000, seed=43)

    def test_uniform_four_outcomes_within_five_sigma(self):
        dist = fig1_distribution(BellIndex(1, 0, 0))
        shots = 100_000
        counts = sample(dist, shots, seed=7)
        sigma = math.sqrt(0.25 * 0.75 / shots)
        for outcome in dist:
            freq = counts[outcome] / shots
            assert abs(freq - 0.25) < 5 * sigma

    def test_invalid_shots(self):
        dist = fig1_distribution(BellIndex(1, 0, 0))
        with pytest.raises(ValueError, match="shots must be an integer >= 1, got 0"):
            sample(dist, 0, seed=1)

    @pytest.mark.parametrize(
        "shots,seed,message",
        [
            (2.5, 0, "shots"),  # numpy drew 2 shots
            (2.0, 0, "shots"),
            (True, 0, "shots"),
            (10, -1, "seed"),
            (10, 1.5, "seed"),
            (10, True, "seed"),
        ],
    )
    def test_non_integer_shots_and_bad_seeds_rejected(self, shots, seed, message):
        dist = fig1_distribution(BellIndex(1, 0, 0))
        with pytest.raises(ValueError, match=f"{message} must be an integer"):
            sample(dist, shots, seed)

    def test_shots_beyond_the_draw_rejected(self):
        # numpy's multinomial raised OverflowError on a count above 2**63 - 1
        dist = fig1_distribution(BellIndex(1, 0, 0))
        with pytest.raises(ValueError, match="shots must be at most"):
            sample(dist, MAX_SHOTS + 1, 0)
        assert sum(sample(dist, MAX_SHOTS, 0).values()) == MAX_SHOTS == 2**63 - 1

    @pytest.mark.parametrize(
        "probs",
        [
            {},
            {"A0 A0": math.nan, "A1 A1": 1.0},
            {"A0 A0": math.inf},
            {"A0 A0": -0.5, "A1 A1": 1.5},  # sums to 1
            {"A0 A0": 3, "A1 A1": 5},  # counts, not probabilities
        ],
        ids=["empty", "nan", "infinite", "negative", "counts"],
    )
    def test_a_map_that_is_no_distribution_rejected(self, probs):
        # any mapping reaches the draw, which would otherwise renormalise it
        with pytest.raises(ValueError, match="outcome probabilities must be finite, >= 0 and sum to 1 within 1e-09"):
            sample(probs, 10, 0)

    def test_a_zero_probability_is_valid_and_never_drawn(self):
        # >= 0, not > 0: a mapping may list an outcome it cannot give
        assert sample({"A0 A0": 1.0, "A1 A1": 0.0}, 10, 0) == Counter({"A0 A0": 10})

    def test_numpy_integers_are_valid(self):
        dist = fig1_distribution(BellIndex(1, 0, 0))
        assert sample(dist, np.int64(1000), np.uint32(7)) == sample(dist, 1000, 7)

    def test_chi_square_consistency_over_100_seeds(self):
        # stat should beat the 0.999 quantile in fewer than 1% of runs
        dist = fig1_distribution(BellIndex(1, 0, 0))
        shots = 100_000
        items = dist.items()
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
        dists = list(guarded_distributions())
        assert len(dists) == 2 * (4 + 16 + 64 + 16)
        assert sampling_mismatches(dists, 100_000, seed) == []

    def test_counts_total_equals_shots(self):
        rng = np.random.default_rng(5)
        dist = fig1_distribution(BellIndex(0, 1, 1))
        for _ in range(5):
            shots = int(rng.integers(1, 5000))
            assert sum(sample(dist, shots, seed=int(rng.integers(1 << 30))).values()) == shots
