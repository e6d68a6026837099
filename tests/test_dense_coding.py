"""Tests for the end-to-end superdense-coding round trip."""

import json
import math

import numpy as np
import pytest

from bellsort import (
    BellIndex,
    SdcConfig,
    all_bell_indices,
    make_bell_state,
    make_hyper_state,
    network_for_setup,
    dense_coding,
    outcome_distribution,
    run_sdc,
)
from bellsort.networks import prepared_state
from conftest import approx_equal

REFERENCE = BellIndex(0, 0, 0)  # the pair the receiver prepares before any encoding


def record_calls(monkeypatch, *names):
    """Record the arguments of each call ``run_sdc`` makes to the named functions."""
    calls = {name: [] for name in names}

    def counted(name):
        real = getattr(dense_coding, name)

        def wrapper(*args):
            calls[name].append(args)
            return real(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(dense_coding, name, counted(name))
    return calls


class TestConfig:
    def test_defaults(self):
        config = SdcConfig()
        assert (config.setup, config.model, config.policy) == ("fig1", "pnrd", "strict")
        assert (config.seed, config.shots) == (0, 1000)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^unknown setup 'fig3', expected one of \('fig1', 'fig2'\)$"):
            SdcConfig(setup="fig3")
        with pytest.raises(ValueError, match="unknown detector model 'ideal'"):
            SdcConfig(model="ideal")
        with pytest.raises(ValueError, match="shots must be an integer >= 1, got 0"):
            SdcConfig(shots=0)
        with pytest.raises(ValueError, match="unknown policy 'lossy'"):
            SdcConfig(policy="lossy")

    @pytest.mark.parametrize("shots", [1.5, 2.0, True, "10", None])
    def test_non_integer_shots_rejected(self, shots):
        # numpy drew 1 shot per message for shots=1.5 while accuracy counted 1.5
        with pytest.raises(ValueError, match="shots must be an integer >= 1"):
            SdcConfig(shots=shots)

    def test_shots_beyond_the_draw_rejected_before_any_evolve(self, monkeypatch):
        # run_sdc evolved all 16 messages and then overflowed inside numpy's draw
        calls = record_calls(monkeypatch, "encode", "evolve_all")
        with pytest.raises(ValueError, match="shots must be at most 9223372036854775807"):
            run_sdc(SdcConfig(shots=2**64))
        assert calls == {"encode": [], "evolve_all": []}

    @pytest.mark.parametrize("seed", [-1, 1.5, 0.0, True, "3", None])
    def test_negative_or_non_integer_seed_rejected(self, seed):
        # seed=-1 used to evolve all 16 messages and then fail inside numpy
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            SdcConfig(seed=seed)

    def test_numpy_integers_are_valid(self):
        report = run_sdc(SdcConfig(shots=np.int64(3), seed=np.uint8(5)))
        assert report.message_counts == run_sdc(SdcConfig(shots=3, seed=5)).message_counts

    def test_numpy_integers_are_stored_as_int(self):
        # json.dumps raised TypeError on the np.int64 shots and seed of the report
        config = SdcConfig(shots=np.int64(3), seed=np.int64(1))
        assert (type(config.shots), type(config.seed)) == (int, int)
        expected = json.dumps(run_sdc(SdcConfig(shots=3, seed=1)).to_dict())
        assert json.dumps(run_sdc(config).to_dict()) == expected


class TestReferenceState:
    def test_fig1_reference(self):
        assert approx_equal(prepared_state("fig1", 4, REFERENCE), make_bell_state(4, REFERENCE), up_to_phase=False)

    def test_fig2_reference(self):
        assert approx_equal(prepared_state("fig2", 4, REFERENCE), make_hyper_state(REFERENCE), up_to_phase=False)

    @pytest.mark.parametrize("dim", [2, 8])
    def test_fig2_rejects_another_dimension(self, dim):
        # dim was ignored: fig2 at dim 2 returned the d = 4 hyper state
        message = "the ancilla-assisted setup is defined for dimension 4"
        with pytest.raises(ValueError, match=message):
            network_for_setup("fig2", dim)
        with pytest.raises(ValueError, match=message):
            prepared_state("fig2", dim, REFERENCE)


class TestRoundTrip:
    @pytest.mark.parametrize("setup", ["fig1", "fig2"])
    def test_every_message_decodes_to_its_own_group(self, setup):
        report = run_sdc(SdcConfig(setup=setup, shots=200, seed=5))
        assert report.accuracy == 1.0
        own_groups = {label: g.index for g in report.table.groups for label in g.members}
        for label, per_group in report.message_counts.items():
            assert per_group == {own_groups[label]: 200}

    def test_every_message_single_shot(self):
        report = run_sdc(SdcConfig(shots=1))
        assert report.accuracy == 1.0
        assert report.message_counts["psi000"] == {1: 1}
        assert [sum(c.values()) for c in report.message_counts.values()] == [1] * 16

    def test_counts_sum_to_shots(self):
        report = run_sdc(SdcConfig(setup="fig2", shots=321, seed=9))
        for per_group in report.message_counts.values():
            assert sum(per_group.values()) == 321

    def test_bits_per_photon(self):
        assert run_sdc(SdcConfig(shots=1)).bits_per_photon == pytest.approx(math.log2(7))
        report = run_sdc(SdcConfig(setup="fig2", shots=1))
        assert report.bits_per_photon == pytest.approx(math.log2(12))
        report = run_sdc(
            SdcConfig(setup="fig1", model="threshold", policy="loss_conservative", shots=1)
        )
        assert report.bits_per_photon == pytest.approx(math.log2(6))

    def test_deterministic_given_seed(self):
        a = run_sdc(SdcConfig(setup="fig2", shots=500, seed=123))
        b = run_sdc(SdcConfig(setup="fig2", shots=500, seed=123))
        assert a.message_counts == b.message_counts

    def test_threshold_model_still_decodes_perfectly(self):
        report = run_sdc(SdcConfig(model="threshold", shots=100, seed=2))
        assert report.accuracy == 1.0

    @pytest.mark.parametrize("setup", ["fig1", "fig2"])
    def test_within_group_messages_are_support_indistinguishable(self, setup):
        # messages sharing a group produce the same empirical outcome sets
        from bellsort import encode, evolve, network_for_setup, outcome_distribution, sample

        network = network_for_setup(setup).unitary
        ref = prepared_state(setup, 4, REFERENCE)
        report = run_sdc(SdcConfig(setup=setup, shots=1))
        shots = 10_000
        index_of = {idx.label: idx for idx in all_bell_indices(4)}
        for group in report.table.groups:
            observed = []
            for label in group.members:
                idx = index_of[label]
                dist = outcome_distribution(evolve(encode(ref, [idx])[0], network))
                observed.append(frozenset(sample(dist, shots, seed=77).keys()))
            assert len(set(observed)) == 1

    def test_every_message_is_evolved_once(self, monkeypatch):
        # the 16 messages are encoded in one call and evolved as one family of 16
        calls = record_calls(monkeypatch, "encode", "evolve_all", "outcome_distribution")
        run_sdc(SdcConfig(setup="fig2", shots=10))
        assert {name: len(args) for name, args in calls.items()} == {
            "encode": 1, "evolve_all": 1, "outcome_distribution": 16
        }
        assert [len(states) for states, _ in calls["evolve_all"]] == [16]

    def test_each_message_is_detected_and_drawn_once(self, monkeypatch):
        # one distribution per evolved message, drawn once with its derived seed
        calls = record_calls(monkeypatch, "evolve_all", "outcome_distribution", "sample")
        report = run_sdc(SdcConfig(setup="fig2", shots=10, seed=3))
        assert {name: len(args) for name, args in calls.items()} == {
            "evolve_all": 1, "outcome_distribution": 16, "sample": 16
        }
        assert [(shots, seed) for _, shots, seed in calls["sample"]] == [(10, 3 + k) for k in range(16)]
        assert [dist for dist, _, _ in calls["sample"]] == [
            outcome_distribution(state, "pnrd") for state, _ in calls["outcome_distribution"]
        ]
        assert report.accuracy == 1.0


class TestReportSerialization:
    def test_round_trip(self):
        # written as JSON and not read back: the written report must survive
        # json unchanged and hold the run's figures
        report = run_sdc(SdcConfig(setup="fig2", shots=50, seed=4))
        data = report.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["config"] == {
            "setup": "fig2", "model": "pnrd", "policy": "strict", "seed": 4, "shots": 50
        }
        assert data["table"] == report.table.to_dict()
        assert data["accuracy"] == report.accuracy
        assert data["bits_per_photon"] == report.bits_per_photon
        assert len(data["message_counts"]) == 16
        assert all(sum(c.values()) == 50 for c in data["message_counts"].values())
