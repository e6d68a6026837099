"""Tests for the end-to-end superdense-coding round trip."""

import math

import pytest

from bellsort import (
    BellIndex,
    SdcConfig,
    SdcReport,
    all_bell_indices,
    make_bell_state,
    make_hyper_state,
    reference_state,
    run_sdc,
)


class TestConfig:
    def test_defaults(self):
        config = SdcConfig()
        assert (config.setup, config.model, config.policy) == ("fig1", "pnrd", "strict")

    def test_validation(self):
        with pytest.raises(ValueError):
            SdcConfig(setup="fig3")
        with pytest.raises(ValueError):
            SdcConfig(shots=0)
        with pytest.raises(ValueError):
            SdcConfig(policy="lossy")


class TestReferenceState:
    def test_fig1_reference(self):
        assert reference_state("fig1").approx_equal(
            make_bell_state(4, BellIndex(0, 0, 0)), up_to_phase=False
        )

    def test_fig2_reference(self):
        assert reference_state("fig2").approx_equal(
            make_hyper_state(BellIndex(0, 0, 0)), up_to_phase=False
        )


class TestRoundTrip:
    @pytest.mark.parametrize("setup", ["fig1", "fig2"])
    def test_every_message_decodes_to_its_own_group(self, setup):
        report = run_sdc(SdcConfig(setup=setup, shots=200, seed=5))
        assert report.accuracy == 1.0
        for label, per_group in report.message_counts.items():
            own = report.table.group_of(label).index
            assert per_group == {own: 200}

    def test_single_message_single_shot(self):
        report = run_sdc(SdcConfig(shots=1), messages=[BellIndex(0, 0, 0)])
        assert report.accuracy == 1.0
        assert report.message_counts == {"psi000": {1: 1}}

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
        ref = reference_state(setup)
        report = run_sdc(SdcConfig(setup=setup, shots=1), messages=[BellIndex(0, 0, 0)])
        shots = 10_000
        for group in report.table.groups:
            observed = []
            for label in group.members:
                idx = BellIndex.from_label(label)
                dist = outcome_distribution(evolve(encode(ref, idx, "second"), network))
                observed.append(frozenset(sample(dist, shots, seed=77).keys()))
            assert len(set(observed)) == 1

    def test_every_message_is_evolved_once(self, monkeypatch):
        from bellsort import grouping

        evolved = []
        real_evolve = grouping.evolve

        def counting_evolve(state, network):
            evolved.append(state)
            return real_evolve(state, network)

        monkeypatch.setattr(grouping, "evolve", counting_evolve)
        run_sdc(SdcConfig(setup="fig2", shots=10))
        assert len(evolved) == 16

    def test_invalid_message_rejected(self):
        with pytest.raises(ValueError):
            run_sdc(SdcConfig(shots=1), messages=[BellIndex(5, 0, 0)])


class TestReportSerialization:
    def test_round_trip(self):
        report = run_sdc(SdcConfig(setup="fig2", shots=50, seed=4))
        again = SdcReport.from_dict(report.to_dict())
        assert again.config == report.config
        assert again.table == report.table
        assert again.message_counts == dict(report.message_counts)
        assert again.accuracy == report.accuracy
        assert again.bits_per_photon == report.bits_per_photon
