"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import math

import numpy as np
import pytest

from bellsort import (
    BellIndex,
    SdcConfig,
    all_bell_indices,
    channel_capacity,
    classify,
    diff_against_reference,
    encode,
    encoding_unitary,
    evolve,
    load_reference_tables,
    make_bell_state,
    make_hyper_state,
    network_for_setup,
    outcome_distribution,
    reference_state,
    run_sdc,
    sample,
)
from bellsort.cli import compute_table, main
from bellsort.modes import path_modes
from conftest import oracle_evolve, oracle_inner, random_two_photon_state, random_unitary

REFERENCE = load_reference_tables()


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def table_content(table):
    return {
        frozenset(g.members): frozenset(o.label for o in g.support) for g in table.groups
    }


def test_criterion_1_beam_splitter_table_reproduction():
    table = compute_table("fig1", 4, "pnrd", "strict")
    expected = {ref.members: ref.outcomes for ref in REFERENCE.groups_for("fig1")}
    ok = (
        len(table.groups) == 7
        and table_content(table) == expected
        and diff_against_reference(table, REFERENCE.groups_for("fig1")) == []
    )
    report("criterion 1: beam-splitter setup reproduces the 7-group table exactly", ok)


def test_criterion_2_ancilla_table_reproduction():
    table = compute_table("fig2", 4, "pnrd", "strict")
    expected = {ref.members: ref.outcomes for ref in REFERENCE.groups_for("fig2")}
    ok = (
        len(table.groups) == 12
        and table_content(table) == expected
        and diff_against_reference(table, REFERENCE.groups_for("fig2")) == []
    )
    report("criterion 2: ancilla-assisted setup reproduces the 12-group table exactly", ok)


def test_criterion_3_channel_capacities():
    cases = [
        ("fig1", "pnrd", "strict", 7),
        ("fig1", "threshold", "loss_conservative", 6),
        ("fig2", "pnrd", "strict", 12),
        ("fig2", "threshold", "loss_conservative", 11),
    ]
    ok = True
    values = []
    for setup, model, policy, k in cases:
        cap = channel_capacity(compute_table(setup, 4, model, policy))
        values.append(f"{cap:.3f}")
        quoted = float(REFERENCE.capacities[setup][model]["bits_text"])
        ok = ok and abs(cap - math.log2(k)) < 1e-12 and abs(cap - quoted) <= 0.01
    report(
        "criterion 3: capacities equal log2(7)/log2(6)/log2(12)/log2(11) and match "
        "the quoted two-decimal figures",
        ok,
        ", ".join(values),
    )


def test_criterion_4_two_dimensional_baseline():
    table = compute_table("fig1", 2, "pnrd", "strict")
    memberships = {frozenset(g.members) for g in table.groups}
    ok = len(table.groups) == 3 and memberships == {
        frozenset({"psi000", "psi010"}),
        frozenset({"psi100"}),
        frozenset({"psi110"}),
    }
    report("criterion 4: the d=2 pipeline yields exactly 3 groups", ok)


def test_criterion_5_worked_example_support_and_uniformity():
    state = make_hyper_state(BellIndex(2, 1, 0))
    network = network_for_setup("fig2").unitary
    dist = outcome_distribution(evolve(state, network))
    expected_support = {
        "A0+ A2-", "A0- A2+", "A1+ A3-", "A1- A3+",
        "B0+ B2-", "B0- B2+", "B1+ B3-", "B1- B3+",
    }
    support_ok = {o.label for o in dist.support} == expected_support
    uniform_ok = all(abs(p - 0.125) < 1e-10 for p in dist.probs.values())
    # cross-check uniformity against the first-quantized oracle
    oracle_amps = oracle_evolve(state, network)
    oracle_ok = all(abs(2 * abs(a) ** 2 - 0.125) < 1e-10 for a in oracle_amps.values())
    report(
        "criterion 5: worked-example evolution hits exactly 8 outcomes uniformly at 1/8",
        support_ok and uniform_ok and oracle_ok,
    )


def test_criterion_6_oracle_equivalence_100_random_pairs():
    rng = np.random.default_rng(2024)
    basis = path_modes(4)
    worst = 0.0
    for _ in range(100):
        state = random_two_photon_state(4, basis, rng)
        net = random_unitary(basis, rng)
        evolved = evolve(state, net)
        expected = oracle_evolve(state, net)
        for key in set(evolved.amps) | set(expected):
            worst = max(worst, abs(evolved.amps.get(key, 0.0) - expected.get(key, 0.0)))
    report(
        "criterion 6: evolution matches the first-quantized oracle on 100 random pairs",
        worst < 1e-10,
        f"max deviation {worst:.2e}",
    )


def test_criterion_7_property_suites():
    # Gram orthonormality of the 16 states
    basis = path_modes(4)
    states = [make_bell_state(4, idx) for idx in all_bell_indices(4)]
    gram = np.array([[oracle_inner(a, b, basis) for b in states] for a in states])
    gram_ok = np.max(np.abs(gram - np.eye(16))) <= 1e-12

    # unitarity of both networks and all 16 encoding operators
    unitarity_ok = True
    for setup, dim in (("fig1", 4), ("fig1", 2), ("fig2", 4)):
        net = network_for_setup(setup, dim).unitary
        defect = np.max(np.abs(net.matrix @ net.matrix.conj().T - np.eye(net.dim)))
        unitarity_ok = unitarity_ok and defect <= 1e-10
    for idx in all_bell_indices(4):
        mat = encoding_unitary(4, idx).matrix
        unitarity_ok = unitarity_ok and np.max(np.abs(mat @ mat.conj().T - np.eye(4))) <= 1e-10

    # probability normalization of every distribution, both setups and models
    norm_ok = True
    for idx in all_bell_indices(4):
        for model in ("pnrd", "threshold"):
            d1 = outcome_distribution(
                evolve(make_bell_state(4, idx), network_for_setup("fig1", 4).unitary), model
            )
            d2 = outcome_distribution(
                evolve(make_hyper_state(idx), network_for_setup("fig2").unitary), model
            )
            norm_ok = norm_ok and abs(sum(d1.probs.values()) - 1.0) <= 1e-9
            norm_ok = norm_ok and abs(sum(d2.probs.values()) - 1.0) <= 1e-9

    # encoding one photon of the reference equals direct construction
    ref = reference_state("fig1")
    encode_ok = all(
        encode(ref, idx, "second").approx_equal(make_bell_state(4, idx))
        for idx in all_bell_indices(4)
    )

    report(
        "criterion 7: Gram identity, unitarity, normalization, and encode-vs-construct "
        "property suites",
        gram_ok and unitarity_ok and norm_ok and encode_ok,
    )


def test_criterion_8_monte_carlo_and_reproducibility(capsys):
    dist = outcome_distribution(
        evolve(make_bell_state(4, BellIndex(1, 0, 0)), network_for_setup("fig1", 4).unitary)
    )
    shots = 100_000
    counts = sample(dist, shots, seed=7)
    sigma = math.sqrt(0.25 * 0.75 / shots)
    stat_ok = len(dist.support) == 4 and all(
        abs(counts[o] / shots - 0.25) < 5 * sigma for o in dist.support
    )

    args = ["sample", "--state", "1,0,0", "--setup", "fig1", "--shots", "100000", "--seed", "7"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    report(
        "criterion 8: 1e5-shot frequencies within 5 sigma of 1/4 and byte-identical "
        "seeded reports",
        stat_ok and first == second and len(first) > 0,
    )


def test_criterion_9_superdense_coding_round_trip():
    ok = True
    for setup in ("fig1", "fig2"):
        rep = run_sdc(SdcConfig(setup=setup, shots=1000, seed=1))
        ok = ok and rep.accuracy == 1.0 and len(rep.message_counts) == 16

        # messages inside one group are pairwise support-indistinguishable
        network = network_for_setup(setup).unitary
        ref = reference_state(setup)
        for group in rep.table.groups:
            seen = set()
            for label in group.members:
                idx = BellIndex.from_label(label)
                dist = outcome_distribution(evolve(encode(ref, idx, "second"), network))
                seen.add(frozenset(sample(dist, 10_000, seed=11).keys()))
            ok = ok and len(seen) == 1
    report(
        "criterion 9: decode accuracy exactly 1.0 over all 16 messages in both setups, "
        "within-group messages indistinguishable",
        ok,
    )
