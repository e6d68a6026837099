"""Gate sensitivity: each committed gate must report a known-bad change.

A gate that passes on broken code guards nothing. Each test here applies one
mutation, to the code with ``monkeypatch`` or to a copy of the data, and
asserts that the gate's own check function, the one its test asserts empty,
reports a failure. This is mutation testing in
miniature (DeMillo, Lipton & Sayward, IEEE Computer 11(4), 1978).
"""

import inspect
import json
import math
import re
import textwrap
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from bellsort import (
    NetworkSpec, SdcConfig, SinglePhotonUnitary, TwoPhotonState, all_bell_indices, cli, dense_coding, detection,
    diff_against_reference, evolve, grouping, load_reference_tables, make_bell_state, make_hyper_state,
    network_for_setup, networks, run_sdc, states,
)
from bellsort.detection import MODEL_PNRD, outcome_labels
from bellsort.grouping import compute_table
from bellsort.modes import path_modes
from conftest import cli_pairs, evolve_each, evolve_families, from_kets
from test_builder import builder_defects
from test_class_bound import class_bound_violations
from test_cli import copy_references
from test_cli_golden import STDOUT_DIGEST, golden_digest_mismatches
from test_detection import guarded_distributions, reachable_output_bases, relabelling_mismatches, sampling_mismatches
from test_exact_oracle import exact_support_mismatches, stage_matrix_mismatches
from test_exact_real import complex_evolution_mismatches
from test_grouping import CLOSED_FORM_CASES, ID_CONTAINERS, closed_form_mismatches, pairwise_search_mismatches
from test_laws import (
    COMPOSITION_FAMILIES, HOM_ANGLES, MULTIPORT_DIMS, RELABELLED_FAMILIES, composition_mismatches, hom_mismatches,
    relabelled_group_mismatches, zero_transmission_mismatches,
)
from test_networks import (
    INV_SQRT2, NETWORK_DIGESTS, network_digest_mismatches, oracle_mismatches, random_oracle_cases,
)
from stdout_digest import stdout_digest

ONE_ULP_UP = 1 + 2**-52  # the next float64 after 1


def network_gates_under(patch, name, value):
    """The network digest and stage matrix mismatches with ``networks.<name>`` set to ``value``, built afresh."""
    network_for_setup.cache_clear()
    try:
        with patch.context() as mutated:
            mutated.setattr(networks, name, value)
            return network_digest_mismatches(), stage_matrix_mismatches()
    finally:
        network_for_setup.cache_clear()


def test_network_digests_catch_a_moved_beam_splitter_sign(monkeypatch):
    # still unitary; the analyzer shares the 2 x 2 block, so its minus sign moves too
    digests, stages = network_gates_under(monkeypatch, "_HADAMARD", np.array([[-1.0, 1.0], [1.0, 1.0]]) * INV_SQRT2)
    # every network has a beam-splitter stage
    assert digests == list(NETWORK_DIGESTS)
    assert stages == [
        ("fig1", 2, "bs_hadamard"), ("fig1", 4, "bs_hadamard"),
        ("fig2", 4, "bs_hadamard"), ("fig2", 4, "pbs45_basis_change"),
    ]
    assert network_digest_mismatches() == [] and stage_matrix_mismatches() == []


def test_network_and_stage_gates_catch_kronecker_factors_in_the_wrong_order(monkeypatch):
    # every stage stays unitary, with its factors acting on the wrong modes
    swapped = SimpleNamespace(**{**vars(np), "kron": lambda first, second: np.kron(second, first)})
    digests, stages = network_gates_under(monkeypatch, "np", swapped)
    assert digests == list(NETWORK_DIGESTS)
    assert stages == [
        ("fig1", 2, "bs_hadamard"), ("fig1", 4, "bs_hadamard"),
        ("fig2", 4, "pbs0_rail_swap"), ("fig2", 4, "bs_hadamard"), ("fig2", 4, "pbs45_basis_change"),
    ]
    assert network_digest_mismatches() == [] and stage_matrix_mismatches() == []


def test_builder_gate_catches_built_states_of_norm_two(monkeypatch):
    # doubling the Bell signs keeps every array in bounds and doubles the norm
    def built():
        return [make_bell_state(4, idx) for idx in all_bell_indices(4)] + [
            make_hyper_state(idx) for idx in all_bell_indices(4)
        ]

    # _xor_table caches the scaled signs, and a warm cache would hide the
    # mutation, or keep it after the undo
    sylvester = states._sylvester
    try:
        with monkeypatch.context() as patch:
            patch.setattr(states, "_sylvester", lambda dim: 2 * sylvester(dim))
            states._xor_table.cache_clear()
            defects = [builder_defects(state) for state in built()]
    finally:
        states._xor_table.cache_clear()
    norms = [float(d[0].split()[3]) for d in defects if len(d) == 1 and d[0].startswith("rejected: state norm")]
    assert len(norms) == 32 and np.allclose(norms, 2.0)
    assert [builder_defects(state) for state in built()] == [[]] * 32


def test_builder_gate_catches_built_pairs_out_of_row_major_order(monkeypatch):
    # reversed arrays keep every pair in bounds and the norm at 1; encode sorts
    # the pairs it reads again, and evolve looks each one up in any order
    build = TwoPhotonState._build.__func__

    def reversed_build(cls, dim, basis, ids, vals):
        return build(cls, dim, basis, ids[::-1], vals[::-1])

    def built():
        return [state for p in cli_pairs(4) for state in (p.state, evolve(p.state, p.network))]

    with monkeypatch.context() as patch:
        patch.setattr(TwoPhotonState, "_build", classmethod(reversed_build))
        defects = [builder_defects(state) for state in built()]
    # prepared, encoded and evolved: fig1 at d = 2 and 4, then fig2
    assert len(defects) == 2 * (2 * (4 + 16) + 2 * 16)
    assert defects == [["rejected: pair indices must be distinct and in row-major order"]] * len(defects)
    assert [builder_defects(state) for state in built()] == [[]] * len(defects)


def test_exact_oracle_catches_a_pruning_threshold_above_a_quarter(monkeypatch):
    # every fig2 output amplitude is +-1/4, so all of them are pruned; fig1's
    # are 1/2 (d = 2) and sqrt(2)/4 (d = 4) and stay
    pairs = list(cli_pairs(4))
    with monkeypatch.context() as patch:
        patch.setattr(networks, "AMP_PRUNE", 0.3)
        mismatches = exact_support_mismatches(pairs)
    assert mismatches == [t for t, p in enumerate(pairs) if p.setup == "fig2"]
    assert len(mismatches) == 32
    assert exact_support_mismatches(pairs) == []


def test_class_bound_catches_a_pruning_threshold_of_0_3(monkeypatch):
    # pruned amplitudes take outcomes out of the supports, so groups split
    # into more classes than linear optics allows; up to 16 singletons at d = 4
    with monkeypatch.context() as patch:
        patch.setattr(networks, "AMP_PRUNE", 0.3)
        violations = class_bound_violations(4, count=100)
    assert violations
    assert class_bound_violations(4, count=100) == []


def test_exact_real_guard_catches_one_ulp_on_the_second_weights(monkeypatch):
    # evolve's right factor is the table's second weight U[q, b]; the guard's
    # complex reference reads the plain matrix, so it must see one ulp of difference
    pairs = [(p.state, p.network) for p in cli_pairs()]
    cached = SinglePhotonUnitary.pair_terms

    def scaled(u):
        table = cached.__get__(u)
        return table._replace(second=table.second * ONE_ULP_UP)

    for through in (evolve_each, evolve_families):
        with monkeypatch.context() as patch:
            patch.setattr(SinglePhotonUnitary, "pair_terms", property(scaled))
            mismatches = complex_evolution_mismatches(pairs, through)
        assert [position for position, _ in mismatches] == list(range(len(pairs)))
        assert complex_evolution_mismatches(pairs, through) == []


def test_kron_oracle_catches_a_table_built_from_rows(monkeypatch):
    # second weights U[b, q] read from U's rows instead of its columns: U psi U
    # instead of U psi U^T. Every fig1 matrix is symmetric, so only networks
    # like these random unitaries can show it. On them evolve's own norm
    # check fails too; the last case passes it (rotating A0 into A1 on a
    # diagonal psi leaves U psi U with equal off-diagonal magnitudes), so
    # only the amplitude comparison can catch that one
    cases = random_oracle_cases(4, 104, count=10)
    c, s = math.cos(0.3), math.sin(0.3)
    rotation = np.eye(4)
    rotation[:2, :2] = [[c, -s], [s, c]]
    modes = path_modes(2)
    bunched = from_kets(2, [(modes[0], modes[0], INV_SQRT2), (modes[1], modes[1], INV_SQRT2)])
    cases.append((bunched, SinglePhotonUnitary(modes, modes, rotation)))
    cached = SinglePhotonUnitary.pair_terms

    def from_rows(u):
        table = cached.__get__(u)
        rows = cached.__get__(SinglePhotonUnitary(u.out_modes, u.in_modes, u.matrix.T))
        # U and U^T have one nonzero pattern here, so their terms line up
        assert np.array_equal(rows.keys, table.keys)
        return table._replace(second=rows.second)

    for through in (evolve_each, evolve_families):
        with monkeypatch.context() as patch:
            patch.setattr(SinglePhotonUnitary, "pair_terms", property(from_rows))
            mismatches = oracle_mismatches(cases, through)
        assert mismatches == list(range(len(cases)))
        assert oracle_mismatches(cases, through) == []


def test_hom_sweep_catches_an_evolution_that_drops_the_imaginary_sum(monkeypatch):
    # the coincidence amplitude is real at every phase; the bunched ones are
    # complex at phase 0.7, so dropping their imaginary parts breaks the norm
    # wherever the photons can bunch: every angle but the two ends
    dropped = "sums = sums + 1j * np.bincount(keys, terms.imag.ravel())"
    source = inspect.getsource(networks._evolved)
    assert source.count(dropped) == 1
    namespace = {}
    exec(source.replace(dropped, "pass"), vars(networks), namespace)
    with monkeypatch.context() as patch:
        patch.setattr(networks, "_evolved", namespace["_evolved"])
        mismatches = hom_mismatches()
    assert mismatches == [(theta, 0.7) for theta in HOM_ANGLES[1:-1]]
    assert hom_mismatches() == []


def test_relabelled_groups_catch_an_evolution_that_drops_the_imaginary_sum(monkeypatch):
    # the appended phases make every product complex, so dropping the
    # imaginary sums breaks the norm on every relabelled network
    dropped = "sums = sums + 1j * np.bincount(keys, terms.imag.ravel())"
    source = inspect.getsource(networks._evolved)
    assert source.count(dropped) == 1
    namespace = {}
    exec(source.replace(dropped, "pass"), vars(networks), namespace)
    with monkeypatch.context() as patch:
        patch.setattr(networks, "_evolved", namespace["_evolved"])
        mismatches = relabelled_group_mismatches()
    assert mismatches == [(setup, dim, case) for setup, dim in RELABELLED_FAMILIES for case in range(5)]
    assert relabelled_group_mismatches() == []


def test_hom_sweep_catches_conjugated_second_weights(monkeypatch):
    # evolve then forms U psi U^dagger: the coincidence probability becomes
    # c^4 + s^4 - 2 c^2 s^2 cos(2 phi), off cos²(2 theta) wherever phi = 0.7
    # and the photons can bunch. The zero-transmission law and the appended
    # relabelling cannot see it: on the Fourier multiport it turns
    # exp(2 pi i q a / M) into exp(-2 pi i q a / M) and keeps every magnitude,
    # and after a real network it changes only phases
    cached = SinglePhotonUnitary.pair_terms

    def conjugated(u):
        table = cached.__get__(u)
        return table._replace(second=table.second.conj())

    with monkeypatch.context() as patch:
        patch.setattr(SinglePhotonUnitary, "pair_terms", property(conjugated))
        mismatches = hom_mismatches()
    assert mismatches == [(theta, 0.7) for theta in HOM_ANGLES[1:-1]]
    assert hom_mismatches() == []


def test_zero_transmission_law_catches_an_antisymmetric_evolution(monkeypatch):
    # the second orientation's terms with a minus sign: fermions in place of
    # bosons, whose pairs leave the multiport by exactly the odd sums
    cached = SinglePhotonUnitary.pair_terms

    def antisymmetric(u):
        table = cached.__get__(u)
        second = table.second.copy()
        second[:, second.shape[1] // 2 :] *= -1  # each row holds orientation (i, j)'s slots, then (j, i)'s
        return table._replace(second=second)

    with monkeypatch.context() as patch:
        patch.setattr(SinglePhotonUnitary, "pair_terms", property(antisymmetric))
        mismatches = zero_transmission_mismatches()
    assert mismatches == [(dim, a) for dim in MULTIPORT_DIMS for a in range(dim)]
    assert zero_transmission_mismatches() == []


def test_composition_law_catches_a_stage_product_in_reverse_order(monkeypatch):
    # U1 U2 for U2 U1; the law's networks are new specs, so no cached product
    # hides the mutation, and the cached setups keep the products they hold
    in_order = 'np.einsum("ik,kj->ij", stage.unitary.matrix, product)'
    source = textwrap.dedent(inspect.getsource(NetworkSpec.unitary.func))
    assert source.count(in_order) == 1
    namespace = {}
    exec(source.replace(in_order, 'np.einsum("ik,kj->ij", product, stage.unitary.matrix)'), vars(networks), namespace)
    reversed_product = namespace["unitary"]
    reversed_product.__set_name__(NetworkSpec, "unitary")
    with monkeypatch.context() as patch:
        patch.setattr(NetworkSpec, "unitary", reversed_product)
        mismatches = composition_mismatches()
    # every state of every family, in both cases
    assert len(mismatches) == 2 * sum(len(all_bell_indices(dim)) for _, dim in COMPOSITION_FAMILIES) == 72
    assert composition_mismatches() == []


def test_golden_digests_catch_threshold_classify_reading_pnrd_outcomes(monkeypatch):
    # the PNRD labels keep a bunched pair as two clicks, so classify under the
    # threshold model labels the bunched outcomes "A0 A0" instead of "A0"; the
    # quarantine reads the ids, so every capacity, and so verify, stays right
    with monkeypatch.context() as patch:
        patch.setattr(grouping, "outcome_labels", lambda basis, model: outcome_labels(basis, MODEL_PNRD))
        mismatches = golden_digest_mismatches()
    # the threshold command that prints a table; sdc and sample detect through outcome_distribution
    threshold_table = (
        "tables", "--setup", "fig2", "--model", "threshold", "--policy", "loss-conservative", "--format", "csv"
    )
    assert mismatches == [threshold_table]
    # a partition that never quarantines shows in verify's capacities and in sdc's too
    with monkeypatch.context() as patch:
        patch.setattr(grouping, "MODEL_THRESHOLD", None)
        mismatches = golden_digest_mismatches()
    assert mismatches[:2] == [("verify",), threshold_table]
    assert [argv[:7] for argv in mismatches[2:]] == [
        ("sdc", "--setup", setup, "--model", "threshold", "--policy", "loss-conservative") for setup in ("fig2", "fig1")
    ]
    assert golden_digest_mismatches() == []


def test_relabelling_gate_catches_threshold_labels_without_single_clicks(monkeypatch):
    # with no model read as threshold, the threshold array keeps "A0 A0"; the
    # arrays are cached per (basis, model), so the cache is cleared around it
    bases = reachable_output_bases()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(detection, "MODEL_THRESHOLD", None)
            detection.outcome_labels.cache_clear()
            mismatches = relabelling_mismatches(bases)
    finally:
        detection.outcome_labels.cache_clear()
    assert mismatches == list(range(len(bases)))
    assert relabelling_mismatches(bases) == []


def test_stdout_digest_catches_two_swapped_sampled_counts(monkeypatch):
    # the counts of a distribution's first two outcomes trade places, so every
    # distribution keeps its outcomes and its total number of shots
    draw = detection.sample

    def swapping(probs, shots, seed):
        counts = draw(probs, shots, seed)
        first, second, *_ = probs
        counts[first], counts[second] = counts[second], counts[first]
        return +counts  # drops a zero count, as the draw does

    with monkeypatch.context() as patch:
        patch.setattr(dense_coding, "sample", swapping)
        patch.setattr(cli, "sample", swapping)
        mutated = stdout_digest()
    assert mutated[1] == STDOUT_DIGEST[1] and mutated[0] != STDOUT_DIGEST[0]
    assert stdout_digest() == STDOUT_DIGEST


def test_reference_diff_catches_an_outcome_moved_between_groups(tmp_path):
    copy_references(tmp_path)
    path = tmp_path / "table1.json"
    data = json.loads(path.read_text())
    before = sorted(o for g in data["groups"] for o in g["outcomes"])
    moved = data["groups"][1]["outcomes"].pop(0)
    data["groups"][2]["outcomes"].append(moved)
    assert sorted(o for g in data["groups"] for o in g["outcomes"]) == before
    path.write_text(json.dumps(data))

    table = compute_table("fig1", 4, "pnrd", "strict")
    diffs = diff_against_reference(table, load_reference_tables(tmp_path).tables["fig1"])
    assert diffs == [
        f"reference group 2 (psi100, psi101): unexpected outcomes [{moved!r}]",
        f"reference group 3 (psi110, psi111): missing outcomes [{moved!r}]",
    ]
    assert diff_against_reference(table, load_reference_tables().tables["fig1"]) == []


def test_sampling_guard_catches_a_draw_in_outcome_id_order(monkeypatch):
    # below ten paths the label order is the id order, so only the 32-mode
    # (d = 16) distributions can show it ("A10" sorts before "A2"); every
    # mismatch must hold a two-digit path
    with monkeypatch.context() as patch:
        # outcome_distribution's sort of its (label, probability) pairs keeps their id order
        patch.setattr(detection, "sorted", list, raising=False)
        dists = list(guarded_distributions())
        mismatches = sampling_mismatches(dists, 100_000, 0)
    assert mismatches
    assert all(any(re.search(r"\d\d", outcome) for outcome in dists[i]) for i in mismatches)
    assert sampling_mismatches(list(guarded_distributions()), 100_000, 0) == []


def test_closed_forms_catch_a_sign_that_ignores_m(monkeypatch):
    # psi<j><n>0 and psi<j><n>1 become one state, so every group split by m
    # merges: fig1's for j1 = 1 and fig2's for j >= 2. _xor_table caches the
    # signs, and a warm cache would hide the mutation, or keep it after the undo
    sylvester = states._sylvester
    try:
        with monkeypatch.context() as patch:
            # row n + 2m becomes row n: the m bit of the row index is dropped
            patch.setattr(states, "_sylvester", lambda dim: sylvester(dim)[np.arange(dim) & ~2])
            states._xor_table.cache_clear()
            mismatches = closed_form_mismatches()
    finally:
        states._xor_table.cache_clear()
    # every fig1 case and the fig2 one
    assert mismatches == CLOSED_FORM_CASES
    assert closed_form_mismatches() == []


def test_pairwise_search_catches_a_partition_that_never_passes_roots_down(monkeypatch):
    # partition's rounds give each outcome its states' least root; the
    # mutant gives it their least index in every round, so roots pass only
    # through an outcome's first state, and its slot ends as that state's
    # index rather than its group's root
    passed_down = "np.minimum.at(first, ids, id_roots)"
    source = inspect.getsource(grouping.partition)
    assert source.count(passed_down) == 1
    namespace = {}
    exec(source.replace(passed_down, "np.minimum.at(first, ids, state_of)"), vars(grouping), namespace)
    with monkeypatch.context() as patch:
        patch.setattr(grouping, "partition", namespace["partition"])
        mismatches = {model: pairwise_search_mismatches(model) for model in ("pnrd", "threshold")}
    # 37 of the 40 random cases and the chain, each with its ids in every container
    for found in mismatches.values():
        cases = sorted({case for case, _ in found})
        assert len(cases) == 38 and cases[-1] == 40
        assert found == [(case, name) for case in cases for name in ID_CONTAINERS]
    assert [pairwise_search_mismatches(model) for model in ("pnrd", "threshold")] == [[], []]


def test_sdc_decoder_catches_an_outcome_missing_from_every_group_support(monkeypatch):
    # a message outcome that no group support holds means the evolution and
    # the partition disagree; the decoder must fail on it, not decode it
    partition, dropped = dense_coding.partition, []

    def dropping_an_outcome(*args):
        table = partition(*args)
        first, *rest = table.groups
        dropped.append(min(first.support))
        return replace(table, groups=(replace(first, support=first.support - {dropped[0]}), *rest))

    with monkeypatch.context() as patch:
        patch.setattr(dense_coding, "partition", dropping_an_outcome)
        with pytest.raises(KeyError) as caught:
            run_sdc(SdcConfig(shots=1))
    assert caught.value.args == (dropped[0],)
    assert run_sdc(SdcConfig(shots=1)).accuracy == 1.0
