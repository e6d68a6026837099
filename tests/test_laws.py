"""Physics laws of two-photon evolution, checked with no oracle: two closed forms, an identity and a relation.

- The Hong-Ou-Mandel dip (Hong, Ou & Mandel, PRL 59, 2044, 1987). The pair
  |A0, B0> through a beam splitter of angle theta and phase phi is detected
  in coincidence (one photon per arm) with probability cos²(2 theta),
  whatever phi.
- The composition law. Evolving through U1 and then through U2 equals
  evolving through U2 U1, the product that a two-stage ``NetworkSpec``
  forms. A transposed or reversed convention breaks it on generic
  unitaries, which the paper's real, symmetric networks are not.
- The zero-transmission law (Tichy, Tiersch, de Melo, Mintert & Buchleitner,
  PRL 104, 220405, 2010). Two photons in ports a and a + M/2 of the M-port
  Fourier multiport leave by the output pairs (p, q) with p + q even, and
  never by those with p + q odd.
- A metamorphic relation (Chen, Cheung & Yiu, 1998). A stage appended after
  the detectors' network that permutes the output modes and gives each a
  phase relabels every outcome one to one, so it leaves every group's
  members as they were.
"""

import math

import numpy as np

from bellsort import SinglePhotonUnitary, classify, evolve, network_for_setup, outcome_distribution
from bellsort.modes import path_modes
from bellsort.networks import NetworkSpec, NetworkStage, labelled_states
from conftest import from_kets, random_unitary

LAW_TOL = 1e-12
HOM_ANGLES = np.linspace(0.0, math.pi / 2, 91).tolist()  # one degree apart, both ends included
HOM_PHASES = (0.0, 0.7)  # phase 0 keeps the matrix real, so both arithmetic paths are checked
COMPOSITION_FAMILIES = (("fig1", 2), ("fig1", 4), ("fig2", 4))
MULTIPORT_DIMS = (2, 4, 8)  # M = 4, 8 and 16 ports
RELABELLED_FAMILIES = (("fig1", 2), ("fig1", 4), ("fig1", 8), ("fig2", 4))


def beam_splitter(theta: float, phi: float) -> SinglePhotonUnitary:
    """The beam splitter [[cos, -e^{-i phi} sin], [e^{i phi} sin, cos]] of angle ``theta`` on modes A0, B0."""
    c, s = math.cos(theta), math.sin(theta)
    phase = complex(math.cos(phi), math.sin(phi)) if phi else 1.0
    return SinglePhotonUnitary(path_modes(1), path_modes(1), [[c, -s / phase], [s * phase, c]])


def hom_mismatches() -> list[tuple[float, float]]:
    """(theta, phi) of each beam splitter whose coincidence probability is off cos²(2 theta) by more than 1e-12.

    A ValueError from ``evolve`` (its norm check) counts as a mismatch.
    """
    a0, b0 = path_modes(1)
    pair = from_kets(1, [(a0, b0, 1.0)])
    found = []
    for phi in HOM_PHASES:
        for theta in HOM_ANGLES:
            try:
                coincidence = outcome_distribution(evolve(pair, beam_splitter(theta, phi))).get("A0 B0", 0.0)
            except ValueError:
                coincidence = math.nan
            if not abs(coincidence - math.cos(2 * theta) ** 2) <= LAW_TOL:
                found.append((theta, phi))
    return found


def composition_mismatches(count: int = 2, seed: int = 12) -> list[tuple[str, int, int, str]]:
    """(setup, dim, case, state label) where U1 then U2 differs from the two-stage product U2 U1.

    For each family of ``COMPOSITION_FAMILIES``, ``count`` seeded pairs of
    random complex unitaries on the family's basis; every state of the
    family must evolve to the same ids, and to values within 1e-12.
    """
    rng = np.random.default_rng(seed)
    found = []
    for setup, dim in COMPOSITION_FAMILIES:
        family = labelled_states(setup, dim)
        basis = family[0][1].basis
        for case in range(count):
            first, second = random_unitary(basis, rng), random_unitary(basis, rng)
            product = NetworkSpec(setup, dim, (NetworkStage("u1", first), NetworkStage("u2", second))).unitary
            for label, state in family:
                once, twice = evolve(state, product), evolve(evolve(state, first), second)
                if not (np.array_equal(once.ids, twice.ids) and np.abs(once.vals - twice.vals).max() <= LAW_TOL):
                    found.append((setup, dim, case, label))
    return found


def fourier_multiport(dim: int) -> SinglePhotonUnitary:
    """The M-port Fourier multiport U[p, a] = exp(2 pi i p a / M) / sqrt(M) on the M = 2 ``dim`` path modes."""
    size = 2 * dim
    ports = np.arange(size)
    matrix = np.exp(2j * np.pi * np.outer(ports, ports) / size) / math.sqrt(size)
    return SinglePhotonUnitary(path_modes(dim), path_modes(dim), matrix)


def zero_transmission_mismatches(dims=MULTIPORT_DIMS) -> list[tuple[int, int]]:
    """(dim, a) of each input pair (a, a + M/2) whose lit output pairs are not exactly those with p + q even.

    An output pair is lit if evolution keeps it (|psi| >= 1e-12). A
    ValueError from ``evolve`` (its norm check) counts as a mismatch.
    """
    found = []
    for dim in dims:
        network, modes, size = fourier_multiport(dim), path_modes(dim), 2 * dim
        even = [p * size + q for p in range(size) for q in range(p, size) if (p + q) % 2 == 0]
        for a in range(dim):
            try:
                lit = evolve(from_kets(dim, [(modes[a], modes[a + dim], 1.0)]), network).ids.tolist()
            except ValueError:
                lit = None
            if lit != even:
                found.append((dim, a))
    return found


def relabelled_group_mismatches(count: int = 5, seed: int = 13) -> list[tuple[str, int, int]]:
    """(setup, dim, case) where a random output permutation with phases, appended as a stage, changes the groups.

    For each family of ``RELABELLED_FAMILIES``, ``count`` seeded stages, each
    sending output mode i to mode perm[i] with a random phase; the PNRD
    strict groups' members must stay as the setup's own network gives them.
    A ValueError from the appended network's evolution counts as a mismatch.
    """
    rng = np.random.default_rng(seed)
    found = []
    for setup, dim in RELABELLED_FAMILIES:
        family, spec = labelled_states(setup, dim), network_for_setup(setup, dim)
        members = [group.members for group in classify(family, spec).groups]
        modes = spec.unitary.out_modes
        for case in range(count):
            relabel = np.zeros((len(modes), len(modes)), complex)
            relabel[rng.permutation(len(modes)), np.arange(len(modes))] = np.exp(2j * np.pi * rng.random(len(modes)))
            stage = NetworkStage("relabel", SinglePhotonUnitary(modes, modes, relabel))
            try:
                table = classify(family, NetworkSpec(setup, dim, (*spec.stages, stage)))
            except ValueError:
                table = None
            if table is None or [group.members for group in table.groups] != members:
                found.append((setup, dim, case))
    return found


def test_hom_coincidences_follow_cos_squared_two_theta():
    assert hom_mismatches() == []


def test_evolution_composes_as_the_stage_product():
    assert composition_mismatches() == []


def test_the_fourier_multiport_transmits_only_pairs_of_even_sum():
    assert zero_transmission_mismatches() == []


def test_an_appended_output_relabelling_keeps_every_group():
    assert relabelled_group_mismatches() == []
