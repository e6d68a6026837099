"""The linear-optics class bound as a property gate.

Linear evolution and local detection sort the 4**k Bell states of k qubit
pairs into at most 2**(k+1) - 1 classes (Pisenti, Gaebler & Lynn, PRA 84,
022340 (2011)); for k = 1 this is the 50 % Bell-measurement limit
(Lütkenhaus, Calsamiglia & Suominen, PRA 59, 3295 (1999)). The path Bell
family at d = 2 and d = 4 is that basis for k = 1 and 2, so no path-only
network may sort it into more than 3 or 7 groups.

The gate runs ``classify`` through a seeded search over path-only networks
built from per-arm signed permutations, intra-arm 50:50 splitters and
cross-arm 50:50 splitter layers with phases in {+-1, +-i}, and requires
every count to be within the bound. It checks the simulator against a
theorem rather than its own output: an evolution that drops or merges
amplitudes shows up as classes the theorem forbids. fig1 and its arm-local
conjugates reach the bound, so the gate does not depend on the search
finding an optimal network.

fig2 is left out: its polarization ancilla is entanglement from outside the
path modes, which is how it reaches 12 groups.
"""

import math

import numpy as np
import pytest

from bellsort import SinglePhotonUnitary, all_bell_indices, classify, network_for_setup
from bellsort.modes import path_modes
from bellsort.networks import NetworkSpec, NetworkStage, labelled_states
from conftest import encoding_unitary

CLASS_BOUND = {2: 3, 4: 7}  # 2**(k+1) - 1 for d = 2**k
SEARCH_SIZE = {2: 300, 4: 700}  # networks per dimension
SEARCH_SEED = 2011
PHASES = (1, -1, 1j, -1j)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _splitters(d, pairs, rng):
    """The identity on the 2d modes with a 50:50 splitter of random phase on each mode pair of ``pairs``."""
    mat = np.eye(2 * d, dtype=complex)
    for pair in pairs:
        phase = PHASES[rng.integers(len(PHASES))]
        mat[np.ix_(pair, pair)] = np.array([[1, phase], [1, -phase]]) * _INV_SQRT2
    return mat


def _signed_permutations(d, rng):
    """A signed permutation of the paths of each arm; modes are A0..A(d-1), B0..B(d-1)."""
    mat = np.zeros((2 * d, 2 * d), dtype=complex)
    for arm in (0, d):
        mat[arm + rng.permutation(d), arm + np.arange(d)] = rng.choice((1, -1), size=d)
    return mat


def _intra_arm_splitter(d, rng):
    """A splitter between two paths of one arm."""
    return _splitters(d, [d * rng.integers(2) + rng.choice(d, size=2, replace=False)], rng)


def _cross_arm_layer(d, rng):
    """A splitter between A x and B x on every path x."""
    return _splitters(d, [[x, d + x] for x in range(d)], rng)


LAYERS = (_signed_permutations, _intra_arm_splitter, _cross_arm_layer)


def _spec(d, matrix, setup="search"):
    """``matrix`` as a one-stage network on the path modes of dimension d."""
    modes = path_modes(d)
    return NetworkSpec(setup, d, (NetworkStage(setup, SinglePhotonUnitary(modes, modes, matrix)),))


def search_networks(d, count, seed=SEARCH_SEED):
    """``count`` seeded products of one to five random layers."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        mat = np.eye(2 * d, dtype=complex)
        for _ in range(rng.integers(1, 6)):
            mat = LAYERS[rng.integers(len(LAYERS))](d, rng) @ mat
        yield _spec(d, mat)


def fig1_conjugates(d):
    """fig1 and V fig1 V^dagger for arm-local encoding unitaries V = U1 (+) U2.

    V^dagger maps the Bell family onto itself up to phases, and V relabels and
    signs the detector modes, so each of these sorts it as fig1 does.
    """
    fig1 = network_for_setup("fig1", d).unitary.matrix
    indices = all_bell_indices(d)
    yield _spec(d, fig1, "fig1")
    for first, second in ((0, 1), (len(indices) - 1, 2), (1, len(indices) - 1)):
        v = np.zeros((2 * d, 2 * d))
        v[:d, :d] = encoding_unitary(d, indices[first]).matrix
        v[d:, d:] = encoding_unitary(d, indices[second]).matrix
        yield _spec(d, v @ fig1 @ v.T, "fig1-conjugate")


def class_counts(d, networks):
    """The number of groups ``classify`` sorts the d-dimensional Bell family into, per network."""
    states = labelled_states("fig1", d)
    return [len(classify(states, network).groups) for network in networks]


def class_bound_violations(d, count=None):
    """Positions of the searched networks that beat the bound at dimension d; [] when the gate holds."""
    counts = class_counts(d, search_networks(d, SEARCH_SIZE[d] if count is None else count))
    return [t for t, n in enumerate(counts) if n > CLASS_BOUND[d]]


@pytest.mark.parametrize("d", sorted(CLASS_BOUND))
def test_no_searched_network_beats_the_class_bound(d):
    assert class_bound_violations(d) == []


@pytest.mark.parametrize("d", sorted(CLASS_BOUND))
def test_fig1_and_its_arm_local_conjugates_reach_the_bound(d):
    assert class_counts(d, fig1_conjugates(d)) == [CLASS_BOUND[d]] * 4
