"""Gate sensitivity: each committed gate must report a known-bad change.

A gate that passes on broken code guards nothing. Each test here applies one
mutation with ``monkeypatch`` and asserts that the gate's own check function,
the one its test asserts empty, reports a failure. This is mutation testing in
miniature (DeMillo, Lipton & Sayward, IEEE Computer 11(4), 1978).
"""

from bellsort import SinglePhotonUnitary, network_for_setup, networks
from bellsort.modes import ARMS, Mode
from test_exact_real import cli_pairs, complex_evolution_mismatches
from test_networks import INV_SQRT2, NETWORK_DIGESTS, network_digest_mismatches

ONE_ULP_UP = 1 + 2**-52  # the next float64 after 1


def minus_on_first_arm(mode):
    """The beam splitter with its minus sign moved to the first arm: still unitary."""
    first, second = (Mode(arm, mode.path, mode.pol) for arm in ARMS)
    sign = -1.0 if mode.arm == ARMS[0] else 1.0
    return ((first, sign * INV_SQRT2), (second, INV_SQRT2))


def test_network_digests_catch_a_moved_beam_splitter_sign(monkeypatch):
    network_for_setup.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(networks, "_beam_splitter", minus_on_first_arm)
            mismatches = network_digest_mismatches()
    finally:
        network_for_setup.cache_clear()
    # every network has a beam-splitter stage
    assert mismatches == list(NETWORK_DIGESTS)
    assert network_digest_mismatches() == []


def test_exact_real_guard_catches_a_one_ulp_scaled_transpose(monkeypatch):
    # evolve's right factor is the cached transpose; the guard's complex
    # reference reads the plain matrix, so it must see one ulp of difference
    pairs = list(cli_pairs())
    cached = SinglePhotonUnitary.transposed
    with monkeypatch.context() as patch:
        patch.setattr(
            SinglePhotonUnitary, "transposed", property(lambda u: cached.__get__(u) * ONE_ULP_UP)
        )
        mismatches = complex_evolution_mismatches(pairs)
    assert [position for position, _ in mismatches] == list(range(len(pairs)))
    assert complex_evolution_mismatches(pairs) == []
