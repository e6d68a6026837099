"""Gate sensitivity: each committed gate must report a known-bad change.

A gate that passes on broken code guards nothing. Each test here applies one
mutation with ``monkeypatch`` and asserts that the gate's own check function,
the one its test asserts empty, reports a failure. This is mutation testing in
miniature (DeMillo, Lipton & Sayward, IEEE Computer 11(4), 1978).
"""

from bellsort import network_for_setup, networks
from bellsort.modes import ARMS, Mode
from test_networks import INV_SQRT2, NETWORK_DIGESTS, network_digest_mismatches


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
