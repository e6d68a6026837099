"""Every state the package builds itself passes the public constructor.

``make_bell_state``, ``make_hyper_state``, ``encode`` and ``evolve`` make
their arrays in bounds and hand them to the private ``TwoPhotonState._build``,
which skips the array checks of ``TwoPhotonState(...)``. This gate runs each
such state, and its evolution through its setup's network, back through the
class: it must be accepted with the same dtypes and bytes, and the built
arrays must be read-only.
"""

import numpy as np
import pytest

from bellsort import (
    BellIndex,
    TwoPhotonState,
    all_bell_indices,
    encode,
    evolve,
    make_bell_state,
    make_hyper_state,
    network_for_setup,
)
from bellsort.dense_coding import reference_state
from bellsort.modes import path_modes

DIMS = (2, 4, 8, 16, 32)
PHOTONS = ("first", "second")


def builder_defects(state: TwoPhotonState) -> list[str]:
    """What the public constructor finds wrong with a built state; empty if nothing."""
    # read the flags first: the constructor freezes arrays it keeps as they are
    arrays = ("rows", "cols", "vals")
    defects = [f"{name} is writeable" for name in arrays if getattr(state, name).flags.writeable]
    try:
        checked = TwoPhotonState(state.dim, state.basis, state.rows, state.cols, state.vals)
    except ValueError as exc:
        return defects + [f"rejected: {exc}"]
    if checked.basis is not state.basis:
        defects.append("basis is not a ModeBasis")
    for name in arrays:
        built, again = getattr(state, name), getattr(checked, name)
        if built.dtype != again.dtype:
            defects.append(f"{name} dtype {built.dtype} becomes {again.dtype}")
        elif built.tobytes() != again.tobytes():
            defects.append(f"{name} bytes differ")
    return defects


def bell_states(dim):
    network = network_for_setup("fig1", dim).unitary
    return [(make_bell_state(dim, idx), network) for idx in all_bell_indices(dim)]


def hyper_states():
    network = network_for_setup("fig2").unitary
    return [(make_hyper_state(idx), network) for idx in all_bell_indices(4)]


def encoded_states(setup, dim):
    reference = reference_state(setup) if dim == 4 else make_bell_state(dim, BellIndex(0, 0, 0))
    network = network_for_setup(setup, dim).unitary
    return [
        (encode(reference, idx, which), network) for idx in all_bell_indices(dim) for which in PHOTONS
    ]


FAMILIES = (
    [pytest.param(bell_states, (dim,), id=f"bell-d{dim}") for dim in DIMS]
    + [pytest.param(hyper_states, (), id="hyper")]
    + [pytest.param(encoded_states, ("fig2", 4), id="encode-fig2")]
    + [pytest.param(encoded_states, ("fig1", dim), id=f"encode-fig1-d{dim}") for dim in DIMS]
)


class TestBuilderGate:
    @pytest.mark.parametrize("family,args", FAMILIES)
    def test_built_and_evolved_states_pass_the_constructor(self, family, args):
        cases = family(*args)
        assert cases
        failures = []
        for t, (state, network) in enumerate(cases):
            for kind, built in (("built", state), ("evolved", evolve(state, network))):
                defects = builder_defects(built)
                if defects:
                    failures.append((t, kind, defects))
        assert failures == []

    def test_helper_reports_swapped_rows_and_cols(self):
        state = make_bell_state(4, BellIndex(1, 0, 0))
        swapped = TwoPhotonState._build(state.dim, state.basis, state.cols, state.rows, state.vals)
        assert any(d.startswith("rejected: pair indices") for d in builder_defects(swapped))

    def test_helper_reports_a_complex_dtype_with_zero_imaginary_parts(self):
        state = make_bell_state(4, BellIndex(1, 0, 0))
        widened = TwoPhotonState._build(state.dim, state.basis, state.rows, state.cols, state.vals + 0j)
        assert builder_defects(widened) == ["vals dtype complex128 becomes float64"]


class TestEncodeOfHandBuiltStates:
    # the class checks the arrays but not the norm, so a state built by hand
    # can hold amplitudes that encode prunes
    def test_pruning_the_only_complex_amplitude_gives_a_real_state(self):
        state = TwoPhotonState(2, path_modes(2), [0, 1], [2, 3], [2**-0.5, 1e-13j])
        encoded = encode(state, BellIndex(1, 1), "second")
        assert encoded.vals.dtype == np.float64
        assert builder_defects(encoded) == []

    def test_pruning_every_amplitude_raises(self):
        state = TwoPhotonState(2, path_modes(2), [0], [2], [1e-13])
        with pytest.raises(ValueError, match="no amplitudes"):
            encode(state, BellIndex(1, 0), "second")
