"""Every state the package builds itself passes the public constructor.

``make_bell_state``, ``make_hyper_state``, ``encode`` and ``evolve`` make
their arrays in bounds and of unit norm and hand them to the private
``TwoPhotonState._build``, which skips the array and norm checks of
``TwoPhotonState(...)``. This gate runs each such state, and its evolution
through its setup's network, back through the class: it must be accepted,
so its pair ids are in the upper triangle and strictly increasing, with the
same dtypes and bytes, and the built ``ids`` and ``vals`` must be read-only.
"""

import numpy as np
import pytest

from bellsort import BellIndex, TwoPhotonState, encode, evolve, make_bell_state
from bellsort.modes import path_modes
from conftest import CLI_DIMS, cli_pairs


def builder_defects(state: TwoPhotonState) -> list[str]:
    """What the public constructor finds wrong with a built state; empty if nothing."""
    # read the flags first: the constructor freezes arrays it keeps as they are
    arrays = ("ids", "vals")
    defects = [f"{name} is writeable" for name in arrays if getattr(state, name).flags.writeable]
    try:
        checked = TwoPhotonState(state.dim, state.basis, state.ids, state.vals)
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


def family(setup, dim, encoded):
    """The CLI pairs of one setup and dimension, prepared or encoded."""
    return [
        (p.state, p.network)
        for p in cli_pairs(dim)
        if (p.setup, p.state.dim, p.encoded) == (setup, dim, encoded)
    ]


FAMILIES = (
    [pytest.param("fig1", dim, False, id=f"bell-d{dim}") for dim in CLI_DIMS]
    + [pytest.param("fig2", 4, False, id="hyper")]
    + [pytest.param("fig2", 4, True, id="encode-fig2")]
    + [pytest.param("fig1", dim, True, id=f"encode-fig1-d{dim}") for dim in CLI_DIMS]
)


class TestBuilderGate:
    @pytest.mark.parametrize("setup,dim,encoded", FAMILIES)
    def test_built_and_evolved_states_pass_the_constructor(self, setup, dim, encoded):
        cases = family(setup, dim, encoded)
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
        rows, cols = np.divmod(state.ids, len(state.basis))
        swapped = TwoPhotonState._build(state.dim, state.basis, cols * len(state.basis) + rows, state.vals)
        assert any(d.startswith("rejected: pair indices") for d in builder_defects(swapped))

    def test_helper_reports_vals_the_class_would_convert(self):
        # the class keeps float64 and complex128 vals as they are, so the dtype
        # a builder can get wrong is one the class converts, such as float32 or int
        narrowed = TwoPhotonState._build(2, path_modes(2), np.array([2, 7]), np.array([0.5, -0.5], np.float32))
        assert builder_defects(narrowed) == ["vals dtype float32 becomes float64"]
        bunched = TwoPhotonState._build(2, path_modes(2), np.array([0]), np.array([1]))
        assert builder_defects(bunched) == [f"vals dtype {np.dtype(int)} becomes float64"]


class TestEncodeOfHandBuiltStates:
    # the class does not prune, so a state built by hand can hold amplitudes
    # below the threshold that encode prunes
    def test_pruning_the_only_complex_amplitude_keeps_complex128(self):
        # pruning leaves one amplitude with a zero imaginary part; encode keeps
        # the state's dtype, so it is stored as complex128
        state = TwoPhotonState(2, path_modes(2), [2, 7], [2**-0.5, 1e-13j])
        (encoded,) = encode(state, [BellIndex(1, 1)])
        assert len(encoded.vals) == 1 and not encoded.vals.imag.any()
        assert encoded.vals.dtype == np.complex128
        assert builder_defects(encoded) == []

    def test_a_state_pruning_would_empty_is_rejected_when_built(self):
        # so encode can never prune a state to nothing
        with pytest.raises(ValueError, match="deviates from 1"):
            TwoPhotonState(2, path_modes(2), [2], [1e-13])
