"""bellsort: sorting high-dimensional path Bell states with linear optics.

A small numpy library that builds the 16 four-dimensional path Bell states
of a photon pair (and the 4 two-dimensional ones), propagates them through
two linear-optical measurement setups with exact bosonic two-photon
statistics, derives which states each setup can tell apart, and runs the
resulting superdense-coding protocol end to end.

The beam-splitter-only setup sorts the 16 states into 7 distinguishable
groups (log2 7 = 2.807 bits per photon); adding a polarization
entanglement ancilla refines this to 12 groups (log2 12 = 3.585 bits).
With threshold detectors instead of photon-number-resolving ones, the
bunched group becomes unusable and the capacities drop to log2 6 and
log2 11.
"""

from .states import (
    BellIndex,
    SinglePhotonUnitary,
    TwoPhotonState,
    all_bell_indices,
    encode,
    encoding_unitary,
    make_bell_state,
    make_hyper_state,
)
from .networks import NetworkSpec, evolve, network_for_setup
from .detection import DetectorId, Outcome, OutcomeDistribution, outcome_distribution, sample
from .grouping import GroupTable, StateGroup, channel_capacity, classify
from .dense_coding import SdcConfig, SdcReport, reference_state, run_sdc
from .references import diff_against_reference, load_reference_tables

__version__ = "0.1.0"

__all__ = [
    "BellIndex",
    "DetectorId",
    "GroupTable",
    "NetworkSpec",
    "Outcome",
    "OutcomeDistribution",
    "SdcConfig",
    "SdcReport",
    "SinglePhotonUnitary",
    "StateGroup",
    "TwoPhotonState",
    "all_bell_indices",
    "channel_capacity",
    "classify",
    "diff_against_reference",
    "encode",
    "encoding_unitary",
    "evolve",
    "load_reference_tables",
    "make_bell_state",
    "make_hyper_state",
    "network_for_setup",
    "outcome_distribution",
    "reference_state",
    "run_sdc",
    "sample",
]
