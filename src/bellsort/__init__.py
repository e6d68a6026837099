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

from .modes import ARM_FIRST, ARM_SECOND, Mode, path_modes, polarized_modes
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
from .networks import (
    NetworkSpec,
    NetworkStage,
    SETUP_FIG1,
    SETUP_FIG2,
    build_fig1_network,
    build_fig2_network,
    evolve,
    fig1_spec,
    fig2_spec,
    network_for_setup,
)
from .detection import (
    DetectorId,
    MODEL_PNRD,
    MODEL_THRESHOLD,
    Outcome,
    OutcomeDistribution,
    RNG_ALGORITHM,
    outcome_distribution,
    sample,
)
from .grouping import (
    GroupTable,
    POLICY_LOSS_CONSERVATIVE,
    POLICY_STRICT,
    StateGroup,
    channel_capacity,
    classify,
)
from .dense_coding import SdcConfig, SdcReport, reference_state, run_sdc
from .references import ReferenceTables, diff_against_reference, load_reference_tables

__version__ = "0.1.0"

__all__ = [
    "ARM_FIRST",
    "ARM_SECOND",
    "BellIndex",
    "DetectorId",
    "GroupTable",
    "MODEL_PNRD",
    "MODEL_THRESHOLD",
    "Mode",
    "NetworkSpec",
    "NetworkStage",
    "Outcome",
    "OutcomeDistribution",
    "POLICY_LOSS_CONSERVATIVE",
    "POLICY_STRICT",
    "ReferenceTables",
    "RNG_ALGORITHM",
    "SETUP_FIG1",
    "SETUP_FIG2",
    "SdcConfig",
    "SdcReport",
    "SinglePhotonUnitary",
    "StateGroup",
    "TwoPhotonState",
    "all_bell_indices",
    "build_fig1_network",
    "build_fig2_network",
    "channel_capacity",
    "classify",
    "diff_against_reference",
    "encode",
    "encoding_unitary",
    "evolve",
    "fig1_spec",
    "fig2_spec",
    "load_reference_tables",
    "make_bell_state",
    "make_hyper_state",
    "network_for_setup",
    "outcome_distribution",
    "path_modes",
    "polarized_modes",
    "reference_state",
    "run_sdc",
    "sample",
]
