"""The two measurement interferometers and bosonic two-photon evolution.

Setup ``fig1`` is the bare two-photon interference measurement: one 50:50
beam splitter per path couples the two arms, acting as the Hadamard
|x>_A -> (|x>_a + |x>_b)/sqrt(2), |x>_B -> (|x>_a - |x>_b)/sqrt(2) on every
path x. Indistinguishable photons bunch (same output arm) when their joint
path state is exchange-symmetric and anti-bunch when it is antisymmetric,
which is all the information this setup extracts beyond the path pair.

Setup ``fig2`` adds a polarization ancilla pair (|HH> + |VV>)/sqrt(2) and
three stages:

1. ``pbs0_rail_swap`` -- polarizing beam splitters at 0 degrees between the
   paired path rails (0, 1) and (2, 3) of each arm: H transmits (path
   unchanged), V reflects into the partner rail (path x -> x XOR 1). Every
   Bell state is an eigenstate of the two-photon rail swap with eigenvalue
   (-1)**n, so the stage rewrites the phase bit n into the sign of the
   ancilla: |HH> + VV> -> |HH> + (-1)**n |VV>, paths unchanged.
2. ``bs_hadamard`` -- the fig1 beam splitters, identity on polarization.
3. ``pbs45_basis_change`` -- polarizing beam splitters at 45 degrees on
   every output rail, relabelling H/V to the diagonal detector basis
   |+> = (|H>+|V>)/sqrt(2), |-> = (|H>-|V>)/sqrt(2). The ancilla sign then
   shows up as same-sign (+/+, -/-) versus opposite-sign (+/-) detector
   pairs.

:func:`network_for_setup` is the one way to get either network. It returns
a cached :class:`NetworkSpec` that names its setup, so the code that
classifies with it need not guess the setup; ``NetworkSpec.stages`` is for
inspecting the layers one at a time and ``NetworkSpec.unitary`` is their
product.

Evolution is exact: the symmetric two-photon amplitude matrix transforms as
psi -> U psi U^T, which keeps bosonic exchange statistics (and hence the
bunching interference) automatic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .modes import ARMS, Mode, POL_DIAGONAL, POL_LINEAR, path_modes, polarized_modes
from .states import SinglePhotonUnitary, TwoPhotonState, _exact_dtype, _upper_triangle

SETUP_FIG1 = "fig1"
SETUP_FIG2 = "fig2"
SETUPS = (SETUP_FIG1, SETUP_FIG2)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class NetworkStage:
    """One optical element layer: its kind and its unitary."""

    kind: str
    unitary: SinglePhotonUnitary


@dataclass(frozen=True)
class NetworkSpec:
    """The network of a measurement setup, as returned by :func:`network_for_setup`.

    ``stages`` lists the optical layers in the order a photon meets them
    (stages[0] first), for inspection; ``unitary`` is their product, the
    single-photon map that classification and sampling evolve through.
    Specs and stages compare and hash by their fields and a unitary by
    identity, so two specs are equal when they hold the same stage objects.
    """

    setup: str
    dim: int
    stages: tuple[NetworkStage, ...]

    @cached_property
    def unitary(self) -> SinglePhotonUnitary:
        composed = self.stages[0].unitary
        for stage in self.stages[1:]:
            composed = stage.unitary @ composed
        return composed


def _arm_hadamard(modes: tuple[Mode, ...]) -> SinglePhotonUnitary:
    """Beam splitter between arms on every (path, pol) rail pair.

    Convention: the first arm carries the + superposition and the second
    the - superposition; all derived supports are invariant under moving
    the minus sign to the first arm instead.
    """
    index = {m: i for i, m in enumerate(modes)}
    mat = np.zeros((len(modes), len(modes)))
    for mode in modes:
        if mode.arm != ARMS[0]:
            continue
        partner = Mode(ARMS[1], mode.path, mode.pol)
        i_a, i_b = index[mode], index[partner]
        mat[i_a, i_a] = _INV_SQRT2
        mat[i_b, i_a] = _INV_SQRT2
        mat[i_a, i_b] = _INV_SQRT2
        mat[i_b, i_b] = -_INV_SQRT2
    return SinglePhotonUnitary(modes, modes, mat)


def _pbs0_rail_swap(dim: int) -> SinglePhotonUnitary:
    """PBS at 0 degrees between paired rails: H stays, V hops path x -> x XOR 1."""
    modes = polarized_modes(dim, POL_LINEAR)
    index = {m: i for i, m in enumerate(modes)}
    mat = np.zeros((len(modes), len(modes)))
    for mode in modes:
        if mode.pol == "H":
            mat[index[mode], index[mode]] = 1.0
        else:
            hopped = Mode(mode.arm, mode.path ^ 1, "V")
            mat[index[hopped], index[mode]] = 1.0
    return SinglePhotonUnitary(modes, modes, mat)


def _pbs45_basis_change(dim: int) -> SinglePhotonUnitary:
    """PBS at 45 degrees on every rail: relabels H/V into the +/- basis."""
    modes_in = polarized_modes(dim, POL_LINEAR)
    modes_out = polarized_modes(dim, POL_DIAGONAL)
    idx_in = {m: i for i, m in enumerate(modes_in)}
    idx_out = {m: i for i, m in enumerate(modes_out)}
    mat = np.zeros((len(modes_out), len(modes_in)))
    for arm in ARMS:
        for x in range(dim):
            h, v = idx_in[Mode(arm, x, "H")], idx_in[Mode(arm, x, "V")]
            plus, minus = idx_out[Mode(arm, x, "+")], idx_out[Mode(arm, x, "-")]
            mat[plus, h] = _INV_SQRT2
            mat[plus, v] = _INV_SQRT2
            mat[minus, h] = _INV_SQRT2
            mat[minus, v] = -_INV_SQRT2
    return SinglePhotonUnitary(modes_in, modes_out, mat)


@lru_cache(maxsize=16)
def network_for_setup(setup: str, dim: int = 4) -> NetworkSpec:
    """The measurement network of a setup, built once per (setup, dim).

    fig1 is the beam-splitter array on d paths (2d modes); fig2 maps the 16
    polarized input modes (H/V basis) through the PBS@0 rail swap, the beam
    splitters and the PBS@45 analyzers onto the 16 detector modes (+/-
    basis). The result is shared between callers and immutable: frozen
    stages with read-only matrices, and a product composed once.
    """
    if setup == SETUP_FIG1:
        if dim < 2:
            raise ValueError(f"need at least two paths, got dimension {dim}")
        stages = (NetworkStage("bs_hadamard", _arm_hadamard(path_modes(dim))),)
    elif setup == SETUP_FIG2:
        if dim != 4:
            raise ValueError("the ancilla-assisted setup is defined for dimension 4")
        stages = (
            NetworkStage("pbs0_rail_swap", _pbs0_rail_swap(dim)),
            NetworkStage("bs_hadamard", _arm_hadamard(polarized_modes(dim, POL_LINEAR))),
            NetworkStage("pbs45_basis_change", _pbs45_basis_change(dim)),
        )
    else:
        raise ValueError(f"unknown setup {setup!r}, expected one of {SETUPS}")
    return NetworkSpec(setup, dim, stages)


def evolve(state: TwoPhotonState, network: SinglePhotonUnitary) -> TwoPhotonState:
    """Propagate a two-photon state through a mode unitary.

    The symmetric amplitude function transforms as
    psi'(o1, o2) = sum over i1, i2 of U[o1, i1] U[o2, i2] psi(i1, i2),
    computed as the matrix sandwich U psi U^T on a transient dense matrix.
    Raises if the state has a mode outside ``network.in_modes``. Norm is
    preserved (checked within 1e-9) and amplitudes below 1e-12 are pruned.
    """
    psi = state.to_matrix(network.in_modes)
    out = network.matrix @ psi @ network.matrix.T
    rows, cols, vals = _upper_triangle(len(network.out_modes), out)
    # a complex network can still give exactly real amplitudes
    return TwoPhotonState._build(state.dim, network.out_modes, rows, cols, _exact_dtype(vals))
