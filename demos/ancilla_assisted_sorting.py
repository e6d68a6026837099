"""Refining the Bell-state sort with a polarization-entanglement ancilla.

Tensor every path Bell state with the polarization pair (|HH> + |VV>)/sqrt(2)
and send it through three stages: polarizing beam splitters at 0 degrees
that hop V photons between the paired rails (0,1) and (2,3), the usual
beam-splitter array, and 45-degree analyzers. The Bell states are
eigenstates of the rail hop with eigenvalue (-1)**n, so the phase bit n gets
written into the ancilla sign and read out as same-sign versus opposite-sign
polarization clicks. The partition refines from 7 to 12 groups.

The script walks one state through the network stage by stage, then prints
the full 12-group table.
"""

from bellsort import (
    BellIndex, channel_capacity, evolve, make_hyper_state, network_for_setup, outcome_distribution,
)
from bellsort.cli import compute_table, render_table_text


def print_amps(state, indent="    "):
    for (m1, m2), amp in sorted(state.amps.items(), key=lambda kv: (kv[0][0].label, kv[0][1].label)):
        print(f"{indent}psi({m1.label}, {m2.label}) = {amp.real:+.4f}")


def main() -> None:
    idx = BellIndex(2, 1, 0)
    state = make_hyper_state(idx)
    print(f"input: {idx.label} tensored with (|HH> + |VV>)/sqrt(2)")
    print_amps(state)

    for stage in network_for_setup("fig2").stages:
        state = evolve(state, stage.unitary)
        print(f"\nafter {stage.kind}:")
        print_amps(state)

    dist = outcome_distribution(state)
    print("\ndetection outcomes (all uniform):")
    for outcome, p in dist.sorted_items():
        print(f"    {outcome.label}: {p:.4f}")

    print("\n--- full 12-group table ---")
    table = compute_table("fig2", 4, "pnrd", "strict")
    print(render_table_text(table, channel_capacity(table)))


if __name__ == "__main__":
    main()
