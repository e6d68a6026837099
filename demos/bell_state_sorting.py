"""Sorting the 16 four-dimensional path Bell states with beam splitters only.

Each Bell state pairs path x in arm A with path x XOR j in arm B, so the
detectors always reveal the path pair {x, x XOR j}. Two-photon interference
additionally reveals whether the state is exchange-symmetric (both photons
exit one arm) or antisymmetric (they split). Together that separates the 16
states into 7 groups; no linear-optical trick can do better without extra
resources, and a complete measurement is impossible.

The same pipeline at d=2 reproduces the classic result that the four
two-dimensional Bell states fall into 3 groups.
"""

from bellsort import channel_capacity
from bellsort.cli import render_table_text
from bellsort.grouping import compute_table


def main() -> None:
    for dim in (4, 2):
        table = compute_table("fig1", dim, "pnrd", "strict")
        print(f"--- {dim * dim} Bell states at d={dim}, beam-splitter setup ---")
        print(render_table_text(table, channel_capacity(table)))
        print()

    lossy = compute_table("fig1", 4, "threshold", "loss_conservative")
    print("Without photon-number resolution the bunched group is unusable:")
    print(f"    usable groups: {len(lossy.usable_groups)} of {len(lossy.groups)}")
    print(f"    capacity drops to {channel_capacity(lossy):.3f} bits/photon")


if __name__ == "__main__":
    main()
