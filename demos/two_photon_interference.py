"""Two-photon interference at the beam-splitter array, term by term.

Three archetypes decide everything the beam-splitter setup can measure:

* photons entering the same path from both arms bunch into one output arm
  (the Hong-Ou-Mandel effect),
* an exchange-symmetric superposition over two paths keeps both photons in
  the same output arm,
* an exchange-antisymmetric one splits them across the two arms.

This script evolves each archetype and prints the exact output amplitudes.
"""

import math

from bellsort import TwoPhotonState, evolve, network_for_setup, outcome_distribution
from bellsort.modes import Mode

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def show(title: str, state: TwoPhotonState) -> None:
    out = evolve(state, network_for_setup("fig1", 4).unitary)
    print(title)
    for (m1, m2), amp in sorted(out.amps.items(), key=lambda kv: (kv[0][0].label, kv[0][1].label)):
        print(f"    psi({m1.label}, {m2.label}) = {amp.real:+.4f}")
    dist = outcome_distribution(out)
    strings = ", ".join(f"{o}: {p:.3f}" for o, p in dist.items())
    print(f"    detection probabilities: {strings}")
    print()


def main() -> None:
    a0, a1, b0, b1 = Mode("A", 0), Mode("A", 1), Mode("B", 0), Mode("B", 1)
    # psi of photons in distinct modes is the ket coefficient over sqrt(2)
    show("both photons in path 0  ->  they bunch (PNRD sees a double click):",
         TwoPhotonState.from_amplitudes(4, {(a0, b0): INV_SQRT2}))

    sym = TwoPhotonState.from_amplitudes(4, {(a0, b1): 0.5, (a1, b0): 0.5})
    show("symmetric (|01> + |10>)/sqrt(2)  ->  same output arm, different paths:", sym)

    anti = TwoPhotonState.from_amplitudes(4, {(a0, b1): 0.5, (a1, b0): -0.5})
    show("antisymmetric (|01> - |10>)/sqrt(2)  ->  photons split across the arms:", anti)

    print("The bunched/same-arm/split trichotomy is what sorts the Bell family")
    print("into distinguishable groups; see bell_state_sorting.py.")


if __name__ == "__main__":
    main()
