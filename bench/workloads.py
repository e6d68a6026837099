"""The three benchmark workloads: generated inputs, one operation, its check.

Each workload is closed-loop and single-client: the next operation starts
only after the previous one has returned and been checked. Operations look
up the program's functions through their modules at call time (``cli.main``,
``states.make_bell_state``), so the tracer's wrappers are seen when tracing
is on.

The seed is a benchmark argument; the program only sees the inputs made
from it. A check returns ``None`` when the output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import defaultdict

from bellsort import cli, grouping, networks, states

SDC_SHOTS = 100_000
# (model, policy, usable groups expected) alternated by op index.
SDC_VARIANTS = (("pnrd", "strict", 12), ("threshold", "loss-conservative", 11))
FIG1_DIM = 32


def fig1_partition(indices: dict[str, tuple[int, int, int]]) -> set[frozenset[str]]:
    """Closed-form fig1 partition of Bell states given as label -> (j, n, m).

    The beam-splitter-only setup reveals the path pair {x, x XOR j} and the
    exchange parity of the state. Every j = 0 state is exchange-symmetric
    and bunches, so they form one group. For j != 0 the parity is
    (n*j0 + m*j1) mod 2 with j0, j1 the low two bits of j, the same for
    every x, so each j splits into at most two groups.
    """
    groups: dict[tuple, set[str]] = defaultdict(set)
    for label, (j, n, m) in indices.items():
        key = (0,) if j == 0 else (j, (n * (j & 1) + m * ((j >> 1) & 1)) % 2)
        groups[key].add(label)
    return {frozenset(members) for members in groups.values()}


def bell_indices(dim: int) -> dict[str, tuple[int, int, int]]:
    """The (j, n, m) family with j < dim under the benchmark's own labels.

    ``psi<j><n><m>`` labels do not round-trip at j >= 10, so the benchmark
    names states ``j<j>n<n>m<m>``.
    """
    return {f"j{j}n{n}m{m}": (j, n, m) for j in range(dim) for n in (0, 1) for m in (0, 1)}


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Verify:
    """``bellsort verify``: both d=4 tables and the four capacities.

    Six ``classify`` calls on 16 states of 8 or 16 modes: per-call Python
    overhead dominates, and nothing is encoded or sampled. Takes no seed.
    """

    name = "verify"

    def __init__(self, seed: int) -> None:
        self.argv = ["verify"]
        self.reference_stdout: str | None = None

    def op(self, index: int):
        return _run_cli(self.argv)

    def check(self, index: int, output) -> str | None:
        code, stdout = output
        if code != 0:
            return f"exit code {code}"
        if self.reference_stdout is None:
            self.reference_stdout = stdout
        elif stdout != self.reference_stdout:
            return "stdout differs from the first op's"
        return None


class SdcFig2:
    """``bellsort sdc --setup fig2`` at 100,000 shots, JSON output.

    The only workload that runs ``encode``, ``sample`` and the decode loop of
    ``run_sdc``; every message is evolved twice today.
    """

    name = "sdc_fig2"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _variant(self, index: int):
        return SDC_VARIANTS[index % len(SDC_VARIANTS)]

    def op(self, index: int):
        model, policy, _ = self._variant(index)
        argv = ["sdc", "--setup", "fig2", "--model", model, "--policy", policy,
                "--seed", str(self.seed + index), "--shots", str(SDC_SHOTS), "--format", "json"]
        return _run_cli(argv)

    def check(self, index: int, output) -> str | None:
        code, stdout = output
        if code != 0:
            return f"exit code {code}"
        report = json.loads(stdout)["report"]
        _, _, usable_expected = self._variant(index)
        if report["config"]["seed"] != self.seed + index:
            return f"report seed {report['config']['seed']} != {self.seed + index}"
        groups = report["table"]["groups"]
        usable = sum(not g["quarantined"] for g in groups)
        if len(groups) != 12 or usable != usable_expected:
            return f"{len(groups)} groups, {usable} usable; expected 12, {usable_expected}"
        if report["accuracy"] != 1.0:
            return f"accuracy {report['accuracy']}"
        counts = report["message_counts"]
        if len(counts) != 16:
            return f"{len(counts)} messages decoded, expected 16"
        for label, per_group in counts.items():
            if sum(per_group.values()) != SDC_SHOTS:
                return f"counts of {label} sum to {sum(per_group.values())}"
        if report["bits_per_photon"] != math.log2(usable):
            return f"bits_per_photon {report['bits_per_photon']} != log2({usable})"
        return None


class Fig1D32:
    """Library calls: 128 d=32 Bell states through fig1, then ``classify``.

    Same layers as ``verify`` but 64 modes per state, so per-amplitude work
    dominates. The order of the states is shuffled with the seed.
    """

    name = "fig1_d32"

    def __init__(self, seed: int) -> None:
        labelled = list(bell_indices(FIG1_DIM).items())
        random.Random(seed).shuffle(labelled)
        self.indices = dict(labelled)
        self.states_in = [(label, states.BellIndex(*jnm)) for label, jnm in labelled]
        self.expected = fig1_partition(self.indices)

    def op(self, index: int):
        prepared = [(label, states.make_bell_state(FIG1_DIM, idx)) for label, idx in self.states_in]
        network = networks.network_for_setup("fig1", FIG1_DIM)
        return grouping.classify(prepared, network)

    def check(self, index: int, output) -> str | None:
        got = {frozenset(g.members) for g in output.groups}
        if got != self.expected:
            return f"{len(got)} groups differ from the closed form's {len(self.expected)}"
        return None


WORKLOADS = {w.name: w for w in (Verify, SdcFig2, Fig1D32)}
