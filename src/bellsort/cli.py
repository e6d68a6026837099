"""Command-line interface: compute tables, verify them, sample, run the protocol.

Subcommands
-----------
tables   Recompute the distinguishability table for a setup from first
         principles and render it as text, JSON, or CSV.
verify   Recompute both tables and diff them against the embedded reference
         transcriptions; also check the four channel capacities.
sample   Monte Carlo detection statistics for one encoded state, with
         analytic probabilities and per-outcome z-scores.
sdc      End-to-end superdense-coding run over all 16 messages.

Exit codes: 0 success (and verification match), 1 verification mismatch,
2 usage error. Output is a pure function of the flags; JSON payloads carry
no timestamps.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import lru_cache
from typing import Sequence

from . import __version__
from .detection import (
    MODEL_PNRD,
    MODEL_THRESHOLD,
    MODELS,
    RNG_ALGORITHM,
    outcome_distribution,
    sample,
)
from .grouping import (
    GroupTable,
    POLICY_LOSS_CONSERVATIVE,
    POLICY_STRICT,
    channel_capacity,
    classify,
)
from .dense_coding import SdcConfig, prepared_state, run_sdc
from .networks import SETUP_FIG1, SETUP_FIG2, SETUPS, evolve, network_for_setup
from .references import load_reference_tables, diff_against_reference
from .states import BellIndex, all_bell_indices

_CAPACITY_TEXT_TOL = 0.01  # two-decimal quotes are checked at this slack


def labelled_states(setup: str, dim: int):
    """The full labelled Bell family prepared for a setup, enumeration order."""
    return [(idx.label, prepared_state(setup, dim, idx)) for idx in all_bell_indices(dim)]


def compute_table(setup: str, dim: int, model: str, policy: str) -> GroupTable:
    return classify(labelled_states(setup, dim), network_for_setup(setup, dim), model, policy)


# -- rendering ---------------------------------------------------------------


def _meta(**extra) -> dict:
    return {"package": "bellsort", "version": __version__, **extra}


def render_table_text(table: GroupTable, capacity: float) -> str:
    lines = [
        f"setup {table.setup}  model {table.model}  policy {table.policy}",
        "group  states                          outcomes",
    ]
    for g in table.groups:
        members = " ".join(g.members)
        outcomes = ", ".join(sorted(o.label for o in g.support))
        mark = "  [quarantined]" if g.quarantined else ""
        lines.append(f"{g.index:<6} {members:<31} {outcomes}{mark}")
    usable = len(table.usable_groups)
    lines.append(f"{len(table.groups)} groups, {usable} usable; capacity {capacity:.3f} bits/photon")
    return "\n".join(lines)


def render_table_json(table: GroupTable, capacity: float) -> str:
    payload = {
        "meta": _meta(),
        "table": table.to_dict(),
        "capacity_bits": capacity,
    }
    return json.dumps(payload, indent=2)


def render_table_csv(table: GroupTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group", "states", "outcomes", "quarantined"])
    for g in table.groups:
        writer.writerow(
            [
                g.index,
                " ".join(g.members),
                ", ".join(sorted(o.label for o in g.support)),
                str(g.quarantined).lower(),
            ]
        )
    return buf.getvalue().rstrip("\n")


# -- subcommands -------------------------------------------------------------


def cmd_tables(args: argparse.Namespace) -> int:
    table = compute_table(args.setup, args.dim, args.model, args.policy)
    capacity = channel_capacity(table)
    if args.format == "json":
        print(render_table_json(table, capacity))
    elif args.format == "csv":
        print(render_table_csv(table))
    else:
        print(render_table_text(table, capacity))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    reference = load_reference_tables(args.references)
    failures: list[str] = []
    matched = 0
    # each setup's family is prepared once and classified three times
    prepared = {setup: labelled_states(setup, 4) for setup in (SETUP_FIG1, SETUP_FIG2)}

    for setup, name in ((SETUP_FIG1, "table1"), (SETUP_FIG2, "table2")):
        table = classify(prepared[setup], network_for_setup(setup, 4), MODEL_PNRD, POLICY_STRICT)
        diffs = diff_against_reference(table, reference.groups_for(setup))
        if diffs:
            print(f"{name} ({setup}): MISMATCH")
            for line in diffs:
                print(f"  {line}")
            failures.extend(diffs)
        else:
            print(f"{name} ({setup}): OK ({len(table.groups)} groups)")
            matched += 1
    print(f"{matched}/2 tables match")

    capacities = []
    for setup in (SETUP_FIG1, SETUP_FIG2):
        for model, policy in ((MODEL_PNRD, POLICY_STRICT), (MODEL_THRESHOLD, POLICY_LOSS_CONSERVATIVE)):
            table = classify(prepared[setup], network_for_setup(setup, 4), model, policy)
            cap = channel_capacity(table)
            capacities.append(cap)
            expected = reference.capacities[setup][model]
            closed_form = math.log2(expected["groups"])
            quoted = float(expected["bits_text"])
            ok = abs(cap - closed_form) < 1e-12 and abs(cap - quoted) <= _CAPACITY_TEXT_TOL
            status = "ok" if ok else "MISMATCH"
            print(
                f"capacity {setup} {model}/{policy}: {cap:.3f} bits "
                f"(log2({expected['groups']}), quoted {expected['bits_text']}) {status}"
            )
            if not ok:
                failures.append(f"capacity {setup} {model} off: {cap}")
    print("capacities: " + ", ".join(f"{c:.3f}" for c in capacities))

    return 1 if failures else 0


def cmd_sample(args: argparse.Namespace) -> int:
    idx = args.state
    state = prepared_state(args.setup, args.dim, idx)
    network = network_for_setup(args.setup, args.dim)
    dist = outcome_distribution(evolve(state, network.unitary), args.model)
    counts = sample(dist, args.shots, args.seed)

    rows = []
    for outcome, p in dist.sorted_items():
        freq = counts.get(outcome, 0) / args.shots
        sigma = math.sqrt(p * (1.0 - p) / args.shots) if 0.0 < p < 1.0 else float("inf")
        z = (freq - p) / sigma if sigma > 0 else 0.0
        rows.append((outcome.label, p, freq, z))

    if args.format == "json":
        payload = {
            "meta": _meta(
                state=idx.label,
                setup=args.setup,
                dim=args.dim,
                model=args.model,
                shots=args.shots,
                seed=args.seed,
                rng=RNG_ALGORITHM,
            ),
            "distribution": dist.to_dict(),
            "counts": {o.label: counts.get(o, 0) for o, _ in dist.sorted_items()},
            "frequencies": {label: freq for label, _, freq, _ in rows},
            "z_scores": {label: z for label, _, _, z in rows},
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["outcome", "analytic", "empirical", "z"])
        for label, p, freq, z in rows:
            writer.writerow([label, f"{p:.9f}", f"{freq:.9f}", f"{z:.4f}"])
        print(buf.getvalue().rstrip("\n"))
    else:
        print(
            f"state {idx.label}  setup {args.setup}  dim {args.dim}  model {args.model}  "
            f"shots {args.shots}  seed {args.seed}  rng {RNG_ALGORITHM}"
        )
        print(f"{'outcome':<12} {'analytic':>10} {'empirical':>10} {'z':>8}")
        for label, p, freq, z in rows:
            print(f"{label:<12} {p:>10.6f} {freq:>10.6f} {z:>8.3f}")
    return 0


def cmd_sdc(args: argparse.Namespace) -> int:
    config = SdcConfig(
        setup=args.setup,
        model=args.model,
        policy=args.policy,
        seed=args.seed,
        shots=args.shots,
    )
    report = run_sdc(config)
    if args.format == "json":
        payload = {"meta": _meta(rng=RNG_ALGORITHM), "report": report.to_dict()}
        print(json.dumps(payload, indent=2))
        return 0
    usable = len(report.table.usable_groups)
    print(
        f"superdense coding  setup {config.setup}  model {config.model}  "
        f"policy {config.policy}  shots {config.shots}  seed {config.seed}  rng {RNG_ALGORITHM}"
    )
    print(f"accuracy {report.accuracy}")
    print(
        f"bits per photon {report.bits_per_photon:.3f} "
        f"({usable} usable groups of {len(report.table.groups)})"
    )
    print(f"{'message':<9} {'group':>5}  decoded counts")
    for label, per_group in report.message_counts.items():
        own = report.table.group_of(label).index
        decoded = ", ".join(f"{gid}:{count}" for gid, count in sorted(per_group.items()))
        print(f"{label:<9} {own:>5}  {decoded}")
    return 0


# -- argument parsing ----------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _bell_index(text: str) -> BellIndex:
    try:
        return BellIndex.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every ``main`` call.

    argparse objects reference each other in cycles, so a parser built per
    call is garbage that only the cyclic collector frees; when the rest of
    a call allocates little, that garbage piles up between full collections.
    """
    parser = argparse.ArgumentParser(
        prog="bellsort",
        description="Sort path-encoded Bell states by two-photon interference and "
        "analyze the resulting superdense-coding capacities.",
    )
    parser.add_argument("--version", action="version", version=f"bellsort {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, with_policy: bool = True) -> None:
        p.add_argument("--setup", choices=SETUPS, default=SETUP_FIG1)
        p.add_argument("--model", choices=MODELS, default=MODEL_PNRD)
        if with_policy:
            p.add_argument(
                "--policy",
                choices=["strict", "loss-conservative"],
                default="strict",
            )
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p_tables = sub.add_parser("tables", help="recompute a distinguishability table")
    add_common(p_tables)
    p_tables.add_argument("--dim", type=int, choices=[2, 4], default=4)
    p_tables.set_defaults(func=cmd_tables)

    p_verify = sub.add_parser("verify", help="diff recomputed tables against the reference data")
    p_verify.add_argument("--references", default=None, help="override reference data directory")
    p_verify.set_defaults(func=cmd_verify)

    p_sample = sub.add_parser("sample", help="Monte Carlo outcome statistics for one state")
    p_sample.add_argument("--state", type=_bell_index, required=True, help="Bell index as 'j,n,m'")
    add_common(p_sample, with_policy=False)
    p_sample.add_argument("--dim", type=int, choices=[2, 4], default=4)
    p_sample.add_argument("--shots", type=_positive_int, default=100000)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.set_defaults(func=cmd_sample)

    p_sdc = sub.add_parser("sdc", help="run the superdense-coding protocol end to end")
    add_common(p_sdc)
    p_sdc.add_argument("--shots", type=_positive_int, default=1000)
    p_sdc.add_argument("--seed", type=int, default=0)
    p_sdc.set_defaults(func=cmd_sdc)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if getattr(args, "policy", None):
        args.policy = args.policy.replace("-", "_")
    dim = getattr(args, "dim", 4)
    if getattr(args, "setup", None) == SETUP_FIG2 and dim != 4:
        parser.error("the fig2 setup requires --dim 4")
    if getattr(args, "state", None) is not None:
        try:
            args.state.validate_for(dim)
        except ValueError as exc:
            parser.error(str(exc))

    return args.func(args)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
