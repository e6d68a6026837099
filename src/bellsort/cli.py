"""Command-line interface: flag parsing and rendering around the library's own calls.

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
2 usage error: a flag value that the library's own input checks reject, run
before any work, or an unreadable or malformed ``--references`` directory.
Output is a pure function of the flags; JSON payloads carry no timestamps.
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
    check_shots_and_seed,
    outcome_distribution,
    sample,
)
from .grouping import (
    GroupTable,
    POLICIES,
    POLICY_LOSS_CONSERVATIVE,
    POLICY_STRICT,
    channel_capacity,
    classify,
    compute_table,
)
from .dense_coding import SdcConfig, run_sdc
from .networks import (
    SETUP_FIG1, SETUP_FIG2, SETUPS, check_setup, evolve, labelled_states, network_for_setup, prepared_state,
)
from .references import load_reference_tables, diff_against_reference
from .states import BellIndex

_CAPACITY_TEXT_TOL = 0.01  # two-decimal quotes are checked at this slack


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
        outcomes = ", ".join(sorted(g.support))
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
    rows = [[g.index, " ".join(g.members), ", ".join(sorted(g.support)), str(g.quarantined).lower()]
            for g in table.groups]
    return _csv(["group", "states", "outcomes", "quarantined"], rows)


def _csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
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
    try:
        reference = load_reference_tables(args.references)
    except (OSError, ValueError) as exc:
        print(f"bellsort verify: error: cannot load {args.references}: {exc}", file=sys.stderr)
        return 2
    failed = False
    matched = 0
    # each setup's family is prepared once and classified three times
    prepared = {setup: labelled_states(setup, 4) for setup in (SETUP_FIG1, SETUP_FIG2)}

    for setup, name in ((SETUP_FIG1, "table1"), (SETUP_FIG2, "table2")):
        table = classify(prepared[setup], network_for_setup(setup, 4), MODEL_PNRD, POLICY_STRICT)
        diffs = diff_against_reference(table, reference.tables[setup])
        if diffs:
            print(f"{name} ({setup}): MISMATCH")
            for line in diffs:
                print(f"  {line}")
            failed = True
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
            quoted = float(expected["bits_text"])
            # log2 is strictly increasing, so equal counts are the closed-form check
            ok = len(table.usable_groups) == expected["groups"] and abs(cap - quoted) <= _CAPACITY_TEXT_TOL
            status = "ok" if ok else "MISMATCH"
            print(
                f"capacity {setup} {model}/{policy}: {cap:.3f} bits "
                f"(log2({expected['groups']}), quoted {expected['bits_text']}) {status}"
            )
            failed = failed or not ok
    print("capacities: " + ", ".join(f"{c:.3f}" for c in capacities))

    return 1 if failed else 0


def cmd_sample(args: argparse.Namespace) -> int:
    idx = args.state
    state = prepared_state(args.setup, args.dim, idx)
    network = network_for_setup(args.setup, args.dim)
    dist = outcome_distribution(evolve(state, network.unitary), args.model)
    counts = sample(dist, args.shots, args.seed)

    rows = []
    for outcome, p in dist.items():
        freq = counts.get(outcome, 0) / args.shots
        sigma = math.sqrt(p * (1.0 - p) / args.shots) if p < 1.0 else float("inf")
        z = (freq - p) / sigma  # a distribution holds only p > 0, so sigma > 0
        rows.append((outcome, p, freq, z))

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
            "distribution": {"model": args.model, "probs": dist},
            "counts": {o: counts.get(o, 0) for o in dist},
            "frequencies": {label: freq for label, _, freq, _ in rows},
            "z_scores": {label: z for label, _, _, z in rows},
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        formatted = [[label, f"{p:.9f}", f"{freq:.9f}", f"{z:.4f}"] for label, p, freq, z in rows]
        print(_csv(["outcome", "analytic", "empirical", "z"], formatted))
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
    config = args.config  # built and checked by main
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
    own_groups = {label: g.index for g in report.table.groups for label in g.members}
    for label, per_group in report.message_counts.items():
        own = own_groups[label]
        decoded = ", ".join(f"{gid}:{count}" for gid, count in sorted(per_group.items()))
        print(f"{label:<9} {own:>5}  {decoded}")
    return 0


# -- argument parsing ----------------------------------------------------------


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

    def add_common(
        p: argparse.ArgumentParser, *, with_policy: bool = True, formats=("text", "json", "csv")
    ) -> None:
        p.add_argument("--setup", choices=SETUPS, default=SETUP_FIG1)
        p.add_argument("--model", choices=MODELS, default=MODEL_PNRD)
        if with_policy:
            p.add_argument("--policy", choices=[name.replace("_", "-") for name in POLICIES], default=POLICY_STRICT)
        p.add_argument("--format", choices=formats, default="text")

    p_tables = sub.add_parser("tables", help="recompute a distinguishability table")
    add_common(p_tables)
    p_tables.add_argument("--dim", type=int, choices=[2, 4], default=4)
    p_tables.set_defaults(func=cmd_tables)

    p_verify = sub.add_parser("verify", help="diff recomputed tables against the reference data")
    p_verify.add_argument("--references", default=None, help="override reference data directory")
    p_verify.set_defaults(func=cmd_verify)

    p_sample = sub.add_parser("sample", help="Monte Carlo outcome statistics for one state")
    p_sample.add_argument("--state", required=True, help="Bell index as 'j,n,m'")
    add_common(p_sample, with_policy=False)
    p_sample.add_argument("--dim", type=int, choices=[2, 4], default=4)
    p_sample.add_argument("--shots", type=int, default=100000)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.set_defaults(func=cmd_sample)

    p_sdc = sub.add_parser("sdc", help="run the superdense-coding protocol end to end")
    add_common(p_sdc, formats=("text", "json"))
    p_sdc.add_argument("--shots", type=int, default=1000)
    p_sdc.add_argument("--seed", type=int, default=0)
    p_sdc.set_defaults(func=cmd_sdc)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if getattr(args, "policy", None):
        args.policy = args.policy.replace("-", "_")
    # the library's input checks, before any work; a fault inside args.func keeps its traceback
    try:
        if args.command == "sample":
            check_shots_and_seed(args.shots, args.seed)
        if args.command == "sdc":
            args.config = SdcConfig(args.setup, args.model, args.policy, args.seed, args.shots)  # in field order
        if hasattr(args, "dim"):
            check_setup(args.setup, args.dim)
        if args.command == "sample":
            args.state = BellIndex.parse(args.state)
            args.state.validate_for(args.dim)
    except ValueError as exc:
        parser.error(str(exc))

    return args.func(args)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
