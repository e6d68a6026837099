"""Embedded reference copies of the two detection-result tables.

The JSON files under ``references/`` are hand-checked transcriptions of the
expected groupings, kept as data so they can be reviewed independently of
the code that recomputes them. Schema per table::

    {
      "setup": "fig1" | "fig2",
      "model": "pnrd",
      "groups": [
        {"id": 1, "members": ["psi000", ...], "outcomes": ["A0 A0", ...]},
        ...
      ]
    }

Member labels are ``psi`` followed by the digits j, n, m; outcomes are
space-separated detector labels in canonical order. ``capacities.json``
records the expected usable-group counts and the two-decimal capacity
figures for each (setup, detector) combination.

Verification matches computed groups to reference rows by member set, so it
is insensitive to group numbering, and then requires exact support
equality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .grouping import GroupTable
from .networks import SETUP_FIG1, SETUP_FIG2


@dataclass(frozen=True)
class ReferenceGroup:
    index: int
    members: frozenset[str]
    outcomes: frozenset[str]


@dataclass(frozen=True)
class ReferenceTables:
    """The two reference groupings plus the expected capacity figures."""

    tables: dict[str, tuple[ReferenceGroup, ...]]
    capacities: dict

    def groups_for(self, setup: str) -> tuple[ReferenceGroup, ...]:
        return self.tables[setup]


def _parse_table(data: dict) -> tuple[ReferenceGroup, ...]:
    # from a list, not a generator: see GroupTable.usable_groups
    return tuple(
        [
            ReferenceGroup(
                index=g["id"],
                members=frozenset(g["members"]),
                outcomes=frozenset(g["outcomes"]),
            )
            for g in data["groups"]
        ]
    )


def load_reference_tables(directory: str | Path | None = None) -> ReferenceTables:
    """Load the packaged reference data, or a directory override.

    The override (used by the verification tests and the ``--references``
    CLI flag) must contain ``table1.json``, ``table2.json`` and
    ``capacities.json`` in the packaged schema.
    """
    if directory is None:
        root = resources.files("bellsort") / "references"
    else:
        root = Path(directory)
    table1, table2, capacities = (
        _read_json(root, name) for name in ("table1.json", "table2.json", "capacities.json")
    )
    return ReferenceTables(
        tables={SETUP_FIG1: _parse_table(table1), SETUP_FIG2: _parse_table(table2)},
        capacities=capacities,
    )


def _read_json(root, name: str):
    """One reference file; a parse error names the file."""
    try:
        return json.loads((root / name).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def diff_against_reference(table: GroupTable, reference: tuple[ReferenceGroup, ...]) -> list[str]:
    """Row-level differences between a computed table and its reference.

    Returns human-readable difference lines; empty means the tables agree
    as sets of (member set, outcome support) pairs.
    """
    diffs: list[str] = []
    computed = {
        frozenset(g.members): frozenset(o.label for o in g.support) for g in table.groups
    }
    expected = {g.members: g for g in reference}

    if len(computed) != len(reference):
        diffs.append(f"group count differs: computed {len(computed)}, reference {len(reference)}")

    for members, ref in sorted(expected.items(), key=lambda kv: kv[1].index):
        name = f"reference group {ref.index} ({', '.join(sorted(members))})"
        if members not in computed:
            diffs.append(f"{name}: no computed group has this membership")
            continue
        got = computed[members]
        if got != ref.outcomes:
            missing = sorted(ref.outcomes - got)
            extra = sorted(got - ref.outcomes)
            detail = []
            if missing:
                detail.append(f"missing outcomes {missing}")
            if extra:
                detail.append(f"unexpected outcomes {extra}")
            diffs.append(f"{name}: {'; '.join(detail)}")

    for members in sorted(computed, key=sorted):
        if members not in expected:
            diffs.append(
                f"computed group ({', '.join(sorted(members))}) matches no reference row"
            )
    return diffs
