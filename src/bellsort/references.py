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

Every field is checked: a table file must name its own setup and ``pnrd``,
list no outcome twice in a group, and load as a :class:`GroupTable`, so
its groups must form a partition.

Verification matches computed groups to reference rows by member set, so it
is insensitive to group numbering, and then requires exact support
equality.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path

from .detection import MODEL_PNRD, MODELS
from .grouping import POLICY_STRICT, GroupTable, StateGroup
from .networks import SETUP_FIG1, SETUP_FIG2


@dataclass(frozen=True)
class ReferenceTables:
    """The two reference groupings, keyed by setup in ``tables``, plus the expected capacity figures."""

    tables: dict[str, GroupTable]
    capacities: dict


_PACKAGED = files(__package__) / "references"  # resolved once: each resolution interns new path strings
_TABLE_SHAPE = '{"groups": [{"id": int, "members": [str], "outcomes": [str]}, ...]}'
_CAPACITIES_SHAPE = '{"fig1"|"fig2": {"pnrd"|"threshold": {"groups": int >= 1, "bits_text": "2.81"}}}'


def _parse_table(name: str, setup: str, data) -> GroupTable:
    """One table file as the pnrd/strict table of ``setup``; any other file raises ValueError naming it."""
    groups = data.get("groups") if isinstance(data, dict) else None
    if not (isinstance(groups, list) and all(map(_is_group_row, groups))):
        raise ValueError(f"{name}: expected {_TABLE_SHAPE}")
    labelled = (data.get("setup"), data.get("model"))
    if labelled != (setup, MODEL_PNRD):
        raise ValueError(f"{name}: expected setup {setup!r} and model {MODEL_PNRD!r}, got {labelled}")
    if repeats := [g for g in groups if len(set(g["outcomes"])) < len(g["outcomes"])]:
        raise ValueError(f"{name}: group {repeats[0]['id']} repeats an outcome: {repeats[0]['outcomes']}")
    # from lists, not generators: see GroupTable.usable_groups
    rows = tuple([StateGroup(g["id"], tuple(g["members"]), frozenset(g["outcomes"])) for g in groups])
    try:
        return GroupTable(setup, MODEL_PNRD, POLICY_STRICT, rows)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def _is_group_row(row) -> bool:
    # `type(...) is int`, not isinstance: JSON true parses to a bool, which is an int
    return (
        isinstance(row, dict)
        and type(row.get("id")) is int
        and all(_is_str_list(row.get(key)) for key in ("members", "outcomes"))
    )


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


def _check_capacities(data) -> dict:
    """The capacities file; a file of another shape raises ValueError naming it."""
    try:
        entries = [data[setup][model] for setup in (SETUP_FIG1, SETUP_FIG2) for model in MODELS]
        # `type(...) is`: JSON true is a bool, an int that float() reads as 1.0; verify compares a finite figure
        ok = all(type(e["groups"]) is int and e["groups"] >= 1 and type(e["bits_text"]) is str
                 and math.isfinite(float(e["bits_text"])) for e in entries)
    except (KeyError, TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"capacities.json: expected {_CAPACITIES_SHAPE}")
    return data


def load_reference_tables(directory: str | Path | None = None) -> ReferenceTables:
    """Load the packaged reference data, or a directory override.

    The override (used by the verification tests and the ``--references``
    CLI flag) must contain ``table1.json``, ``table2.json`` and
    ``capacities.json`` in the packaged schema. All three are read and
    checked before anything is returned: a missing file raises OSError, and
    a file that is not JSON or not of the schema raises ValueError naming it.
    """
    root = _PACKAGED if directory is None else Path(directory)
    table1, table2, capacities = (
        _read_json(root, name) for name in ("table1.json", "table2.json", "capacities.json")
    )
    return ReferenceTables(
        tables={
            SETUP_FIG1: _parse_table("table1.json", SETUP_FIG1, table1),
            SETUP_FIG2: _parse_table("table2.json", SETUP_FIG2, table2),
        },
        capacities=_check_capacities(capacities),
    )


def _read_json(root, name: str):
    """One reference file; a parse error names the file."""
    try:
        return json.loads((root / name).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def diff_against_reference(table: GroupTable, reference: GroupTable) -> list[str]:
    """Row-level differences between a computed table and its reference.

    Returns human-readable difference lines; empty means the tables agree
    as sets of (member set, outcome support) pairs.
    """
    diffs: list[str] = []
    computed = {frozenset(g.members): g.support for g in table.groups}
    expected = {frozenset(g.members): g for g in reference.groups}

    if len(computed) != len(reference.groups):
        diffs.append(f"group count differs: computed {len(computed)}, reference {len(reference.groups)}")

    for members, ref in sorted(expected.items(), key=lambda kv: kv[1].index):
        name = f"reference group {ref.index} ({', '.join(sorted(members))})"
        if members not in computed:
            diffs.append(f"{name}: no computed group has this membership")
            continue
        got = computed[members]
        if got != ref.support:
            missing = sorted(ref.support - got)
            extra = sorted(got - ref.support)
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
