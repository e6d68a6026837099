"""The benchmark's closed-form fig1 partition, checked without bellsort.grouping.

Run from the repository root: ``python3 -m pytest bench/test_partition.py``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import bell_indices, fig1_partition  # noqa: E402


@pytest.mark.parametrize("dim, groups", [(4, 7), (8, 14), (16, 28), (32, 56)])
def test_group_count(dim, groups):
    assert len(fig1_partition(bell_indices(dim))) == groups


def test_partition_is_exhaustive_and_disjoint():
    indices = bell_indices(32)
    partition = fig1_partition(indices)
    assert sum(len(g) for g in partition) == len(indices) == 128
    assert set().union(*partition) == set(indices)


def test_d4_membership_matches_table1():
    table = json.loads((ROOT / "src" / "bellsort" / "references" / "table1.json").read_text())
    expected = {frozenset(g["members"]) for g in table["groups"]}
    psi_labels = {f"psi{j}{n}{m}": (j, n, m) for j, n, m in bell_indices(4).values()}
    assert fig1_partition(psi_labels) == expected
