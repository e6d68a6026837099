"""Trace integrity: self times plus unaccounted time must equal op wall time.

Run from the repository root: ``python3 -m pytest bench/test_spans.py``.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import NAMES, NO_PARENT, OpTrace, Tracer  # noqa: E402


def span(name, start, end, parent=NO_PARENT):
    return [name, start, end, parent, None]


def test_nested_spans_account_for_the_whole_op():
    op = OpTrace([span(0, 10, 50), span(1, 20, 30, parent=0), span(0, 60, 80)], 0, 100)
    assert op.errors == []
    assert op.self_ns == {0: 50, 1: 10}
    assert op.calls == {0: 2, 1: 1}
    assert op.unaccounted_ns == 40


def test_overlapping_siblings_break_the_sum():
    op = OpTrace([span(0, 10, 50), span(1, 40, 70)], 0, 100)
    assert op.errors == ["self times plus unaccounted time differ from op wall time"]


def test_child_escaping_its_parent_is_flagged():
    op = OpTrace([span(0, 10, 50), span(1, 20, 60, parent=0)], 0, 100)
    assert any("outside its parent" in e for e in op.errors)


def test_tracer_sees_nested_calls_and_restores_the_program():
    from bellsort import grouping, networks
    from workloads import Verify

    evolve = networks.evolve
    tracer = Tracer()
    tracer.install()
    try:
        assert grouping.evolve is not evolve
        start = time.perf_counter_ns()
        Verify(0).op(0)
        end = time.perf_counter_ns()
    finally:
        tracer.uninstall()
    assert grouping.evolve is evolve and networks.evolve is evolve
    op = OpTrace(tracer.take(), start, end)
    assert op.errors == []
    assert (op.evolve_calls, op.distinct_states) == (96, 32)
    assert op.calls[NAMES.index("networks.network_for_setup")] == 6
    assert op.calls[NAMES.index("states.encode")] == 0
