"""Outside-in span tracing of bellsort's layer boundaries.

The layers are the package's modules; their boundaries are the public
functions in ``BOUNDARIES``. ``Tracer.install`` replaces each of them with a
timing wrapper wherever a ``bellsort`` module holds a reference to it (the
defining module, the package namespace, and the ``from .x import f`` names
in ``cli``, ``grouping`` and ``dense_coding``), so nested calls such as
classify -> evolve are seen without editing the program. Spans live in
memory and are reduced per operation by ``OpTrace``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter

BOUNDARIES = {
    "states": ("make_bell_state", "make_hyper_state", "encode"),
    "networks": ("network_for_setup", "evolve"),
    "detection": ("outcome_distribution", "sample"),
    "grouping": ("classify", "channel_capacity"),
    "dense_coding": ("run_sdc",),
    "references": ("load_reference_tables", "diff_against_reference"),
    "cli": ("main",),
}
NAMES = tuple(f"{module}.{func}" for module, funcs in BOUNDARIES.items() for func in funcs)
EVOLVE = NAMES.index("networks.evolve")
NO_PARENT = -1


class Tracer:
    """Records one span per boundary call: name, start, end, parent span.

    A span is ``[name index, start ns, end ns, parent span index, args]``;
    ``args`` is kept for ``evolve`` only, to count distinct input states and
    mode counts after the operation, outside its timing.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "bellsort"]
        wrappers = {}
        for index, name in enumerate(NAMES):
            module, func = name.split(".")
            original = getattr(sys.modules[f"bellsort.{module}"], func)
            wrappers[id(original)] = self._wrap(index, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> list[list]:
        """The spans recorded since the last call, which are then forgotten."""
        taken = list(self.spans)
        self.spans.clear()
        return taken

    def _wrap(self, index: int, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        keep_args = index == EVOLVE

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [index, 0, 0, stack[-1] if stack else NO_PARENT, args if keep_args else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


def _covered(inner: list[tuple[int, int]], start: int, end: int) -> int:
    """Nanoseconds of [start, end) covered by the union of ``inner`` intervals."""
    total, reach = 0, start
    for lo, hi in sorted(inner):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class OpTrace:
    """The spans of one operation reduced to per-function counts and times."""

    def __init__(self, spans: list[list], op_start: int, op_end: int) -> None:
        self.wall_ns = op_end - op_start
        self.calls = Counter()
        self.self_ns = Counter()
        self.durations: dict[int, list[int]] = {}
        self.errors: list[str] = []
        children: dict[int, list[tuple[int, int]]] = {}
        for index, (name, start, end, parent, _) in enumerate(spans):
            lo, hi = (op_start, op_end) if parent == NO_PARENT else spans[parent][1:3]
            if not lo <= start <= end <= hi:
                self.errors.append(f"span {index} ({NAMES[name]}) lies outside its parent")
            children.setdefault(parent, []).append((start, end))
        for index, (name, start, end, _, _) in enumerate(spans):
            self.calls[name] += 1
            self.self_ns[name] += end - start - _covered(children.get(index, []), start, end)
            self.durations.setdefault(name, []).append(end - start)
        self.unaccounted_ns = self.wall_ns - _covered(children.get(NO_PARENT, []), op_start, op_end)
        if sum(self.self_ns.values()) + self.unaccounted_ns != self.wall_ns:
            self.errors.append("self times plus unaccounted time differ from op wall time")

        evolve_args = [span[4] for span in spans if span[0] == EVOLVE]
        self.evolve_calls = len(evolve_args)
        self.distinct_states = len({(s.dim, frozenset(s.amps.items())) for s, *_ in evolve_args})
        # U psi U^T is two M x M complex matmuls: 2 * M^3 complex MACs, 8 flops each.
        self.evolve_flop = sum(16 * len(net.in_modes) ** 3 for _, net, *_ in evolve_args)


def summarize(ops: list[OpTrace]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over a run's traced ops, and the names whose call counts varied."""
    n = len(ops)
    metrics: dict[str, float] = {}
    varying = []
    for index, name in enumerate(NAMES):
        counts = {op.calls[index] for op in ops}
        if len(counts) > 1:
            varying.append(name)
        durations = [d for op in ops for d in op.durations.get(index, [])]
        metrics[f"{name}.calls"] = sum(op.calls[index] for op in ops) / n
        metrics[f"{name}.self_ms"] = sum(op.self_ns[index] for op in ops) / n / 1e6
        metrics[f"{name}.p50_us"] = statistics.median(durations) / 1e3 if durations else 0.0
    distinct = sum(op.distinct_states for op in ops)
    metrics["networks.evolve.per_state"] = sum(op.evolve_calls for op in ops) / distinct if distinct else 0.0
    metrics["networks.evolve.computed_mflop"] = sum(op.evolve_flop for op in ops) / n / 1e6
    metrics["trace.unaccounted_ms"] = sum(op.unaccounted_ns for op in ops) / n / 1e6
    metrics["trace.calls_varying"] = float(len(varying))
    return metrics, varying
