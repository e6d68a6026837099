"""One workload run in a fresh interpreter; started by ``run.py``.

Protocol on standard output: the line ``READY`` once ``import bellsort`` has
returned and the workload's inputs are made (the parent times spawn ->
READY as set-up), then, unless ``--setup-only``, one JSON line with the raw
measurements. Diagnostics go to standard error.

The untraced loop gives the end-to-end figures. With ``--trace 1`` every
other op runs under the tracer instead; the per-layer figures come from the
traced ops, and the tracing overhead from the two kinds' mean op times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARMUP_OPS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_program():
    """Import bellsort from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import bellsort

    if Path(bellsort.__file__).resolve().parent != src / "bellsort":
        raise SystemExit(f"bellsort imported from {bellsort.__file__}, not from {src}")
    return bellsort


class Loop:
    """Runs and checks ops; op indices keep counting across loops."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.index = 0
        self.reported = 0

    def run_one(self) -> tuple[int, int, str | None]:
        index = self.index
        self.index += 1
        error = None
        start = time.perf_counter_ns()
        try:
            output = self.workload.op(index)
        except (Exception, SystemExit) as exc:
            error = f"raised {exc!r}"
            self._report(traceback.format_exc())
        end = time.perf_counter_ns()
        if error is None:
            try:
                error = self.workload.check(index, output)
            except Exception as exc:
                error = f"check raised {exc!r}"
                self._report(traceback.format_exc())
        if error is not None:
            self._report(f"op {index} failed: {error}\n")
        return start, end, error

    def _report(self, text: str) -> None:
        if self.reported < 5:
            sys.stderr.write(text)
            self.reported += 1

    def timed(self, seconds: float) -> dict:
        """Untraced ops until ``seconds`` have passed."""
        latencies, failures = [], []
        attempted = busy = 0
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        while time.perf_counter_ns() < deadline:
            start, end, error = self.run_one()
            attempted += 1
            busy += end - start
            if error is None:
                latencies.append(end - start)
            else:
                failures.append(error)
        return {
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures[:5],
            "latencies_ns": latencies,
            "busy_ns": busy,
        }

    def traced(self, seconds: float) -> dict:
        """Ops until ``seconds`` have passed, every other one under the tracer.

        Alternating lets traced and untraced ops see the same machine
        conditions, so their ratio gives the tracing overhead.
        """
        import spans

        tracer, ops, failures = spans.Tracer(), [], []
        busy, count = {False: 0, True: 0}, {False: 0, True: 0}
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        while time.perf_counter_ns() < deadline or not count[True]:
            under_trace = count[False] > count[True]
            if under_trace:
                tracer.install()
            try:
                start, end, error = self.run_one()
            finally:
                if under_trace:
                    tracer.uninstall()
            if under_trace:
                op = spans.OpTrace(tracer.take(), start, end)
                ops.append(op)
                if op.errors:
                    self._report(f"op {self.index - 1} trace: {'; '.join(op.errors)}\n")
                    error = error or "trace: " + "; ".join(op.errors)
            busy[under_trace] += end - start
            count[under_trace] += 1
            if error is not None:
                failures.append(error)
        metrics, varying = spans.summarize(ops)
        # Mean traced op time over mean untraced op time, minus 1.
        metrics["trace.overhead_frac"] = (busy[True] / count[True]) / (busy[False] / count[False]) - 1.0
        return {
            "attempted": count[False] + count[True],
            "failed": len(failures),
            "failures": failures[:5],
            "traced_ops": len(ops),
            "op_wall_ms": sum(op.wall_ns for op in ops) / len(ops) / 1e6,
            "calls_varying": varying,
            "metrics": metrics,
        }


def environment(bellsort) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "bellsort": bellsort.__version__,
    }


def measure(workload, seconds: float, trace: bool) -> dict:
    loop = Loop(workload)
    warmup_failed = sum(loop.run_one()[2] is not None for _ in range(WARMUP_OPS))
    result = loop.traced(seconds) if trace else loop.timed(seconds)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["warmup_failed"] = warmup_failed
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    bellsort = import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = measure(workload, args.seconds, bool(args.trace))
    result["env"] = environment(bellsort)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
