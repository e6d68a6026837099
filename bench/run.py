"""bellsort benchmark: end-to-end and per-layer figures for three workloads.

Usage (from the repository root):

    python3 bench/run.py --workload verify --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

Each run starts fresh interpreters (``worker.py``) for the workload. With
``--trace 0`` it times set-up over several spawns and reports the
end-to-end metrics of an untraced, closed-loop, single-client run; with
``--trace 1`` it reports the per-layer metrics of a traced run. Every
operation's output is checked. Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``bench/README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "sdc_fig2", "fig1_d32")
# Set-up is timed over this many spawns, half before and half after the
# timed loop, so that they fall in different stretches of the host's load.
SETUP_SPAWNS = 9
SPAWN_SLACK_S = 60
# BLAS is pinned to one thread so that a single-client run on a small shared
# machine measures the program, not OpenBLAS thread wake-ups.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved ({name})"


def spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool) -> tuple[float, dict | None]:
    """Start one worker; returns (spawn -> READY seconds, its result or None)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    env = {**os.environ, **CHILD_ENV}
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    watchdog = threading.Timer(seconds + SPAWN_SLACK_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker for {workload} exited with code {code} (ready line {ready.strip()!r})")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(setup_times: list[float], raw: dict) -> tuple[dict, list[str]]:
    """The metrics of ``BENCHMARK.json`` and lines that also show the rest.

    ``ops_per_s`` and ``op_p50_ms`` are printed but are not metrics: on a
    shared host whose speed switches between two levels they depend on how
    much of the run fell at each level. ``op_p90_ms`` is set by the slower,
    common level and repeats from run to run.
    """
    lat = sorted(ns / 1e6 for ns in raw["latencies_ns"])
    passed = len(lat)
    if not passed:
        raise BenchError("no operation passed its check")
    beyond_p90 = passed - math.ceil(0.9 * passed)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p90_ms": (nearest_rank(lat, 0.9), "ms"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024, "MB"),
    }
    shown = {
        "ops_per_s": (passed / (raw["busy_ns"] / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        **metrics,
    }
    samples = {
        "setup_s": f"n={len(setup_times)} spawns",
        "ops_per_s": f"n={passed} ops over {raw['busy_ns'] / 1e9:.2f} s in ops; shown, not a metric",
        "op_p50_ms": f"n={passed}; shown, not a metric",
        "op_p90_ms": f"n={passed}, {beyond_p90} beyond" + ("" if beyond_p90 >= 10 else " (fewer than 10: not valid)"),
        "peak_rss_mb": "worker process",
    }
    lines = [f"  {name:<12} {value:>12.4f} {unit:<4} ({samples[name]})" for name, (value, unit) in shown.items()]
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, lines


def per_layer(raw: dict) -> tuple[dict, list[str]]:
    metrics = raw["metrics"]
    wall = raw["op_wall_ms"]
    lines = [f"  traced ops {raw['traced_ops']}, op wall {wall:.3f} ms (traced)",
             f"  {'function':<36} {'calls/op':>9} {'self ms/op':>11} {'share':>6} {'p50 us':>10}"]
    names = sorted({k.rsplit(".", 1)[0] for k in metrics if k.endswith(".calls")},
                   key=lambda n: -metrics[n + ".self_ms"])
    for name in names:
        if metrics[name + ".calls"]:
            self_ms = metrics[name + ".self_ms"]
            lines.append(f"  {name:<36} {metrics[name + '.calls']:>9.2f} {self_ms:>11.3f} "
                         f"{self_ms / wall:>6.1%} {metrics[name + '.p50_us']:>10.1f}")
    for key in ("networks.evolve.per_state", "networks.evolve.computed_mflop",
                "trace.unaccounted_ms", "trace.overhead_frac", "trace.calls_varying"):
        lines.append(f"  {key:<36} {metrics[key]:.4f}")
    if raw["calls_varying"]:
        lines.append("  call counts varied between ops for: " + ", ".join(raw["calls_varying"]))
    units = {"calls": "count", "self_ms": "ms", "p50_us": "us", "per_state": "ratio",
             "computed_mflop": "MFLOP", "unaccounted_ms": "ms", "overhead_frac": "frac",
             "calls_varying": "count"}
    return {k: {"value": v, "unit": units[k.rsplit(".", 1)[1]]} for k, v in metrics.items()}, lines


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    def setup_spawns(count: int) -> list[float]:
        return [spawn(workload, seed, 0, 0, setup_only=True)[0] for _ in range(0 if trace else count)]

    setup_times = setup_spawns(SETUP_SPAWNS // 2)
    setup_s, raw = spawn(workload, seed, seconds, trace, setup_only=False)
    setup_times += [setup_s] + setup_spawns(SETUP_SPAWNS - 1 - SETUP_SPAWNS // 2)
    attempted, failed = raw["attempted"], raw["failed"]
    env = {**raw["env"], "commit": git_commit(), "seed": seed, "seconds": seconds, "trace": trace,
           "threads_set_by_benchmark": CHILD_ENV}
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {trace}")
    print("  env " + json.dumps(env, sort_keys=True))
    print(f"  failed_frac  {failed / attempted:.4f} ({failed}/{attempted} ops failed; "
          f"{raw['warmup_failed']} of the warm-up ops failed)")
    for reason in raw["failures"]:
        print(f"  failure: {reason}")
    metrics, lines = per_layer(raw) if trace else end_to_end(setup_times, raw)
    for line in lines:
        print(line)
    return {
        "correct": failed == 0 and raw["warmup_failed"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "bellsort" / "__init__.py").is_file():
        print(f"bench: no bellsort sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
