"""Write a perf-trajectory snapshot (``BENCH_<date>.json``).

Runs the micro-benchmarks — engine (columnar vs row on the
forum-easy evaluation hot path), tracking (columnar vs row provenance
tracking on provenance-heavy forum tasks), consistency (incremental
checker vs naive Definition 1 on consistency-heavy tasks), parallel
(sharded vs serial on forum-hard experiment mode), dispatch
(the skewed-lane imbalance of static shard planning), serve (warm-pool
vs cold request latency on repeated-schema service traffic), pool
(thread-tier vs process-tier aggregate throughput for concurrent
CPU-bound requests) and recovery (clean vs crashed-and-replayed run of
one request, the fault-tolerance overhead) — and records their timings
plus environment
metadata as one JSON document.  The nightly
``perf.yml`` workflow uploads these as artifacts, giving the repo a
queryable performance history; ratios are recorded, never asserted
(assertion lives in the pytest benchmarks).

Usage::

    PYTHONPATH=src python benchmarks/perf_snapshot.py [--out FILE]
        [--engine-rounds N] [--tracking-rounds N] [--consistency-rounds N]
        [--parallel-rounds N] [--serve-pairs N] [--pool-budget N]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import test_consistency_speed as consistency_bench  # noqa: E402
import test_engine_speed as engine_bench  # noqa: E402
import test_parallel_speed as parallel_bench  # noqa: E402
import test_serve_speed as serve_bench  # noqa: E402
import test_tracking_speed as tracking_bench  # noqa: E402
from repro.benchmarks import easy_tasks  # noqa: E402


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        # No git, or a hung .git lock — metadata only, never fail the
        # snapshot over it.
        return None


def engine_snapshot(rounds: int) -> dict:
    tasks = [t for t in easy_tasks() if t.suite == "forum"]
    workload = [(t.env, engine_bench._candidates(t)) for t in tasks]
    row_s, columnar_s = engine_bench._measure(workload, rounds)
    return {
        "workload_queries": sum(len(qs) for _, qs in workload),
        "rounds": rounds,
        "row_ms": round(row_s * 1000, 2),
        "columnar_ms": round(columnar_s * 1000, 2),
        "speedup": round(row_s / columnar_s, 3),
    }


def tracking_snapshot(rounds: int) -> dict:
    workload = tracking_bench.tracking_workload()
    row_s, columnar_s = tracking_bench.measure(workload, rounds)
    return {
        "tasks": list(tracking_bench.TRACKING_TASKS),
        "workload_queries": sum(len(qs) for _, qs in workload),
        "rounds": rounds,
        "row_ms": round(row_s * 1000, 2),
        "columnar_ms": round(columnar_s * 1000, 2),
        "speedup": round(row_s / columnar_s, 3),
    }


def consistency_snapshot(rounds: int) -> dict:
    workload = consistency_bench.consistency_workload()
    naive_s, incremental_s = consistency_bench.measure(workload, rounds)
    return {
        "tasks": list(consistency_bench.CONSISTENCY_TASKS),
        "workload_queries": sum(len(c) for _, _, c in workload),
        "rounds": rounds,
        "naive_ms": round(naive_s * 1000, 2),
        "incremental_ms": round(incremental_s * 1000, 2),
        "speedup": round(naive_s / incremental_s, 3),
    }


def parallel_snapshot(rounds: int) -> dict:
    tasks = parallel_bench.bench_tasks()
    serial_s, sharded_s = parallel_bench.measure(tasks, rounds)
    return {
        "tasks": [t.name for t in tasks],
        "workers": parallel_bench.WORKERS,
        "rounds": rounds,
        "serial_ms": round(serial_s * 1000, 2),
        "sharded_ms": round(sharded_s * 1000, 2),
        "speedup": round(serial_s / sharded_s, 3),
    }


def dispatch_snapshot() -> dict:
    """The skewed-lane imbalance of static planning — core-count
    independent, so this trajectory point is meaningful even on the
    noisiest shared runner."""
    from repro.benchmarks import all_tasks

    skew_task = next(t for t in all_tasks()
                     if t.name == parallel_bench.SKEW_TASK)
    skew = parallel_bench.skew_measurements(skew_task)
    return {
        "skew_task": parallel_bench.SKEW_TASK,
        "skew_workers": parallel_bench.WORKERS,
        "estimated_imbalance": round(skew["estimated_imbalance"], 3),
        "actual_imbalance": round(skew["actual_imbalance"], 3),
        "per_shard_visited": skew["per_shard_visited"],
    }


def serve_snapshot(pairs: int) -> dict:
    """Warm-pool request latency on repeated-schema service traffic.

    The ratio is the gated bar in ``test_serve_speed`` (p50 warm ≤ 0.5×
    p50 cold); here it is recorded as a trajectory point.
    """
    m = serve_bench.serve_measurements(pairs)
    return {
        "task": serve_bench.SERVE_TASK,
        "pairs": pairs,
        "cold_p50_ms": round(m["cold_p50_s"] * 1000, 2),
        "warm_p50_ms": round(m["warm_p50_s"] * 1000, 2),
        "warm_ratio": round(m["warm_p50_s"] / m["cold_p50_s"], 3),
        "warm_ratio_bar": serve_bench.MAX_WARM_RATIO,
    }


def pool_snapshot(budget: int) -> dict:
    """Thread-tier vs process-tier aggregate throughput for concurrent
    CPU-bound requests — the process tier's reason to exist, recorded
    with the core count so sub-4-core trajectory points (where the GIL
    comparison is meaningless and the pytest gate skips) are legible.
    """
    cores = parallel_bench.cpu_cores()
    m = serve_bench.concurrency_measurements(budget)
    return {
        "task": serve_bench.CONCURRENT_TASK,
        "requests": m["requests"],
        "budget": budget,
        "cpu_cores": cores,
        "threads_pops_per_s": round(m["threads_pops_per_s"], 1),
        "processes_pops_per_s": round(m["processes_pops_per_s"], 1),
        "process_speedup": round(m["process_speedup"], 3),
        "speedup_bar": serve_bench.MIN_PROCESS_SPEEDUP,
        "bar_gated": cores >= serve_bench.CONCURRENT_REQUESTS,
    }


def recovery_snapshot() -> dict:
    """Crash-recovery overhead: the same request clean vs under an
    injected crash-before-first-slice (supervised restart + checkpoint
    replay), results asserted identical inside the measurement.  Wall
    clock is platform noise; the restart/death counters are the
    behavioral trajectory point."""
    m = serve_bench.recovery_measurements()
    return {
        "task": serve_bench.SERVE_TASK,
        "clean_ms": round(m["clean_s"] * 1000, 2),
        "crashed_ms": round(m["crashed_s"] * 1000, 2),
        "recovery_overhead_ms": round(m["recovery_overhead_s"] * 1000, 2),
        "restarts": m["restarts"],
        "worker_deaths": m["worker_deaths"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perf_snapshot")
    parser.add_argument("--out", default=None,
                        help="output path (default BENCH_<date>.json)")
    parser.add_argument("--engine-rounds", type=int, default=3)
    parser.add_argument("--tracking-rounds", type=int, default=3)
    parser.add_argument("--consistency-rounds", type=int, default=3)
    parser.add_argument("--parallel-rounds", type=int, default=2)
    parser.add_argument("--serve-pairs", type=int,
                        default=serve_bench.PAIRS)
    parser.add_argument("--pool-budget", type=int,
                        default=serve_bench.CONCURRENT_BUDGET)
    args = parser.parse_args(argv)

    date = time.strftime("%Y-%m-%d", time.gmtime())
    out_path = args.out or f"BENCH_{date}.json"

    snapshot = {
        "date": date,
        "commit": _git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_cores": parallel_bench.cpu_cores(),
        "engine": engine_snapshot(args.engine_rounds),
        "tracking": tracking_snapshot(args.tracking_rounds),
        "consistency": consistency_snapshot(args.consistency_rounds),
        "parallel": parallel_snapshot(args.parallel_rounds),
        "dispatch": dispatch_snapshot(),
        "serve": serve_snapshot(args.serve_pairs),
        "pool": pool_snapshot(args.pool_budget),
        "recovery": recovery_snapshot(),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out_path}")
    print(json.dumps(snapshot, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
