"""One benchmark process, started by ``run.py`` from a fresh interpreter.

``--role probe`` sets the workload up, prints ``READY`` and exits: the
parent times it as one set-up sample.  ``--role measure`` does the same
set-up, prints ``READY``, measures the workload's passes, checks every
operation's output and prints one ``RESULT <json>`` line.  With
``--trace 1`` it measures the passes untraced first, then again with the
layer wrappers installed, and reports both throughputs.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from specs import OUT, WORKLOADS, worker_count  # noqa: E402


def _beta_cdf(a: float, b: float, points: int = 4096) -> list[float]:
    """The regularized incomplete beta function I_x(a, b) at x = k/points
    (trapezoid rule; a, b >= 1 here, so the density is bounded)."""
    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    cdf = [0.0]
    previous = density(0.0)
    for k in range(1, points + 1):
        current = density(k / points)
        cdf.append(cdf[-1] + (previous + current) / (2 * points))
        previous = current
    return [c / cdf[-1] for c in cdf]


def quantile(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile.

    A Beta-weighted mean of all order statistics: unlike the nearest-rank
    sample, it does not jump from one cluster of samples to the next when
    two neighbouring samples swap places (the forum-hard and TPC-DS tasks
    form two latency clusters, and the median falls between them).
    """
    ordered = sorted(values)
    n = len(ordered)
    points = 4096
    cdf = _beta_cdf(p * (n + 1), (1 - p) * (n + 1), points)

    def at(x: float) -> float:
        position = x * points
        k = min(int(position), points - 1)
        return cdf[k] + (cdf[k + 1] - cdf[k]) * (position - k)

    return sum((at(i / n) - at((i - 1) / n)) * value
               for i, value in enumerate(ordered, start=1))


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it,
    and its estimate; the median when there are too few samples."""
    n = len(values)
    pct = 50 if n <= 10 else (100 * (n - 10)) // n
    return pct, quantile(values, pct / 100)


def per_task(records: list[dict], key: str) -> list[float]:
    """One sample per task: the median of ``key`` over its passes."""
    by_task: dict[str, list[float]] = {}
    for record in records:
        by_task.setdefault(record["task"], []).append(record[key])
    return [statistics.median(values) for values in by_task.values()]


def end_to_end(records: list[dict], window_s: float | None) -> dict:
    """End-to-end figures of one set of passes.

    Latency samples are per task (the median over the task's passes) for
    search workloads, where passes repeat identical cold operations, so
    a task's sample averages over moments the host ran slowly; the
    served workload keeps one sample per request, because its passes
    differ (the second finds warm workers).  ``window_s`` is the measured
    wall time when operations overlap; otherwise the latencies' sum.
    """
    if window_s is None:
        latencies = per_task(records, "latency_s")
        firsts = per_task(records, "first_query_s")
    else:
        latencies = [r["latency_s"] for r in records]
        firsts = [r["first_query_s"] for r in records]
    pct, tail = tail_percentile(latencies)
    wall = window_s or sum(r["latency_s"] for r in records)
    return {
        "ops": len(records), "samples": len(latencies),
        "ops_per_s": len(records) / wall,
        "latency_p50_s": quantile(latencies, 0.5),
        "latency_tail_s": tail, "tail_percentile": pct,
        "first_query_p50_s": quantile(firsts, 0.5),
        "solved_frac": sum(r["solved"] for r in records) / len(records),
        "failed_ops": sum(r["failed"] for r in records),
        "unchecked_targets": sum(r["oracle"] == "unchecked"
                                 for r in records),
        "oracle_passed": sum(r["oracle"] == "passed" for r in records),
    }


def layer_metrics(tracer, records: list[dict], engine,
                  telemetry: dict) -> dict:
    """Per-layer metrics of the traced passes.

    Self times and call counts come from spans recorded in this process;
    hit rates come from ``engine``, the program's ``EngineStats`` merged
    over the passes.  Layers that run inside shard or pool workers show no
    spans here.
    """
    table = tracer.layer_table()
    counts = tracer.counts

    def self_s(layer: str) -> float:
        return table.get(layer, {}).get("self_s", 0.0)

    def spans(layer: str) -> int:
        return table.get(layer, {}).get("spans", 0)

    session_s = table.get("synthesis.session", {}).get("total_s", 0.0)
    pops = counts["synthesis.session.pops"]
    feasible = counts["abstraction.calls"]
    domains = counts["synthesis.domains.calls"]
    visited = sum(r["visited"] for r in records)
    overheads = [r["latency_s"] - r["search_s"] for r in records]
    served = telemetry.get("warm_hits", 0) + telemetry.get("warm_misses", 0)
    return {
        "synthesis.session.self_s": self_s("synthesis.session"),
        "synthesis.session.pops": pops,
        "synthesis.session.pops_per_s": pops / session_s if session_s else 0.0,
        "synthesis.skeletons.self_s": self_s("synthesis.skeletons"),
        "synthesis.skeletons.count": counts["synthesis.skeletons.count"],
        "synthesis.skeletons.shape_pruned":
            counts["synthesis.skeletons.shape_pruned"],
        "abstraction.self_s": self_s("abstraction"),
        "abstraction.calls": feasible,
        "abstraction.prune_ratio":
            counts["abstraction.pruned"] / feasible if feasible else 0.0,
        "synthesis.domains.self_s": self_s("synthesis.domains"),
        "synthesis.domains.calls": domains,
        "synthesis.domains.mean_width":
            counts["synthesis.domains.width"] / domains if domains else 0.0,
        "provenance.incremental.self_s": self_s("provenance.incremental"),
        "provenance.incremental.calls": spans("provenance.incremental"),
        "provenance.incremental.hit_rate": engine.consistency_hit_rate,
        "provenance.incremental.col_prune_rate": engine.col_prune_rate,
        "engine.self_s": self_s("engine"),
        "engine.calls": spans("engine"),
        "engine.concrete_hit_rate": engine.concrete_hit_rate,
        "engine.tracking_hit_rate": engine.tracking_hit_rate,
        "synthesis.stop.self_s": self_s("synthesis.stop"),
        "synthesis.stop.calls": spans("synthesis.stop"),
        "parallel.overhead_s": sum(overheads),
        "parallel.overshoot_ratio":
            sum(r["raw_visited"] for r in records) / visited
            if visited else 0.0,
        "parallel.shm_bytes_shipped": engine.shm_bytes_shipped,
        "parallel.cross_shard_hits": engine.cross_shard_hits,
        "serve.submit_s": sum(r.get("submit_s", 0.0) for r in records),
        "serve.overhead_p50_s": statistics.median(overheads)
        if telemetry else 0.0,
        "serve.warm_hit_rate":
            telemetry.get("warm_hits", 0) / served if served else 0.0,
        "serve.slices_per_request":
            telemetry.get("slices", 0) / len(records) if telemetry else 0.0,
        "serve.retries": sum(r.get("retries", 0) for r in records),
    }


def environment(runner) -> dict:
    from repro.engine.base import capabilities, resolve_backend
    from repro.parallel.executor import pick_context

    service = getattr(runner, "service", None)
    return {
        "engine_backend": resolve_backend("columnar"),
        "numpy": capabilities()["numpy_version"],
        "start_method": pick_context().get_start_method(),
        "pool_backend": service.pool.backend_name if service else None,
        "workers": runner.workers,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def ready() -> None:
    print("READY", flush=True)


def measure_passes(runner, passes: int, tracer=None) -> tuple[list, float]:
    """Run the passes (traced when ``tracer`` is given) and check them."""
    runner.results.clear()
    runner.tracer = tracer
    if runner.workload.kind == "serve":
        records = asyncio.get_event_loop().run_until_complete(
            runner.measure_async(passes))
        window = runner.window_s
    else:
        records = runner.measure(passes)
        window = None
    runner.tracer = None
    runner.check()
    return records, window


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("probe", "measure"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workers = worker_count(workload, len(os.sched_getaffinity(0)))
    import workload as workload_mod     # imports repro.api

    loop = None
    if workload.kind == "serve":
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        runner = workload_mod.ServeRunner(workload, args.seed, workers,
                                          smoke=args.smoke)
        runner.start()
        loop.run_until_complete(runner.warm())
    else:
        runner = workload_mod.Runner(workload, args.seed, workers,
                                     smoke=args.smoke)
        runner.setup()
    ready()
    try:
        if args.role == "probe":
            return 0
        passes = workload.passes
        if args.trace and loop is None:
            # Half the passes untraced, half traced: about the work of an
            # untraced run, and the tracing overhead from one process.
            passes = max(1, passes // 2)
        records, window = measure_passes(runner, passes)
        out = {"end_to_end": end_to_end(records, window),
               "env": environment(runner)}
        if args.trace:
            from layers import Tracer, install_layers

            if loop is not None:
                # The traced passes need the same cold start as the
                # untraced ones: a fresh service, warmed the same way.
                loop.run_until_complete(runner.close())
                runner.start()
                loop.run_until_complete(runner.warm())
            tracer = Tracer()
            install_layers(tracer)
            try:
                traced, traced_window = measure_passes(runner, passes,
                                                       tracer)
            finally:
                tracer.unpatch()
            traced_e2e = end_to_end(traced, traced_window)
            layers = layer_metrics(tracer, traced, runner.engine_stats(),
                                   getattr(runner, "telemetry", {}))
            untraced_rate = out["end_to_end"]["ops_per_s"]
            layers["trace.untraced_ops_per_s"] = untraced_rate
            layers["trace.traced_ops_per_s"] = traced_e2e["ops_per_s"]
            layers["trace.overhead_ratio"] = \
                untraced_rate / traced_e2e["ops_per_s"]
            out["layers"] = layers
            out["layer_table"] = tracer.layer_table()
            out["traced_end_to_end"] = traced_e2e
            path = OUT / f"trace-{args.workload}-{args.seed}.json"
            out["trace_file"] = str(path)
            out["trace_events"] = tracer.write_chrome_trace(path)
            records = records + traced
        out["attempted"] = len(records)
        out["failed"] = sum(r["failed"] for r in records)
        out["failures"] = [
            {key: r[key] for key in ("op", "task", "digest_ok", "oracle")}
            for r in records if r["failed"]]
        print("RESULT " + json.dumps(out), flush=True)
        return 0
    finally:
        if loop is not None:
            loop.run_until_complete(runner.close())
            loop.close()


if __name__ == "__main__":
    sys.exit(main())
