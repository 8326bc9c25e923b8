"""Serving-tier benchmarks: warm-request latency, process-tier
concurrent throughput, and crash-recovery overhead.

**Latency** — the warm pool's claim is about the second request, not the
first: a worker that already hosts the engine (subtree/block/verdict
caches hot) for a request shape it has seen serves it without the cold
build.  The workload is repeated same-schema traffic on a registry task
whose multi-operator sub-plans repeat across candidates
(``fe20_share_of_region_total``), measured end-to-end through the
asyncio service so queueing and slice scheduling are part of every
sample.  Pinned to the thread tier: the samples are sub-slice latencies
where process dispatch overhead would drown the cache signal.

Gated bar: p50 warm latency ≤ ``MAX_WARM_RATIO`` × p50 cold latency.  It
is schedule-independent — warm/cold run interleaved in the same process
— so the gate holds on shared runners, unlike core-count-bound speedups.

**Throughput** — the process tier exists because CPU-bound searches on
worker threads share one GIL.  Four concurrent hard requests through a
four-worker pool, thread tier vs process tier, identical results
asserted: the aggregate pops/s ratio is the tier's reason to exist, and
is gated at ≥ ``MIN_PROCESS_SPEEDUP``× on runners with ≥ 4 cores.

**Recovery** — the fault-tolerance claim is that a worker crash costs
latency, never correctness: the same request runs clean and under an
injected crash-before-slice (supervised restart + checkpoint replay),
results asserted byte-identical, and the wall-clock overhead reported.
Not latency-gated (restart cost is platform-dependent); gated on the
recovery actually happening (restarts ≥ 1, retries ≥ 1).
"""

from __future__ import annotations

import asyncio
import gc
import statistics
import time
from unittest import mock

import pytest

import repro.serve.pool as pool_module
from repro.benchmarks import all_tasks
from repro.serve import (
    FaultPlan,
    ServiceConfig,
    SynthesisService,
    WorkerPool,
)

from test_parallel_speed import cpu_cores

SERVE_TASK = "fe20_share_of_region_total"
VISITED_BUDGET = 400
PAIRS = 5
MAX_WARM_RATIO = 0.5

CONCURRENT_TASK = "fh02_region_quarter_share"
CONCURRENT_REQUESTS = 4
CONCURRENT_BUDGET = 10_000
MIN_PROCESS_SPEEDUP = 2.0


def serve_task():
    return next(t for t in all_tasks() if t.name == SERVE_TASK)


async def _timed_request(svc, task, config, worker):
    start = time.perf_counter()
    handle = svc.submit(task.tables, task.demonstration, config,
                        worker=worker)
    result = await handle.result()
    return time.perf_counter() - start, result


async def _measure_pair(task, config):
    """(cold_s, warm_s, results) for one fresh pool.

    Request 1 on worker 0 is the cold sample (engine built + every cache
    empty), request 2 on worker 0 the warm sample, request 3 on worker 1
    a cold run on a second engine, whose results must match.
    """
    pool = WorkerPool(2, backend="threads")
    try:
        async with SynthesisService(pool=pool) as svc:
            cold_s, first = await _timed_request(svc, task, config, 0)
            warm_s, second = await _timed_request(svc, task, config, 0)
            _, cross = await _timed_request(svc, task, config, 1)
    finally:
        pool.close()
    return cold_s, warm_s, (first, second, cross)


def serve_measurements(pairs: int = PAIRS) -> dict:
    """p50 cold/warm request latency over ``pairs`` fresh pools (results
    are asserted equal pairwise — warmth must never change them)."""
    task = serve_task()
    config = task.config.replace(timeout_s=None, max_visited=VISITED_BUDGET)
    cold, warm = [], []
    gc.collect()
    for _ in range(pairs):
        cold_s, warm_s, results = asyncio.run(
            _measure_pair(task, config))
        first, second, cross = results
        assert second.queries == first.queries
        assert cross.queries == first.queries
        assert second.stats.visited == first.stats.visited
        cold.append(cold_s)
        warm.append(warm_s)
    return {
        "cold_p50_s": statistics.median(cold),
        "warm_p50_s": statistics.median(warm),
    }


def test_warm_pool_latency():
    """Gated: warm p50 ≤ 0.5× cold p50."""
    m = serve_measurements()
    ratio = m["warm_p50_s"] / m["cold_p50_s"]
    print(f"\nwarm-pool serving ({SERVE_TASK}, p50 of {PAIRS} pairs):")
    print(f"  cold request  {m['cold_p50_s'] * 1000:8.2f} ms")
    print(f"  warm request  {m['warm_p50_s'] * 1000:8.2f} ms")
    print(f"  warm/cold     {ratio:8.2f}  (bar: <= {MAX_WARM_RATIO})")
    assert ratio <= MAX_WARM_RATIO, (
        f"warm request p50 only {ratio:.2f}x of cold "
        f"(bar: <= {MAX_WARM_RATIO}x)")


async def _tier_wall_s(backend: str, task, config) -> tuple[float, list]:
    """Wall clock for CONCURRENT_REQUESTS simultaneous requests, one per
    worker (pinned, so placement is identical across tiers)."""
    pool = WorkerPool(CONCURRENT_REQUESTS, backend=backend)
    try:
        async with SynthesisService(pool=pool) as svc:
            start = time.perf_counter()
            handles = [svc.submit(task.tables, task.demonstration, config,
                                  worker=i)
                       for i in range(CONCURRENT_REQUESTS)]
            results = [await handle.result() for handle in handles]
            wall_s = time.perf_counter() - start
    finally:
        pool.close()
    return wall_s, results


def concurrency_measurements(budget: int = CONCURRENT_BUDGET) -> dict:
    """Aggregate pops/s for concurrent CPU-bound requests, thread tier vs
    process tier — the number the process backend exists for."""
    task = next(t for t in all_tasks() if t.name == CONCURRENT_TASK)
    config = task.config.replace(timeout_s=None, max_visited=budget,
                                 top_n=10**6)
    gc.collect()
    walls, all_results = {}, {}
    for backend in ("threads", "processes"):
        walls[backend], all_results[backend] = asyncio.run(
            _tier_wall_s(backend, task, config))
    # Throughput never buys divergence: both tiers produced the same
    # ranked queries and stats for every request.
    for thread_r, process_r in zip(all_results["threads"],
                                   all_results["processes"]):
        assert process_r.queries == thread_r.queries
        assert process_r.stats.visited == thread_r.stats.visited
    pops = sum(r.stats.visited for r in all_results["threads"])
    return {
        "requests": CONCURRENT_REQUESTS,
        "threads_pops_per_s": pops / walls["threads"],
        "processes_pops_per_s": pops / walls["processes"],
        "process_speedup": walls["threads"] / walls["processes"],
    }


def test_process_tier_concurrent_throughput():
    """Gated on ≥ 4 cores: four concurrent hard requests run ≥ 2× faster
    on the process tier than on the GIL-shared thread tier."""
    if cpu_cores() < CONCURRENT_REQUESTS:
        pytest.skip(f"needs >= {CONCURRENT_REQUESTS} cores for a "
                    f"meaningful GIL-contention comparison")
    m = concurrency_measurements()
    print(f"\nconcurrent serving ({CONCURRENT_TASK}, "
          f"{m['requests']} simultaneous requests):")
    print(f"  thread tier   {m['threads_pops_per_s']:10.0f} pops/s")
    print(f"  process tier  {m['processes_pops_per_s']:10.0f} pops/s")
    print(f"  speedup       {m['process_speedup']:10.2f}x "
          f"(bar: >= {MIN_PROCESS_SPEEDUP}x)")
    assert m["process_speedup"] >= MIN_PROCESS_SPEEDUP, (
        f"process tier only {m['process_speedup']:.2f}x over threads for "
        f"{m['requests']} concurrent requests "
        f"(bar: >= {MIN_PROCESS_SPEEDUP}x)")


async def _recovery_run(task, config, faults) -> tuple[float, object, dict]:
    """(wall_s, result, pool telemetry) for one request through a fresh
    single-worker process pool, with or without injected faults."""
    svc_cfg = ServiceConfig(pool_size=1, pool_backend="processes",
                            slice_pops=100, max_retries=4, faults=faults)
    async with SynthesisService(svc_cfg) as svc:
        start = time.perf_counter()
        handle = svc.submit(task.tables, task.demonstration, config)
        result = await handle.result()
        wall_s = time.perf_counter() - start
        telemetry = svc.pool.telemetry()
    return wall_s, result, telemetry


def recovery_measurements() -> dict:
    """Clean run vs crash-before-first-slice run of the same request on
    the process tier: recovery overhead in wall clock, with results
    asserted byte-identical (the transparency claim) and the recovery
    counters returned for the snapshot."""
    task = serve_task()
    config = task.config.replace(timeout_s=None, max_visited=VISITED_BUDGET)
    gc.collect()
    # A 0.02 s supervisor sweep, so detection latency does not dominate.
    with mock.patch.object(pool_module, "SUPERVISE_INTERVAL_S", 0.02):
        clean_s, clean, _ = asyncio.run(_recovery_run(task, config, None))
        faults = FaultPlan(seed=5, crash_before=1.0)
        crashed_s, crashed, telemetry = asyncio.run(
            _recovery_run(task, config, faults))
    assert crashed.queries == clean.queries
    assert crashed.stats.visited == clean.stats.visited
    return {
        "clean_s": clean_s,
        "crashed_s": crashed_s,
        "recovery_overhead_s": crashed_s - clean_s,
        "restarts": telemetry["restarts"],
        "worker_deaths": telemetry["worker_deaths"],
    }


def test_crash_recovery_is_transparent():
    """Gated on behavior, not speed: the crashed run restarts its worker,
    replays, and produces the byte-identical result (asserted inside
    recovery_measurements)."""
    m = recovery_measurements()
    print(f"\ncrash recovery ({SERVE_TASK}, process tier, "
          f"crash before first slice):")
    print(f"  clean run     {m['clean_s'] * 1000:8.2f} ms")
    print(f"  crashed run   {m['crashed_s'] * 1000:8.2f} ms")
    print(f"  overhead      {m['recovery_overhead_s'] * 1000:8.2f} ms")
    print(f"  restarts={m['restarts']} worker_deaths={m['worker_deaths']}")
    assert m["restarts"] >= 1
    assert m["worker_deaths"] >= 1
