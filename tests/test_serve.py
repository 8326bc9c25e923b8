"""Serving-layer tests: backend-pluggable warm pool, asyncio service,
admission control, schema-affinity routing.

The service's pledge is the session's pledge plus scheduling: slicing,
worker placement, warm engines and the choice of worker tier (threads or
processes, fork or spawn) change latency only — every request's ranked
queries and ``SearchStats`` are byte-identical to an uninterrupted
serial run.  The asyncio legs run under ``asyncio.run`` (no plugin).
"""

import asyncio
import multiprocessing

import pytest

from repro.benchmarks import all_tasks
from repro.engine.base import resolve_backend
from repro.serve import (
    ServiceConfig,
    ServiceOverloaded,
    SynthesisService,
    WorkerPool,
    resolve_pool_backend,
    warm_key,
)
from repro.synthesis import (
    GroundTruthStop,
    SynthesisConfig,
    SynthesisSession,
    Synthesizer,
)
from repro.util.timer import Deadline

TASKS = {t.name: t for t in all_tasks()}

#: Easy task for fast parity legs.
EASY = TASKS["fe01_total_sales_per_region"]
#: Hard task whose search outlasts any budget used here — the one to
#: keep in flight while testing admission, cancellation and timeouts.
HARD = TASKS["fh02_region_quarter_share"]
#: A registry task whose multi-operator sub-plans repeat across
#: candidates, so a warm engine's block cache matters.
SHARED = TASKS["fe20_share_of_region_total"]

VISITED_BUDGET = 400

DETERMINISTIC_FIELDS = ("visited", "pruned", "expanded", "concrete_checked",
                        "consistent_found", "timed_out", "skeletons",
                        "max_skeleton_size")

BACKENDS = ("threads", "processes")


def _config(task, budget=VISITED_BUDGET, **overrides):
    return task.config.replace(timeout_s=None, max_visited=budget,
                               **overrides)


def _reference(task, config, stop=None):
    return Synthesizer("provenance", config).run(
        task.tables, task.demonstration, stop)


def _assert_identical(reference, result):
    assert result.queries == reference.queries
    for field in DETERMINISTIC_FIELDS:
        assert getattr(result.stats, field) == \
            getattr(reference.stats, field), field
    assert result.target == reference.target


def test_request_matches_uninterrupted_run():
    """Sliced, pool-scheduled execution is pure preemption: byte-identical
    ranked queries and stats versus the classic serial run (on whatever
    tier the environment resolves — the CI matrix covers both)."""
    async def main():
        svc_cfg = ServiceConfig(pool_size=2, slice_pops=50)
        async with SynthesisService(svc_cfg) as svc:
            for task in (EASY, HARD):
                config = _config(task)
                stop = GroundTruthStop(task.ground_truth)
                reference = _reference(task, config, stop)
                handle = svc.submit(task.tables, task.demonstration,
                                    config, stop=stop)
                result = await handle.result()
                _assert_identical(reference, result)
                assert handle.status == "done"

    asyncio.run(main())


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
@pytest.mark.parametrize("engine", ["columnar", "numpy"])
def test_differential_thread_vs_process_tiers(start_method, engine):
    """The tentpole differential: the same request set produces identical
    ranked queries and SearchStats on the thread-backed and the
    process-backed pool, under fork and spawn, columnar and numpy."""
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} not supported here")
    if engine == "numpy" and resolve_backend("numpy") != "numpy":
        pytest.skip("NumPy not installed (numpy backend degrades)")
    requests = [
        (EASY, _config(EASY, backend=engine),
         GroundTruthStop(EASY.ground_truth)),
        (SHARED, _config(SHARED, backend=engine, top_n=5), None),
    ]
    references = [_reference(task, config, stop)
                  for task, config, stop in requests]

    async def tier(backend):
        pool = WorkerPool(2, backend=backend, start_method=start_method
                          if backend == "processes" else None)
        svc_cfg = ServiceConfig(pool_size=2, slice_pops=40)
        async with SynthesisService(svc_cfg, pool=pool) as svc:
            handles = [svc.submit(task.tables, task.demonstration, config,
                                  stop=stop)
                       for task, config, stop in requests]
            results = [await handle.result() for handle in handles]
        pool.close()
        return results

    for backend in BACKENDS:
        results = asyncio.run(tier(backend))
        for reference, result in zip(references, results):
            _assert_identical(reference, result)


def test_stream_yields_hits_in_discovery_order():
    async def main():
        async with SynthesisService(ServiceConfig(slice_pops=25)) as svc:
            config = _config(EASY, top_n=10)
            handle = svc.submit(EASY.tables, EASY.demonstration, config)
            streamed = [query async for query in handle.stream()]
            result = await handle.result()
            assert len(streamed) == result.stats.consistent_found
            # Discovery order upstream of ranking: same multiset.
            assert sorted(map(repr, streamed)) == \
                sorted(map(repr, result.queries))

    asyncio.run(main())


def test_admission_rejects_at_bound_and_recovers():
    async def main():
        svc_cfg = ServiceConfig(pool_size=1, max_requests=1, slice_pops=50)
        async with SynthesisService(svc_cfg) as svc:
            config = _config(HARD, budget=10**6, top_n=10**6)
            first = svc.submit(HARD.tables, HARD.demonstration, config,
                               worker=0)
            with pytest.raises(ServiceOverloaded, match="retry later"):
                svc.submit(HARD.tables, HARD.demonstration, config)
            first.cancel()
            await first.result()
            assert first.status == "cancelled"
            # The slot freed up: admission works again.
            retry = svc.submit(EASY.tables, EASY.demonstration,
                               _config(EASY))
            await retry.result()
            assert retry.status == "done"

    asyncio.run(main())


def test_per_request_timeout_reports_timed_out():
    """The request budget is wall clock from admission (queueing included)
    — an already-expired deadline surfaces as a TIMED_OUT partial result
    with the classic stats marker, before any search runs."""
    async def main():
        async with SynthesisService(ServiceConfig(pool_size=1)) as svc:
            config = _config(HARD, budget=10**6, top_n=10**6)
            handle = svc.submit(HARD.tables, HARD.demonstration, config,
                                timeout_s=1e-9)
            result = await handle.result()
            assert handle.status == "timed_out"
            assert result.stats.timed_out

    asyncio.run(main())


@pytest.mark.parametrize("backend", BACKENDS)
def test_cancel_mid_flight_returns_partial_result(backend):
    """Cancellation reaches a running slice on either tier — directly on
    the shared session (threads), through the shared-memory flag the
    session polls every pop (processes)."""
    async def main():
        svc_cfg = ServiceConfig(slice_pops=20, pool_backend=backend)
        async with SynthesisService(svc_cfg) as svc:
            config = _config(HARD, budget=10**6, top_n=10**6)
            handle = svc.submit(HARD.tables, HARD.demonstration, config)
            # Let a few slices land, then pull the plug.
            while handle.session.stats.visited < 100:
                await asyncio.sleep(0.001)
            handle.cancel()
            result = await handle.result()
            assert handle.status == "cancelled"
            assert result.stats.visited < 10**6
            assert result.target is None

    asyncio.run(main())


@pytest.mark.parametrize("backend", BACKENDS)
def test_warm_worker_reuses_engine(backend):
    """Same worker + same request shape reuses the warm engine outright;
    a *different* worker builds its own engine.  Results never differ."""
    async def main():
        pool = WorkerPool(2, backend=backend)
        async with SynthesisService(pool=pool) as svc:
            config = _config(SHARED)
            cold = svc.submit(SHARED.tables, SHARED.demonstration, config,
                              worker=0)
            first = await cold.result()

            # Same worker, same shape: engine served warm from the cache.
            warm = svc.submit(SHARED.tables, SHARED.demonstration, config,
                              worker=0)
            second = await warm.result()
            _assert_identical(first, second)

            # Other worker: a fresh engine of its own.
            other = svc.submit(SHARED.tables, SHARED.demonstration, config,
                               worker=1)
            third = await other.result()
            _assert_identical(first, third)

            telemetry = pool.telemetry()
            assert telemetry["backend"] == backend
            assert telemetry["cold_builds"] == 2    # one per worker
            assert telemetry["warm_hits"] >= 1
            assert telemetry["warm_keys"] == 2
            per_worker = telemetry["per_worker"]
            assert [w["worker_id"] for w in per_worker] == [0, 1]
            assert per_worker[0]["warm_hits"] >= 1  # the repeat landed here
            assert all(w["queue_depth"] == 0 for w in per_worker)
            assert sum(w["slices"] for w in per_worker) >= 3
        pool.close()

    asyncio.run(main())


def test_affinity_routing_raises_warm_hit_rate():
    """Schema-affinity placement vs blind rotation on a repeated-schema
    mix cycling through a two-worker pool.  Affinity pins each request
    shape to one worker — exactly one cold serve per distinct
    ``(warm key, env)``; a blind router (pinning request ``n`` to worker
    ``n % 2``) scatters every shape across both workers — the measurable
    win the routing exists for."""
    mix = [EASY, HARD, SHARED]
    distinct = len({
        (warm_key(_config(task, budget=60, top_n=10**6), "provenance"),
         SynthesisSession(task.tables, task.demonstration).env)
        for task in mix})

    async def run_mix(blind):
        svc_cfg = ServiceConfig(pool_size=2, slice_pops=100,
                                pool_backend="threads")
        async with SynthesisService(svc_cfg) as svc:
            for n in range(3 * len(mix)):
                task = mix[n % len(mix)]
                handle = svc.submit(task.tables, task.demonstration,
                                    _config(task, budget=60, top_n=10**6),
                                    worker=n % 2 if blind else None)
                await handle.result()
            telemetry = svc.pool.telemetry()
        return telemetry["warm_hits"], telemetry["warm_misses"]

    async def main():
        affinity_hits, affinity_misses = await run_mix(blind=False)
        rr_hits, rr_misses = await run_mix(blind=True)
        assert affinity_hits + affinity_misses == 9
        assert rr_hits + rr_misses == 9
        # Perfect stickiness: one cold serve per distinct shape...
        assert affinity_misses == distinct
        # ...while rotation re-serves every shape cold on both workers.
        assert rr_misses == 2 * distinct
        assert affinity_hits > rr_hits

    asyncio.run(main())


def test_warm_key_ignores_budgets_but_splits_techniques():
    base = SynthesisConfig()
    assert warm_key(base, "provenance") == \
        warm_key(base.replace(max_visited=7, top_n=3), "provenance")
    assert warm_key(base, "provenance") != warm_key(base, "value")
    # A numpy request degraded to the fallback shares that warm engine.
    if resolve_backend("numpy") == resolve_backend("columnar"):
        assert warm_key(base.replace(backend="numpy"), "provenance") == \
            warm_key(base.replace(backend="columnar"), "provenance")


def test_resolve_pool_backend(monkeypatch):
    monkeypatch.delenv("REPRO_POOL_BACKEND", raising=False)
    assert resolve_pool_backend(None, 1) == "threads"
    assert resolve_pool_backend(None, 2) == "processes"
    assert resolve_pool_backend("auto", 4) == "processes"
    assert resolve_pool_backend("threads", 4) == "threads"
    monkeypatch.setenv("REPRO_POOL_BACKEND", "threads")
    assert resolve_pool_backend(None, 4) == "threads"
    # Explicit argument beats the environment.
    assert resolve_pool_backend("processes", 4) == "processes"
    with pytest.raises(ValueError, match="unknown pool backend"):
        resolve_pool_backend("fibers", 2)


@pytest.mark.parametrize("backend", BACKENDS)
def test_intra_request_fanout_is_byte_identical(backend):
    """workers > 1 is honored inside the service: with idle pool capacity
    the request re-dispatches its remaining lanes at a round boundary —
    and the result is still byte-identical to the serial run."""
    serial = _config(HARD, budget=300, top_n=10**6)
    reference = _reference(HARD, serial)
    fan = serial.replace(workers=2, parallel_executor="serial")

    async def main():
        svc_cfg = ServiceConfig(pool_size=2, slice_pops=30,
                                pool_backend=backend)
        async with SynthesisService(svc_cfg) as svc:
            handle = svc.submit(HARD.tables, HARD.demonstration, fan)
            result = await handle.result()
            _assert_identical(reference, result)
            assert result.workers == 2      # the sharded path actually ran
            with pytest.raises(ValueError, match="out of range"):
                svc.submit(EASY.tables, EASY.demonstration, worker=2)

    asyncio.run(main())


def test_close_cancels_live_requests_and_stops_admission():
    async def main():
        svc = SynthesisService(ServiceConfig(pool_size=1, slice_pops=20))
        async with svc:
            config = _config(HARD, budget=10**6, top_n=10**6)
            handle = svc.submit(HARD.tables, HARD.demonstration, config)
        # __aexit__ → close(): the live request was cancelled and resolved.
        assert handle.status == "cancelled"
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(EASY.tables, EASY.demonstration)

    asyncio.run(main())


def test_caller_supplied_pool_survives_service():
    """Warm state persists across service restarts when the caller owns
    the pool — the whole point of decoupling pool and service lifetime."""
    async def main():
        pool = WorkerPool(1)
        async with SynthesisService(pool=pool) as svc:
            await svc.submit(SHARED.tables, SHARED.demonstration,
                             _config(SHARED), worker=0).result()
        built = pool.telemetry()["cold_builds"]
        assert built == 1
        # New service, same pool: the engine is already warm.
        async with SynthesisService(pool=pool) as svc:
            await svc.submit(SHARED.tables, SHARED.demonstration,
                             _config(SHARED), worker=0).result()
        telemetry = pool.telemetry()
        assert telemetry["cold_builds"] == built
        assert telemetry["warm_hits"] >= 1
        pool.close()
        pool.close()                    # idempotent
        session = SynthesisSession(SHARED.tables, SHARED.demonstration,
                                   _config(SHARED))
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit_request(session, worker_id=0, slice_pops=10,
                                deadline=Deadline(None), env_key="x",
                                on_slice=lambda outcome: None)

    asyncio.run(main())


def test_close_surfaces_stuck_worker_instead_of_hanging():
    """A worker mid-slice past the drain timeout is reported, not waited
    on forever — interpreter shutdown can't hang on the pool."""
    pool = WorkerPool(1, backend="threads")
    session = SynthesisSession(
        HARD.tables, HARD.demonstration,
        _config(HARD, budget=20000, top_n=10**6))
    pool.submit_request(session, worker_id=0, slice_pops=10**9,
                        deadline=Deadline(None), env_key="stuck",
                        on_slice=lambda outcome: None)
    with pytest.raises(RuntimeError, match="did not drain"):
        pool.close(timeout_s=0.05)
    session.cancel()                    # let the daemon thread wind down
    pool.close()                        # already closed: no-op, no raise


def test_slices_interleave_requests_on_one_worker():
    """Cooperative round-robin: two requests pinned to one worker make
    progress together instead of head-of-line blocking."""
    async def main():
        svc_cfg = ServiceConfig(pool_size=1, slice_pops=10)
        async with SynthesisService(svc_cfg) as svc:
            config = _config(HARD, budget=3000, top_n=10**6)
            left = svc.submit(HARD.tables, HARD.demonstration, config,
                              worker=0)
            right = svc.submit(HARD.tables, HARD.demonstration, config,
                               worker=0)
            # Both reach RUNNING mid-flight: neither ran to completion
            # before the other got its first slice on the shared worker.
            while left.status != "running" or right.status != "running":
                await asyncio.sleep(0.001)
            assert min(left.session.stats.visited,
                       right.session.stats.visited) > 0
            results = await asyncio.gather(left.result(), right.result())
            _assert_identical(results[0], results[1])

    asyncio.run(main())


def test_process_tier_ships_inputs_pickled(dispatch_side_channels):
    """A process-tier served request travels as a pickled checkpoint: the
    pool lays out no shared-memory segment and starts no manager process,
    and the result still matches the serial run."""
    config = _config(SHARED)
    reference = _reference(SHARED, config)

    async def main():
        svc_cfg = ServiceConfig(pool_size=2, slice_pops=50,
                                pool_backend="processes")
        async with SynthesisService(svc_cfg) as svc:
            handle = svc.submit(SHARED.tables, SHARED.demonstration, config)
            result = await handle.result()
            assert svc.pool.backend_name == "processes"
        return result

    _assert_identical(reference, asyncio.run(main()))
    assert dispatch_side_channels() == []
