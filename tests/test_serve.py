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
from repro.parallel import NO_LIMIT, CancelToken
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
#: Hard task whose sharded search to FANOUT_BUDGET pops takes seconds —
#: long enough for a cancel or a request deadline to land mid-fan-out.
FANOUT = TASKS["fh17_final_running_volume_rank"]
FANOUT_BUDGET = 20_000

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
def test_differential_thread_vs_process_tiers(start_method):
    """The tentpole differential: the same request set produces identical
    ranked queries and SearchStats on the thread-backed and the
    process-backed pool, under fork and spawn."""
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} not supported here")
    requests = [
        (EASY, _config(EASY, backend="columnar"),
         GroundTruthStop(EASY.ground_truth)),
        (SHARED, _config(SHARED, backend="columnar", top_n=5), None),
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


def test_submit_rejects_bad_technique_and_timeout():
    """Bad request input fails at ``submit`` with a typed error, instead
    of being admitted and failing (or timing out) on a worker."""
    async def main():
        async with SynthesisService(ServiceConfig(pool_size=1)) as svc:
            config = _config(EASY)
            with pytest.raises(ValueError, match="unknown abstraction"):
                svc.submit(EASY.tables, EASY.demonstration, config,
                           technique="bogus")
            with pytest.raises(ValueError, match="timeout_s"):
                svc.submit(EASY.tables, EASY.demonstration, config,
                           timeout_s=-1)
            assert not svc._live

    asyncio.run(main())


@pytest.mark.parametrize("field, value", [
    ("default_timeout_s", -5), ("supervise_interval_s", 0),
    ("supervise_interval_s", -0.1)])
def test_service_config_rejects_bad_budgets(field, value):
    with pytest.raises(ValueError, match=field):
        ServiceConfig(**{field: value})


@pytest.mark.parametrize("interval", (0, -0.1))
def test_worker_pool_rejects_non_positive_supervise_interval(interval):
    """A pool built directly refuses an interval that would silently
    start no supervisor, as ``ServiceConfig`` does."""
    with pytest.raises(ValueError, match="supervise_interval_s"):
        WorkerPool(1, backend="threads", supervise_interval_s=interval)


def test_worker_pool_none_supervise_interval_runs_no_supervisor():
    pool = WorkerPool(1, backend="threads", supervise_interval_s=None)
    try:
        assert pool._supervisor is None
    finally:
        pool.close()


def test_service_config_none_budgets_keep_their_meaning():
    """``None`` still means no default request budget and no supervisor."""
    async def main():
        svc_cfg = ServiceConfig(pool_size=1, default_timeout_s=None,
                                supervise_interval_s=None)
        async with SynthesisService(svc_cfg) as svc:
            assert svc.pool._supervisor is None
            handle = svc.submit(EASY.tables, EASY.demonstration,
                                _config(EASY))
            await handle.result()
            assert handle.status == "done"

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


async def _fanned_out(svc, executor, timeout_s=None):
    """Submit FANOUT with ``workers=2`` to a warm service and wait for its
    first slice, after which an idle worker lets it fan out."""
    await svc.submit(EASY.tables, EASY.demonstration, _config(EASY)).result()
    config = _config(FANOUT, budget=FANOUT_BUDGET, workers=2,
                     parallel_executor=executor)
    handle = svc.submit(FANOUT.tables, FANOUT.demonstration, config,
                        stop=GroundTruthStop(FANOUT.ground_truth),
                        timeout_s=timeout_s)
    while handle.session.stats.visited == 0:
        await asyncio.sleep(0.005)
    return handle


@pytest.mark.parametrize("executor", ("process", "serial"))
@pytest.mark.parametrize("backend", BACKENDS)
def test_cancel_reaches_fanned_out_shards(backend, executor):
    """A cancel stops a request whose search fanned out to shard workers,
    on either tier and executor: the session's cancel token is the one
    its shards poll (the process tier's request slot included)."""
    async def main():
        svc_cfg = ServiceConfig(pool_size=2, slice_pops=50,
                                pool_backend=backend)
        async with SynthesisService(svc_cfg) as svc:
            handle = await _fanned_out(svc, executor)
            await asyncio.sleep(0.5)
            handle.cancel()
            result = await handle.result()
            assert handle.status == "cancelled"
            assert result.stats.visited < FANOUT_BUDGET
            assert result.target is None

    asyncio.run(main())


@pytest.mark.parametrize("backend", BACKENDS)
def test_fanned_out_request_honors_its_timeout(backend):
    """The request deadline bounds a fanned-out run too: it ends
    ``timed_out`` with a partial result, as a sliced request does."""
    async def main():
        svc_cfg = ServiceConfig(pool_size=2, slice_pops=50,
                                pool_backend=backend)
        async with SynthesisService(svc_cfg) as svc:
            handle = await _fanned_out(svc, "process", timeout_s=1.0)
            result = await handle.result()
            assert handle.status == "timed_out"
            assert result.stats.timed_out
            assert result.stats.visited < FANOUT_BUDGET

    asyncio.run(main())


def test_recycled_pool_slot_reads_no_limit():
    """A cancelled request leaves round 0 in its cancel-token slot; the
    next request handed that slot starts live and runs to completion."""
    config = _config(EASY)
    reference = _reference(EASY, config)

    async def main():
        pool = WorkerPool(1, backend="processes")
        backend = pool._backend
        async with SynthesisService(ServiceConfig(pool_size=1,
                                                  slice_pops=20),
                                    pool=pool) as svc:
            hard = svc.submit(HARD.tables, HARD.demonstration,
                              _config(HARD, budget=10**6, top_n=10**6))
            (slot,) = backend._slots.values()
            hard.cancel()
            await hard.result()
            assert hard.status == "cancelled"
            assert CancelToken(backend._cancel_limits, slot).limit() == 0
            assert backend._free_slots[-1] == slot      # reused next
            handle = svc.submit(EASY.tables, EASY.demonstration, config)
            assert CancelToken(backend._cancel_limits, slot).limit() \
                == NO_LIMIT
            _assert_identical(reference, await handle.result())
            assert handle.status == "done"
        pool.close()

    asyncio.run(main())


def test_forked_pool_fans_out_to_spawned_shards(monkeypatch):
    """A pool forked explicitly while shards are spawned: the request
    slots' lock must still cross into the spawned shard processes."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" not in methods or "spawn" not in methods:
        pytest.skip("needs both fork and spawn")
    monkeypatch.setenv("REPRO_START_METHOD", "spawn")
    serial = _config(HARD, budget=300, top_n=10**6)
    reference = _reference(HARD, serial)
    fan = serial.replace(workers=2, parallel_executor="process")

    async def main():
        pool = WorkerPool(2, backend="processes", start_method="fork")
        async with SynthesisService(ServiceConfig(pool_size=2,
                                                  slice_pops=30),
                                    pool=pool) as svc:
            handle = svc.submit(HARD.tables, HARD.demonstration, fan)
            result = await handle.result()
            _assert_identical(reference, result)
            assert result.workers == 2
        pool.close()

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
