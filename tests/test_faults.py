"""Chaos tests for the fault-tolerant serving stack.

Every test here injects deterministic faults (:mod:`repro.serve.faults`)
into the pool and asserts the recovery contract: under worker crashes
(before / mid / after a slice), hangs and spawn failures, every affected
request still completes with ranked queries and ``SearchStats``
byte-identical to a crash-free run — the determinism pledge is what makes
checkpoint-replay recovery transparent.
"""

import asyncio
import multiprocessing

import pytest

import repro.serve.pool as pool_module
from repro.benchmarks import all_tasks
from repro.serve import (
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    ServiceConfig,
    ServiceOverloaded,
    SynthesisService,
    WorkerPool,
    parse_faults,
)
from repro.serve.service import CANCELLED, DONE, FAILED, RETRYING
from repro.synthesis import GroundTruthStop, Synthesizer
from repro.synthesis.session import SynthesisSession

TASKS = {t.name: t for t in all_tasks()}
EASY = TASKS["fe01_total_sales_per_region"]
HARD = TASKS["fh02_region_quarter_share"]
SHARED = TASKS["fe20_share_of_region_total"]

VISITED_BUDGET = 400

#: The stats fields the determinism pledge covers (elapsed_s is wall
#: clock and legitimately varies).
DETERMINISTIC_FIELDS = ("visited", "pruned", "expanded", "concrete_checked",
                        "consistent_found", "timed_out", "skeletons",
                        "max_skeleton_size")

BACKENDS = ("threads", "processes")

START_METHODS = tuple(m for m in ("fork", "spawn")
                      if m in multiprocessing.get_all_start_methods())

pytestmark = pytest.mark.usefixtures("no_leaked_children")


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


@pytest.fixture(autouse=True)
def fast_supervisor(monkeypatch):
    """Sweep for failures every 0.02 s so the chaos legs stay quick."""
    monkeypatch.setattr(pool_module, "SUPERVISE_INTERVAL_S", 0.02)


def _chaos_config(plan, *, backend="processes", max_retries=4,
                  slice_timeout_s=None, **overrides):
    return ServiceConfig(pool_size=1, pool_backend=backend, slice_pops=50,
                         max_retries=max_retries,
                         slice_timeout_s=slice_timeout_s, faults=plan,
                         **overrides)


# ---------------------------------------------------------------- fault plans

def test_parse_faults_roundtrip_and_validation():
    plan = parse_faults("seed=7, crash_before=0.25,hang=0.5,hang_s=0.1,"
                        "max_incarnation=2")
    assert plan == FaultPlan(seed=7, crash_before=0.25, hang=0.5,
                             hang_s=0.1, max_incarnation=2)
    assert parse_faults(None) is None
    assert parse_faults("   ") is None
    with pytest.raises(ValueError, match="unknown fault knob"):
        parse_faults("crash_sometimes=0.5")
    with pytest.raises(ValueError, match="not key=value"):
        parse_faults("crash_before")
    with pytest.raises(ValueError, match="must be in"):
        FaultPlan(crash_before=1.5)
    with pytest.raises(ValueError, match="hang_s"):
        FaultPlan(hang_s=-1.0)


def test_plan_from_env(monkeypatch):
    from repro.serve.faults import plan_from_env
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    assert plan_from_env() is None
    monkeypatch.setenv("REPRO_FAULTS", "seed=3,crash_mid=1.0")
    assert plan_from_env() == FaultPlan(seed=3, crash_mid=1.0)


def test_injector_draws_are_deterministic_and_incarnation_salted():
    plan = FaultPlan(seed=11, crash_before=0.5)
    a = FaultInjector(plan, worker_id=0, incarnation=0)
    b = FaultInjector(plan, worker_id=0, incarnation=0)
    assert [a.draw("x") for _ in range(8)] == \
        [b.draw("x") for _ in range(8)]
    # Different worker / incarnation / site: different streams.
    c = FaultInjector(plan, worker_id=1, incarnation=0)
    d = FaultInjector(plan, worker_id=0, incarnation=1)
    stream = [FaultInjector(plan, 0, 0).draw("x") for _ in range(1)]
    assert [c.draw("x")] != stream
    assert [d.draw("x")] != stream
    assert FaultInjector(plan, 0, 0).draw("y") != stream[0]


def test_injector_disarms_past_max_incarnation():
    plan = FaultPlan(seed=1, crash_before=1.0, max_incarnation=1)
    armed = FaultInjector(plan, worker_id=0, incarnation=0)
    with pytest.raises(InjectedCrash):
        armed.slice_begin(None)
    # The restarted worker's injector (incarnation 1) runs clean.
    clean = FaultInjector(plan, worker_id=0, incarnation=1)

    class _Session:
        def set_pop_hook(self, hook):
            self.hook = hook

    session = _Session()
    clean.slice_begin(session)
    clean.slice_end()
    assert session.hook is None


def test_session_pop_hook_fires_per_pop_and_is_runtime_only():
    config = _config(EASY)
    session = SynthesisSession(EASY.tables, EASY.demonstration, config)
    pops = []
    session.set_pop_hook(lambda: pops.append(1))
    session.step(max_pops=5)
    assert len(pops) == 5
    resumed = SynthesisSession.resume(session.checkpoint())
    assert resumed._pop_hook is None    # never checkpointed


# ----------------------------------------------------------- crash recovery

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", ("crash_before", "crash_mid",
                                  "crash_after", "hang"))
def test_recovery_is_transparent_under_injected_faults(mode, backend):
    """The acceptance criterion: a worker killed before / a few pops
    into / after a slice (or hung mid-slice) costs a restart and a
    replay, never correctness — ranked queries and stats byte-identical
    to the crash-free run, on either tier (a thread worker dies by its
    thread ending, a process worker by ``os._exit``)."""
    if mode == "hang":
        plan = FaultPlan(seed=5, hang=1.0, hang_s=30.0)
        slice_timeout = 0.3
    else:
        plan = FaultPlan(seed=5, **{mode: 1.0})
        slice_timeout = None

    async def main():
        config = _config(SHARED)
        stop = GroundTruthStop(SHARED.ground_truth)
        reference = _reference(SHARED, config, stop)
        svc_cfg = _chaos_config(plan, backend=backend,
                                slice_timeout_s=slice_timeout)
        async with SynthesisService(svc_cfg) as svc:
            handle = svc.submit(SHARED.tables, SHARED.demonstration,
                                config, stop=stop)
            result = await handle.result()
            _assert_identical(reference, result)
            assert handle.status == DONE
            assert handle.retries >= 1
            telemetry = svc.pool.telemetry()
            assert telemetry["restarts"] >= 1
            if mode == "hang":
                assert telemetry["hangs"] >= 1
            else:
                assert telemetry["worker_deaths"] >= 1
            health = svc.health()
            assert health["retries"] >= 1
            assert health["recovered_requests"] >= 1
            assert all(w["alive"] for w in health["pool"]["workers"])

    asyncio.run(main())


@pytest.mark.parametrize("start_method", START_METHODS)
def test_recovery_differential_fork_and_spawn(start_method, monkeypatch):
    """The crash-free and crashed runs agree under both start methods
    (spawn re-imports everything; fork inherits — recovery must be
    correct either way)."""
    monkeypatch.setenv("REPRO_START_METHOD", start_method)
    plan = FaultPlan(seed=9, crash_mid=1.0)

    async def main():
        config = _config(SHARED)
        stop = GroundTruthStop(SHARED.ground_truth)
        reference = _reference(SHARED, config, stop)
        pool = WorkerPool(1, backend="processes", faults=plan)
        try:
            svc_cfg = ServiceConfig(pool_size=1, slice_pops=50,
                                    max_retries=4)
            async with SynthesisService(svc_cfg, pool=pool) as svc:
                handle = svc.submit(SHARED.tables, SHARED.demonstration,
                                    config, stop=stop)
                result = await handle.result()
                _assert_identical(reference, result)
                assert handle.retries >= 1
        finally:
            pool.close()

    asyncio.run(main())


def test_spawn_failure_degrades_pool_to_threads():
    """When every restart attempt fails, the pool swaps onto the thread
    backend instead of dying: the request replays there, identically."""
    plan = FaultPlan(seed=2, crash_before=1.0, spawn_fail=1.0)

    async def main():
        config = _config(SHARED)
        stop = GroundTruthStop(SHARED.ground_truth)
        reference = _reference(SHARED, config, stop)
        async with SynthesisService(_chaos_config(plan)) as svc:
            handle = svc.submit(SHARED.tables, SHARED.demonstration,
                                config, stop=stop)
            result = await handle.result()
            _assert_identical(reference, result)
            assert handle.status == DONE
            telemetry = svc.pool.telemetry()
            assert telemetry["backend"] == "threads"
            assert telemetry["backend_degradations"] == 1
            assert telemetry["spawn_failures"] == 3
            assert svc.pool.degraded

    asyncio.run(main())


def test_retry_budget_exhaustion_fails_with_accumulated_errors():
    """A worker that keeps crashing (every incarnation armed) exhausts
    the per-request replay budget; the request fails with every worker
    error accumulated, and terminal FAILED is sticky."""
    plan = FaultPlan(seed=2, crash_before=1.0, max_incarnation=99)

    async def main():
        config = _config(SHARED)
        svc_cfg = _chaos_config(plan, max_retries=1)
        async with SynthesisService(svc_cfg) as svc:
            handle = svc.submit(SHARED.tables, SHARED.demonstration, config)
            with pytest.raises(RuntimeError) as excinfo:
                await handle.result()
            assert "retry budget exhausted" in str(excinfo.value)
            assert "injected crash" in str(excinfo.value)
            assert handle.status == FAILED
            assert svc.health()["states"] == {}     # nothing stuck live

    asyncio.run(main())


def test_cancel_during_recovery_still_ends_cancelled():
    """A cancel that lands while the request is RETRYING (its worker
    just died) is sticky: the replayed session is cancelled before
    re-dispatch and the request ends CANCELLED — never failed, never
    silently completed."""
    plan = FaultPlan(seed=4, crash_before=1.0)

    async def main():
        svc_cfg = _chaos_config(plan)
        async with SynthesisService(svc_cfg) as svc:
            config = _config(HARD, budget=10**8, top_n=10**6)
            handle = svc.submit(HARD.tables, HARD.demonstration, config)
            # The first slice is guaranteed to crash; catch the request
            # in its RETRYING window (it lasts until the replacement
            # worker ships its first slice).
            deadline = asyncio.get_running_loop().time() + 10.0
            while handle.status != RETRYING:
                assert asyncio.get_running_loop().time() < deadline, \
                    f"never saw RETRYING (status {handle.status})"
                await asyncio.sleep(0)
            handle.cancel()
            result = await handle.result()
            assert handle.status == CANCELLED
            assert result.stats.visited < 10**8
            assert handle.retries == 1
            assert svc.pool.telemetry()["restarts"] >= 1

    asyncio.run(main())


@pytest.mark.parametrize("backend", BACKENDS)
def test_cancel_vs_crash_race_never_fails_the_request(backend):
    """The worker dies exactly while applying a cancel op.  Whatever the
    interleaving (cancel flag already stopped the session, or the crash
    beat it), the request ends CANCELLED and the pool stays usable.  On
    the thread tier too the crash happens in the worker, never in the
    caller's ``cancel()``."""
    plan = FaultPlan(seed=4, crash_on_cancel=1.0)

    async def main():
        svc_cfg = _chaos_config(plan, backend=backend)
        async with SynthesisService(svc_cfg) as svc:
            config = _config(HARD, budget=10**8, top_n=10**6)
            handle = svc.submit(HARD.tables, HARD.demonstration, config)
            await asyncio.sleep(0.3)    # well into the search
            handle.cancel()
            result = await handle.result()
            assert handle.status == CANCELLED
            assert result.stats.visited < 10**8
            # The pool survives the induced death: a follow-up request
            # completes normally (on the restarted worker if the crash
            # landed, on the original if the flag won the race).
            stop = GroundTruthStop(SHARED.ground_truth)
            config = _config(SHARED)
            reference = _reference(SHARED, config, stop)
            follow_up = svc.submit(SHARED.tables, SHARED.demonstration,
                                   config, stop=stop)
            _assert_identical(reference, await follow_up.result())

    asyncio.run(main())


# ----------------------------------------------------- uniform edge behavior

@pytest.mark.parametrize("backend", BACKENDS)
def test_timeout_queued_vs_mid_slice_uniform(backend):
    """A budget that expires while the request is still queued and one
    that expires mid-search both surface as TIMED_OUT with the stats
    marker, on either tier — recovery machinery changes nothing here."""
    async def main():
        svc_cfg = ServiceConfig(pool_size=1, pool_backend=backend,
                                slice_pops=25)
        async with SynthesisService(svc_cfg) as svc:
            config = _config(HARD, budget=10**8, top_n=10**6)
            queued = svc.submit(HARD.tables, HARD.demonstration, config,
                                timeout_s=1e-9)
            result = await queued.result()
            assert queued.status == "timed_out"
            assert result.stats.timed_out
            assert result.stats.visited == 0    # expired before any pop

            mid = svc.submit(HARD.tables, HARD.demonstration, config,
                             timeout_s=0.3)
            result = await mid.result()
            assert mid.status == "timed_out"
            assert result.stats.timed_out
            assert result.stats.visited > 0     # some slices ran first

    asyncio.run(main())


def test_terminal_states_are_sticky():
    """Regression for the _fail/_finalize race with a late SliceOutcome
    from a dying worker: once DONE/CANCELLED/FAILED, a request never
    flips state, and its future's value never changes."""
    async def main():
        async with SynthesisService(ServiceConfig(pool_size=1)) as svc:
            config = _config(EASY)
            stop = GroundTruthStop(EASY.ground_truth)
            handle = svc.submit(EASY.tables, EASY.demonstration, config,
                                stop=stop)
            result = await handle.result()
            assert handle.status == DONE
            request = handle._request
            # A straggler outcome arriving after the terminal transition
            # must be a no-op, whichever shape it takes.
            svc._fail(request, "late error from a dying worker")
            svc._finalize(request, None, CANCELLED)
            svc._recover(request, "late worker death")
            assert handle.status == DONE
            assert (await handle.result()) is result

    asyncio.run(main())


def test_overloaded_carries_retry_after_hint():
    async def main():
        svc_cfg = ServiceConfig(pool_size=1, max_requests=1)
        async with SynthesisService(svc_cfg) as svc:
            config = _config(HARD, budget=10**8, top_n=10**6)
            first = svc.submit(HARD.tables, HARD.demonstration, config)
            with pytest.raises(ServiceOverloaded) as excinfo:
                svc.submit(HARD.tables, HARD.demonstration, config)
            assert excinfo.value.retry_after_s > 0
            first.cancel()
            await first.result()

    asyncio.run(main())


def test_pool_step_of_unknown_request_is_a_noop():
    """Recovery makes stale step/run calls legitimate (a request can be
    failed over between its last outcome and the next step) — they must
    not raise."""
    pool = WorkerPool(1, backend="threads")
    try:
        pool.step(9999)
        pool.run(9999)
        pool.cancel(9999)
        health = pool.health()
        assert health["workers"][0]["alive"]
        assert health["recovery"]["restarts"] == 0
    finally:
        pool.close()
