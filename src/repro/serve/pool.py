"""The persistent warm worker pool behind :class:`repro.serve.service`.

One :class:`WorkerPool` outlives every request, and since PR 8 the worker
tier is *executor-agnostic*: the pool facade speaks a small op protocol
(open / step / run / cancel / close) to a :class:`PoolBackend`, and two
backends implement it —

* :class:`ThreadBackend` — daemon threads in the service process, the
  PR 7 tier.  Sessions are shared by reference, dispatch is free, and the
  GIL serializes CPU-bound slices; right for latency-sensitive light
  traffic and for callers who want to poll the live session object.
* :class:`ProcessBackend` — long-lived non-daemon worker *processes*
  (non-daemon so a hosted session may itself fan out to shard workers).
  Requests ship as pickled ``checkpoint()`` blobs, input tables inside;
  concurrent CPU-bound searches then scale with cores instead of
  contending for one GIL.

Both backends drive the same :class:`_SessionHost` per worker: a cache of
warm ``(engine, abstraction)`` pairs keyed by :func:`warm_key`, the
``(warm key, env digest)`` pairs already served (the warm-hit metric that
schema-affinity routing optimizes), and the sessions currently hosted.
Because the host is shared code, a request's slices execute identically
on either tier — the determinism pledge below.

Why warm reuse is safe: engine caches are keyed on exact structural
``(query, env)`` state — and the incremental consistency checker's
verdicts additionally on demonstration identity — so traffic from one
request can never change another's *results*, only its latency.  An
unpickled environment compares equal to the original, so a
process-hosted session's ranked queries and ``SearchStats`` are
byte-identical to the same session sliced on a thread worker (or never
sliced at all), under fork and spawn alike.

Fault tolerance (PR 9).  A supervisor thread in the facade watches for
dead workers (process exitcode, crashed thread) and hung slices (no
per-worker progress within ``slice_timeout_s``), and on failure: marks
the worker down, bumps its *incarnation* (stale outcomes and ops from
the dead incarnation are dropped by tag), fails its hosted requests over
to the caller as ``status="worker_died"`` outcomes, and restarts the
worker with exponential backoff.  A restarted process worker gets a
fresh job queue and cold warm/affinity state.  When every restart
attempt fails the pool degrades to the thread backend with a logged
warning rather than dying.  Every
non-terminal :class:`SliceOutcome` carries the session's latest
slice-boundary checkpoint, which is what lets the service above replay a
request on a healthy worker with byte-identical results — crashes cost
latency, never correctness.  Deterministic chaos for all of this comes
from :mod:`repro.serve.faults`.
"""

from __future__ import annotations

import atexit
import logging
import os
import queue
import threading
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.abstraction.base import Abstraction
from repro.engine.base import EvalEngine, make_engine
from repro.parallel.executor import NO_LIMIT, CancelToken, pick_context
from repro.serve.faults import (
    FAULT_EXITCODE,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    make_injector,
    plan_from_env,
)
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.enumerator import SearchStats, SynthesisResult
from repro.synthesis.session import SynthesisSession
from repro.synthesis.synthesizer import build_abstraction
from repro.util.timer import Deadline

_LOG = logging.getLogger("repro.serve")

#: Stop sentinel for thread-worker queues (``None`` would shadow a job).
_SHUTDOWN = object()

POOL_BACKENDS = ("threads", "processes")

#: Outcome status for a request whose worker died under it — the signal
#: the service's checkpoint-replay recovery keys on.
WORKER_DIED = "worker_died"

#: Bound on close()'s drain-and-join; workers still alive after it are
#: terminated and reported, never waited on forever.
POOL_CLOSE_TIMEOUT_S = 10.0

#: Supervisor sweep cadence (seconds) — bounds failure-detection latency.
SUPERVISE_INTERVAL_S = 0.1

#: First restart backoff; doubles per failed spawn attempt.
RESTART_BACKOFF_S = 0.05

#: Spawn attempts per worker failure before the pool degrades to the
#: thread backend.
MAX_SPAWN_ATTEMPTS = 3

#: Cancel-token slots per process pool: a shared int64 array of round
#: limits, one slot per live request (``NO_LIMIT`` live, 0 cancelled),
#: which the hosted session and its fanned-out shards share as their
#: :class:`~repro.parallel.executor.CancelToken`.  Live requests are
#: bounded by service admission (default 8), so exhaustion is
#: theoretical; a request that misses a slot still cancels at its next
#: slice boundary via the queued cancel op.
_CANCEL_SLOTS = 256

#: Unpickled input environments a worker process keeps per env digest;
#: past this many distinct environments the memo starts over.
_ENV_MEMO_SIZE = 64


def resolve_pool_backend(backend: str | None = None, size: int = 1) -> str:
    """Resolve a backend request to ``"threads"`` or ``"processes"``.

    An explicit ``backend`` wins; otherwise ``REPRO_POOL_BACKEND``
    (the CI matrix hook), and finally ``"auto"``: processes whenever the
    pool actually has parallelism to exploit (size > 1), threads for a
    single worker where process dispatch would be pure overhead.
    """
    mode = backend if backend not in (None, "", "auto") else \
        (os.environ.get("REPRO_POOL_BACKEND", "").strip().lower() or "auto")
    if mode == "auto":
        return "processes" if size > 1 else "threads"
    if mode not in POOL_BACKENDS:
        raise ValueError(f"unknown pool backend {mode!r}: expected "
                         f"'threads', 'processes' or 'auto'")
    return mode


def warm_key(config: SynthesisConfig, technique: str) -> tuple:
    """The identity of one warm engine+abstraction pair.

    Exactly the configuration fields that select or parameterize
    evaluation state: the technique name and the abstraction knobs
    ``build_abstraction`` consumes.  Everything else (budgets,
    search-space knobs) rides in the session and never fragments the
    warm cache.
    """
    return (technique,
            config.target_refinement, config.value_shadow,
            config.head_typing)


@dataclass
class WorkerTelemetry:
    """One worker's warm-state counters (snapshot, cheap to ship)."""

    worker_id: int = 0
    warm_hits: int = 0      # requests whose (warm key, env) was already hot
    warm_misses: int = 0    # requests that warmed a new (warm key, env)
    cold_builds: int = 0    # engines actually constructed
    warm_keys: int = 0      # distinct engine+abstraction pairs held
    slices: int = 0         # ops executed (open/step/run)


@dataclass
class RecoveryTelemetry:
    """Pool-wide fault-tolerance counters (facade-owned)."""

    worker_deaths: int = 0       # dead workers detected (exitcode/thread)
    hangs: int = 0               # hung slices detected (progress timeout)
    restarts: int = 0            # successful worker restarts
    spawn_failures: int = 0      # failed restart attempts
    backend_degradations: int = 0  # process pool fell back to threads

    def as_dict(self) -> dict:
        return {
            "worker_deaths": self.worker_deaths, "hangs": self.hangs,
            "restarts": self.restarts,
            "spawn_failures": self.spawn_failures,
            "backend_degradations": self.backend_degradations,
        }


@dataclass
class SliceOutcome:
    """What one op produced — the only thing a backend ships back.

    ``stats`` is a snapshot for observability (the process tier has no
    live session object to poll); ``result`` is set exactly once, on the
    terminal outcome.  ``telemetry`` piggybacks the worker's counters so
    the coordinator needs no side channel.  ``checkpoint`` carries the
    session's slice-boundary state on every non-terminal outcome — the
    replay point should the worker die before the next one.
    ``incarnation`` tags which life of the worker produced this; the
    facade drops outcomes from dead incarnations.
    """

    request_id: int
    worker_id: int
    pops: int = 0
    new_queries: list = field(default_factory=list)
    stats: SearchStats | None = None
    done: bool = False
    status: str = "active"
    timed_out: bool = False
    result: SynthesisResult | None = None
    error: str | None = None
    telemetry: WorkerTelemetry | None = None
    checkpoint: bytes | None = None
    incarnation: int = 0


class _Hosted:
    """One session resident on a worker, with its slicing parameters."""

    __slots__ = ("session", "slice_pops", "deadline")

    def __init__(self, session, slice_pops, deadline) -> None:
        self.session = session
        self.slice_pops = slice_pops
        self.deadline = deadline


class _SessionHost:
    """Per-worker state both backends share; confined to one worker.

    Owns the warm engine cache, the warm-hit accounting, and the hosted
    sessions — a thread worker runs it in the service process, a process
    worker in its own interpreter, and the op semantics are identical.
    ``injector`` is the fault-injection hook (chaos tests); ``None``
    means no faults.
    """

    def __init__(self, worker_id: int, incarnation: int = 0,
                 injector: FaultInjector | None = None) -> None:
        self.worker_id = worker_id
        self.incarnation = incarnation
        self.injector = injector
        self._warm: dict[tuple, tuple[EvalEngine, Abstraction]] = {}
        self._served: set[tuple] = set()    # (warm key, env digest) pairs
        self._sessions: dict[int, _Hosted] = {}
        self._counts = WorkerTelemetry(worker_id=worker_id)

    def engine_for(self, config: SynthesisConfig,
                   technique: str) -> tuple[EvalEngine, Abstraction]:
        """The warm engine+abstraction for this request shape (built on
        first use)."""
        key = warm_key(config, technique)
        pair = self._warm.get(key)
        if pair is None:
            engine = make_engine()
            abstraction = build_abstraction(technique, config)
            abstraction.bind_engine(engine)
            pair = (engine, abstraction)
            self._warm[key] = pair
            self._counts.cold_builds += 1
        return pair

    def open_session(self, request_id: int, session: SynthesisSession,
                     slice_pops: int, deadline: Deadline,
                     env_key: str) -> SliceOutcome:
        """Admit a session and run its first slice.

        The warm hit/miss is scored here, per request, at ``(warm key,
        env digest)`` granularity: a hit means this worker has already
        evaluated this request shape *on these tables* — hot engine
        subtree/block/verdict caches, not merely a constructed engine.
        This is the rate schema-affinity routing exists to raise.
        """
        key = (warm_key(session.config, session.abstraction_spec), env_key)
        if key in self._served:
            self._counts.warm_hits += 1
        else:
            self._counts.warm_misses += 1
            self._served.add(key)
        self._sessions[request_id] = _Hosted(session, slice_pops, deadline)
        return self.step_session(request_id)

    def step_session(self, request_id: int) -> SliceOutcome:
        """One bounded slice; terminal when the session (or budget) ends."""
        hosted = self._sessions[request_id]
        session = hosted.session
        if hosted.deadline.expired() and not session.done:
            # The request's wall-clock budget (queueing included) expired:
            # report the partial result with the same timed_out marker the
            # config budget uses, without spending a single pop.
            session.stats.timed_out = True
            return self._complete(request_id, [], timed_out=True)
        self._attach(hosted)
        injector = self.injector
        if injector is not None:
            injector.slice_begin(session)
        report = session.step(max_pops=hosted.slice_pops)
        self._counts.slices += 1
        if injector is not None:
            # After the work, before the outcome ships: a crash here
            # loses a fully executed slice — the replay window recovery
            # must cover (the checkpoint below never leaves the worker).
            injector.slice_end()
        if session.done:
            return self._complete(request_id, report.new_queries,
                                  timed_out=False)
        return SliceOutcome(
            request_id=request_id, worker_id=self.worker_id,
            pops=report.pops, new_queries=list(report.new_queries),
            stats=SearchStats(**session.stats.as_dict()), done=False,
            status=session.status, telemetry=self.telemetry(),
            checkpoint=self._slice_checkpoint(session),
            incarnation=self.incarnation)

    def run_session(self, request_id: int) -> SliceOutcome:
        """Drive a hosted session to completion in one op.

        With ``config.workers > 1`` the session re-dispatches its
        remaining work onto shard workers at the next round boundary —
        the intra-request fan-out path, byte-identical to slicing.  The
        request's deadline bounds the whole op: when it passes, the
        session is cancelled — its token carries that to every shard —
        and the partial result is reported ``timed_out``, as
        :meth:`step_session` reports it.
        """
        hosted = self._sessions[request_id]
        session = hosted.session
        if hosted.deadline.expired() and not session.done:
            session.stats.timed_out = True
            return self._complete(request_id, [], timed_out=True)
        self._attach(hosted)
        injector = self.injector
        if injector is not None:
            injector.slice_begin(session)
        found_before = len(session.result(ranked=False).queries)
        expired = threading.Event()

        def expire() -> None:
            expired.set()
            session.cancel()

        remaining = hosted.deadline.remaining()
        alarm = None if remaining is None \
            else threading.Timer(remaining, expire)
        if alarm is not None:
            alarm.start()
        try:
            session.run()
        finally:
            if alarm is not None:
                alarm.cancel()
        self._counts.slices += 1
        if injector is not None:
            injector.slice_end()
        new = session.result(ranked=False).queries[found_before:]
        if expired.is_set():
            session.stats.timed_out = True
        return self._complete(request_id, new, timed_out=expired.is_set())

    def cancel_session(self, request_id: int) -> None:
        if self.injector is not None:
            # The cancel-vs-crash race site: the worker dies exactly
            # while applying a cancel — recovery must still end the
            # request "cancelled".
            self.injector.on_cancel()
        hosted = self._sessions.get(request_id)
        if hosted is not None:
            hosted.session.cancel()

    def drop(self, request_id: int) -> None:
        self._sessions.pop(request_id, None)

    def telemetry(self) -> WorkerTelemetry:
        counts = self._counts
        return WorkerTelemetry(
            worker_id=self.worker_id, warm_hits=counts.warm_hits,
            warm_misses=counts.warm_misses, cold_builds=counts.cold_builds,
            warm_keys=len(self._warm), slices=counts.slices)

    def _attach(self, hosted: _Hosted) -> None:
        session = hosted.session
        engine, abstraction = self.engine_for(session.config,
                                              session.abstraction_spec)
        session.attach_engine(engine, abstraction)

    def _slice_checkpoint(self, session: SynthesisSession) -> bytes | None:
        try:
            return session.checkpoint(strip_env=True)
        except Exception:
            # Unpicklable session (pre-built Abstraction object): no
            # replay point, but the request itself still runs fine.
            return None

    def _complete(self, request_id: int, new_queries,
                  timed_out: bool) -> SliceOutcome:
        hosted = self._sessions.pop(request_id)
        session = hosted.session
        result = session.result()
        return SliceOutcome(
            request_id=request_id, worker_id=self.worker_id,
            new_queries=list(new_queries), stats=result.stats, done=True,
            status=session.status, timed_out=timed_out, result=result,
            telemetry=self.telemetry(), incarnation=self.incarnation)


def _error_outcome(host: _SessionHost, request_id: int) -> SliceOutcome:
    host.drop(request_id)
    return SliceOutcome(
        request_id=request_id, worker_id=host.worker_id, done=True,
        status="error", error=traceback.format_exc(),
        telemetry=host.telemetry(), incarnation=host.incarnation)


def _apply_op(host: _SessionHost, kind: str, request_id: int,
              open_session: Callable[[], SliceOutcome]) -> SliceOutcome:
    """Shared op dispatch: every op but cancel/close yields one outcome.

    Catches ``Exception`` only — an :class:`InjectedCrash` (a
    ``BaseException``) deliberately escapes and kills the worker, so
    chaos exercises supervision rather than this error net.
    """
    try:
        if kind == "open":
            return open_session()
        if kind == "step":
            return host.step_session(request_id)
        return host.run_session(request_id)
    except Exception:
        return _error_outcome(host, request_id)


# ------------------------------------------------------------------ backends

class PoolBackend:
    """The executor-agnostic worker-tier interface the pool facade drives.

    One method per op; ops targeting one worker execute strictly in
    submission order, and every open/step/run eventually produces exactly
    one :class:`SliceOutcome` delivered to the dispatch callback (from a
    backend-owned thread — never the caller's) *while the producing
    worker stays alive*; supervision synthesizes the outcome otherwise.
    """

    name: str

    def open(self, worker_id: int, request_id: int,
             session: SynthesisSession, slice_pops: int, deadline: Deadline,
             env_key: str) -> None:
        raise NotImplementedError

    def step(self, worker_id: int, request_id: int) -> None:
        raise NotImplementedError

    def run(self, worker_id: int, request_id: int) -> None:
        raise NotImplementedError

    def cancel(self, worker_id: int, request_id: int) -> None:
        raise NotImplementedError

    def telemetry(self, worker_id: int) -> WorkerTelemetry:
        raise NotImplementedError

    # ------------------------------------------------------- supervision
    def dead_workers(self) -> list[tuple[int, str]]:
        """(worker_id, reason) for workers that died since last asked."""
        return []

    def restart_worker(self, worker_id: int, incarnation: int) -> None:
        """Replace a dead/hung worker with a fresh incarnation.  Raises
        (e.g. ``OSError``) when the replacement cannot be spawned."""
        raise NotImplementedError

    def forget(self, request_id: int) -> None:
        """Release per-request backend resources after a failover."""

    def close(self, timeout_s: float) -> list[int]:
        """Drain and join; returns ids of workers that had to be killed."""
        raise NotImplementedError

    def destroy(self) -> None:
        """Immediate teardown (no drain) — the degrade path.  Must not
        raise."""
        self.close(timeout_s=0.1)


class _ThreadWorker:
    """One warm thread worker: a queue, a thread, a session host."""

    def __init__(self, worker_id: int,
                 dispatch: Callable[[SliceOutcome], None],
                 incarnation: int = 0,
                 injector: FaultInjector | None = None) -> None:
        self.host = _SessionHost(worker_id, incarnation=incarnation,
                                 injector=injector)
        self.crashed = False
        self._dispatch = dispatch
        self._jobs: queue.Queue = queue.Queue()
        self._thread = threading.Thread(
            target=self._loop, name=f"repro-serve-worker-{worker_id}",
            daemon=True)
        self._thread.start()

    def submit(self, op) -> None:
        self._jobs.put(op)

    def alive(self) -> bool:
        return self._thread.is_alive() and not self.crashed

    def _loop(self) -> None:
        host = self.host
        while True:
            op = self._jobs.get()
            if op is _SHUTDOWN:
                return
            kind, request_id, payload = op
            try:
                if kind == "cancel":
                    host.cancel_session(request_id)
                    continue
                outcome = _apply_op(
                    host, kind, request_id,
                    lambda: host.open_session(request_id, *payload))
            except InjectedCrash:
                # The thread-tier realization of a worker death: the
                # loop ends without delivering an outcome, exactly like
                # a process worker's os._exit — supervision takes over.
                self.crashed = True
                return
            self._dispatch(outcome)

    def close(self, deadline: Deadline) -> bool:
        """Request shutdown and join; True when the worker drained."""
        self._jobs.put(_SHUTDOWN)
        remaining = deadline.remaining()
        self._thread.join(remaining if remaining is not None else None)
        return not self._thread.is_alive()


class ThreadBackend(PoolBackend):
    """Daemon threads in the calling process; sessions stay shared
    objects, so the service's handle can poll live search state."""

    name = "threads"

    def __init__(self, size: int,
                 dispatch: Callable[[SliceOutcome], None],
                 faults: FaultPlan | None = None,
                 incarnations: list[int] | None = None) -> None:
        self._dispatch = dispatch
        self._faults = faults
        self._closing = False
        incarnations = incarnations or [0] * size
        self._workers = [
            _ThreadWorker(i, dispatch, incarnation=incarnations[i],
                          injector=make_injector(faults, i, incarnations[i]))
            for i in range(size)]

    def open(self, worker_id, request_id, session, slice_pops, deadline,
             env_key) -> None:
        self._workers[worker_id].submit(
            ("open", request_id, (session, slice_pops, deadline, env_key)))

    def step(self, worker_id, request_id) -> None:
        self._workers[worker_id].submit(("step", request_id, None))

    def run(self, worker_id, request_id) -> None:
        self._workers[worker_id].submit(("run", request_id, None))

    def cancel(self, worker_id, request_id) -> None:
        # Direct call, not an op: the session object is shared, and the
        # flag must be visible mid-slice, not behind queued work.
        self._workers[worker_id].host.cancel_session(request_id)

    def telemetry(self, worker_id) -> WorkerTelemetry:
        return self._workers[worker_id].host.telemetry()

    def dead_workers(self) -> list[tuple[int, str]]:
        if self._closing:
            return []
        return [(i, "worker thread crashed")
                for i, worker in enumerate(self._workers)
                if not worker.alive()]

    def restart_worker(self, worker_id: int, incarnation: int) -> None:
        old = self._workers[worker_id]
        # A hung (not crashed) thread eventually drains its queue and
        # exits on the sentinel; its outcomes carry the old incarnation
        # and are dropped by the facade.
        old.submit(_SHUTDOWN)
        self._workers[worker_id] = _ThreadWorker(
            worker_id, self._dispatch, incarnation=incarnation,
            injector=make_injector(self._faults, worker_id, incarnation))

    def close(self, timeout_s: float) -> list[int]:
        self._closing = True
        deadline = Deadline(timeout_s)
        return [i for i, worker in enumerate(self._workers)
                if not worker.close(deadline) and not worker.crashed]

    def destroy(self) -> None:
        self._closing = True
        for worker in self._workers:
            worker.submit(_SHUTDOWN)


def _process_worker_main(worker_id: int, jobs, results, cancel_limits,
                         faults: FaultPlan | None, incarnation: int) -> None:
    """Body of one long-lived worker process.

    Each ``open`` op carries a pickled checkpoint with the input tables
    inside.  Unpickled environments are memoized by the service's env
    digest: a repeated request then hands the warm engine the very
    ``Env`` object its cache keys hold, so cache probes match by
    identity instead of comparing every cell of an equal copy.  An
    :class:`InjectedCrash` ends the process via ``os._exit`` — no
    cleanup, no unwinding — because that is what a real worker death
    looks like to the supervisor.
    """
    host = _SessionHost(worker_id, incarnation=incarnation,
                        injector=make_injector(faults, worker_id,
                                               incarnation))
    envs: dict = {}                     # env digest -> Env

    def open_session(request_id: int, payload) -> SliceOutcome:
        blob, slice_pops, deadline, env_key, slot = payload
        session = SynthesisSession.resume(blob)
        known = envs.get(env_key)
        if known == session.env:        # one comparison per request
            session.env = known
        else:
            if len(envs) >= _ENV_MEMO_SIZE:
                envs.clear()
            envs[env_key] = session.env
        if slot >= 0:
            session.set_cancel_token(CancelToken(cancel_limits, slot))
        return host.open_session(request_id, session, slice_pops, deadline,
                                 env_key)

    try:
        while True:
            op = jobs.get()
            kind, request_id, payload = op
            if kind == "close":
                break
            if kind == "cancel":
                # Slice-boundary fallback; the request's token slot
                # already covers mid-slice (the session polls it every
                # pop) and fanned-out shards.
                host.cancel_session(request_id)
                continue
            results.put(_apply_op(host, kind, request_id,
                                  lambda: open_session(request_id, payload)))
    except InjectedCrash:
        os._exit(FAULT_EXITCODE)


class ProcessBackend(PoolBackend):
    """Long-lived worker processes fed over per-worker job queues.

    Dispatch path: the coordinator ships the session's pickled
    ``checkpoint()``, input tables included; one reader thread fans every
    worker's outcomes back into the dispatch callback.  Workers are
    non-daemon so a hosted session may fan out to its own shard
    processes (daemons cannot have children).

    Restart support: each worker carries an incarnation; replacing one
    terminates the process if needed, swaps in a fresh job queue, and
    spawns the next incarnation.
    """

    name = "processes"

    def __init__(self, size: int, dispatch: Callable[[SliceOutcome], None],
                 faults: FaultPlan | None = None) -> None:
        self._dispatch = dispatch
        self._faults = faults
        self._ctx = pick_context()
        # The slots cross into pool workers and on into their shard
        # processes, which start with the same method.
        self._cancel_limits = self._ctx.Array("q", [NO_LIMIT] * _CANCEL_SLOTS)
        self._results = self._ctx.SimpleQueue()
        self._jobs = [self._ctx.SimpleQueue() for _ in range(size)]
        self._incarnations = [0] * size
        self._spawn_injectors: dict[int, FaultInjector] = {}
        self._procs: list = [None] * size
        for i in range(size):
            self._spawn(i, 0)
        self._lock = threading.Lock()
        self._slots: dict[int, int] = {}        # request_id -> token slot
        self._free_slots = list(range(_CANCEL_SLOTS))
        self._telemetry = [WorkerTelemetry(worker_id=i) for i in range(size)]
        self._reader = threading.Thread(target=self._read_outcomes,
                                        name="repro-serve-pool-reader",
                                        daemon=True)
        self._reader.start()

    def _spawn(self, worker_id: int, incarnation: int) -> None:
        proc = self._ctx.Process(
            target=_process_worker_main,
            args=(worker_id, self._jobs[worker_id], self._results,
                  self._cancel_limits, self._faults, incarnation),
            name=f"repro-serve-proc-{worker_id}", daemon=False)
        proc.start()
        self._procs[worker_id] = proc

    def open(self, worker_id, request_id, session, slice_pops, deadline,
             env_key) -> None:
        blob = session.checkpoint()
        with self._lock:
            slot = self._free_slots.pop() if self._free_slots else -1
            if slot >= 0:
                self._cancel_limits[slot] = NO_LIMIT     # recycled slot
                self._slots[request_id] = slot
            self._jobs[worker_id].put(
                ("open", request_id,
                 (blob, slice_pops, deadline, env_key, slot)))

    def step(self, worker_id, request_id) -> None:
        with self._lock:
            self._jobs[worker_id].put(("step", request_id, None))

    def run(self, worker_id, request_id) -> None:
        with self._lock:
            self._jobs[worker_id].put(("run", request_id, None))

    def cancel(self, worker_id, request_id) -> None:
        with self._lock:
            slot = self._slots.get(request_id)
            if slot is not None:
                # Visible at the session's next pop and its shards' next
                # round.
                CancelToken(self._cancel_limits, slot).propose(0)
            self._jobs[worker_id].put(("cancel", request_id, None))

    def telemetry(self, worker_id) -> WorkerTelemetry:
        with self._lock:
            return self._telemetry[worker_id]

    def dead_workers(self) -> list[tuple[int, str]]:
        dead = []
        for i, proc in enumerate(self._procs):
            code = proc.exitcode
            if code is None:
                continue
            reason = "injected crash" if code == FAULT_EXITCODE else \
                f"exitcode {code}"
            dead.append((i, f"worker process {i} died ({reason})"))
        return dead

    def restart_worker(self, worker_id: int, incarnation: int) -> None:
        proc = self._procs[worker_id]
        if proc.is_alive():
            # Hung, not dead: terminate (possibly mid-slice — the
            # request replays from its checkpoint, so nothing is lost
            # but time).
            proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive():     # pragma: no cover - defensive
                proc.kill()
                proc.join(timeout=2.0)
        self._spawn_check(worker_id, incarnation)
        with self._lock:
            self._jobs[worker_id] = self._ctx.SimpleQueue()
            self._incarnations[worker_id] = incarnation
            self._spawn_injectors.pop(worker_id, None)
        self._spawn(worker_id, incarnation)

    def _spawn_check(self, worker_id: int, incarnation: int) -> None:
        """Fault-injection site for restart failures.  The spawn stream
        is salted with the *dead* incarnation: replacing an armed
        incarnation is what may fail, so ``max_incarnation=1`` plans can
        express 'the first restart fails' without crash-looping."""
        if self._faults is None:
            return
        injector = self._spawn_injectors.get(worker_id)
        if injector is None or injector.incarnation != incarnation - 1:
            injector = FaultInjector(self._faults, worker_id,
                                     incarnation - 1)
            self._spawn_injectors[worker_id] = injector
        injector.check_spawn()

    def forget(self, request_id: int) -> None:
        with self._lock:
            self._release_slot(request_id)

    def _release_slot(self, request_id: int) -> None:
        slot = self._slots.pop(request_id, None)
        if slot is not None:
            self._free_slots.append(slot)

    def _read_outcomes(self) -> None:
        while True:
            try:
                outcome = self._results.get()
            except (EOFError, OSError):     # pragma: no cover - teardown
                return
            if outcome is None:             # close() sentinel
                return
            with self._lock:
                if outcome.telemetry is not None:
                    self._telemetry[outcome.worker_id] = outcome.telemetry
                if outcome.done:
                    self._release_slot(outcome.request_id)
            self._dispatch(outcome)

    def close(self, timeout_s: float) -> list[int]:
        with self._lock:
            for jobs in self._jobs:
                jobs.put(("close", -1, None))
        deadline = Deadline(timeout_s)
        stuck = []
        for i, proc in enumerate(self._procs):
            proc.join(timeout=max(0.1, deadline.remaining()))
            if proc.is_alive():
                stuck.append(i)
                proc.terminate()
                proc.join(timeout=1.0)
                if proc.is_alive():         # pragma: no cover - defensive
                    proc.kill()
                    proc.join(timeout=1.0)
        self._results.put(None)
        self._reader.join(timeout=2.0)
        return stuck

    def destroy(self) -> None:
        """Terminate everything now — the degrade-to-threads path."""
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=1.0)
            if proc.is_alive():             # pragma: no cover - defensive
                proc.kill()
                proc.join(timeout=1.0)
        try:
            self._results.put(None)
            self._reader.join(timeout=1.0)
        except Exception:                   # pragma: no cover - teardown
            pass


# ------------------------------------------------------------------- facade

class WorkerPool:
    """A fixed-size pool of warm workers behind a pluggable backend.

    Lives across requests (and across services, if the caller passes its
    own pool around).  ``backend`` is ``"threads"``, ``"processes"`` or
    ``None``/``"auto"`` (``REPRO_POOL_BACKEND``, else processes when
    ``size > 1`` — the tier that actually uses the cores).

    The facade owns request-id allocation, per-request outcome routing,
    per-worker queue-depth accounting (incremented per submitted op,
    decremented per outcome) — the load signal least-loaded routing
    uses — and, since PR 9, supervision: a watchdog thread detects dead
    workers and hung slices, restarts them with exponential backoff
    (degrading the whole pool to the thread backend when restarts keep
    failing), and fails the dead worker's requests over to their
    ``on_slice`` callbacks as ``status="worker_died"`` outcomes carrying
    the error — the service above replays them from checkpoints.

    ``faults`` (or ``REPRO_FAULTS``) arms deterministic fault injection;
    ``slice_timeout_s`` enables hang detection (off by default — only
    the caller knows how long a legitimate slice may run).
    """

    def __init__(self, size: int = 2, backend: str | None = None,
                 faults: FaultPlan | None = None,
                 slice_timeout_s: float | None = None) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.backend_name = resolve_pool_backend(backend, size)
        self.faults = faults if faults is not None else plan_from_env()
        self._size = size
        self._slice_timeout_s = slice_timeout_s
        self._lock = threading.Lock()
        self._handlers: dict[int, tuple[Callable, int]] = {}
        self._depths = [0] * size
        self._next_request = 0
        self._closed = False
        self._degraded = False
        self._down: set[int] = set()
        self._pending: dict[int, list] = {i: [] for i in range(size)}
        self._incarnations = [0] * size
        self._last_progress = [time.monotonic()] * size
        self._restart_listeners: list[Callable[[int | None], None]] = []
        self.recovery = RecoveryTelemetry()
        if self.backend_name == "threads":
            self._backend: PoolBackend = ThreadBackend(
                size, self._on_outcome, faults=self.faults)
        else:
            self._backend = ProcessBackend(
                size, self._on_outcome, faults=self.faults)
        self._stop_supervisor = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-serve-supervisor",
            daemon=True)
        self._supervisor.start()
        atexit.register(self._atexit_close)

    @property
    def size(self) -> int:
        return self._size

    @property
    def degraded(self) -> bool:
        return self._degraded

    # ------------------------------------------------------------- requests
    def submit_request(self, session: SynthesisSession, *, worker_id: int,
                       slice_pops: int, deadline: Deadline, env_key: str,
                       on_slice: Callable[[SliceOutcome], None]) -> int:
        """Open a session on a worker; every slice lands on ``on_slice``
        (from a pool-owned thread) until a terminal outcome.  Returns the
        pool-wide request id used by :meth:`step`/:meth:`run`/
        :meth:`cancel`.  A submission to a worker mid-restart is
        buffered and dispatched when its replacement is up.  ``env_key``
        is the content digest of ``session.env``: warm-hit accounting
        and the process workers' environment memo key on it."""
        if not 0 <= worker_id < self._size:
            raise ValueError(f"worker {worker_id} out of range "
                             f"[0, {self._size})")
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            request_id = self._next_request
            self._next_request += 1
            self._handlers[request_id] = (on_slice, worker_id)
            self._depths[worker_id] += 1
            self._last_progress[worker_id] = time.monotonic()
            if worker_id in self._down:
                self._pending[worker_id].append(
                    lambda: self._backend.open(worker_id, request_id,
                                               session, slice_pops, deadline,
                                               env_key))
                return request_id
        self._backend.open(worker_id, request_id, session, slice_pops,
                           deadline, env_key)
        return request_id

    def step(self, request_id: int) -> None:
        """Queue the next slice (behind the worker's other requests —
        cooperative round-robin)."""
        self._resubmit(request_id, lambda w, r: self._backend.step(w, r))

    def run(self, request_id: int) -> None:
        """Queue a run-to-completion op (the intra-request fan-out path
        when the session's config asks for workers > 1)."""
        self._resubmit(request_id, lambda w, r: self._backend.run(w, r))

    def _resubmit(self, request_id: int, op) -> None:
        with self._lock:
            entry = self._handlers.get(request_id)
            if entry is None:
                # Finished — or failed over by supervision between the
                # caller seeing its last outcome and asking for the next
                # slice.  Either way there is nothing to advance.
                return
            worker_id = entry[1]
            self._depths[worker_id] += 1
            self._last_progress[worker_id] = time.monotonic()
            if worker_id in self._down:
                self._pending[worker_id].append(
                    lambda: op(worker_id, request_id))
                return
        op(worker_id, request_id)

    def cancel(self, request_id: int) -> None:
        """Flag a request's session; it stops at its next pop whichever
        tier hosts it (no-op once the request finished)."""
        with self._lock:
            entry = self._handlers.get(request_id)
            down = entry is not None and entry[1] in self._down
        if entry is not None and not down:
            self._backend.cancel(entry[1], request_id)

    def _on_outcome(self, outcome: SliceOutcome) -> None:
        with self._lock:
            if outcome.incarnation != self._incarnations[outcome.worker_id]:
                # A replaced worker's ghost (a hung thread that woke up,
                # a queued result from before a restart): its request
                # was already failed over — drop it.
                return
            entry = self._handlers.get(outcome.request_id)
            depth = self._depths[outcome.worker_id] - 1
            self._depths[outcome.worker_id] = max(0, depth)
            self._last_progress[outcome.worker_id] = time.monotonic()
            if outcome.done:
                self._handlers.pop(outcome.request_id, None)
        if entry is not None:
            entry[0](outcome)

    # ---------------------------------------------------------- supervision
    def add_restart_listener(self, fn: Callable[[int | None], None]) -> None:
        """Call ``fn(worker_id)`` after a worker restarts (its warm and
        affinity state is cold), ``fn(None)`` after a backend degrade
        (every worker is cold).  Runs on the supervisor thread."""
        self._restart_listeners.append(fn)

    def remove_restart_listener(self, fn) -> None:
        try:
            self._restart_listeners.remove(fn)
        except ValueError:
            pass

    def down_workers(self) -> set[int]:
        with self._lock:
            return set(self._down)

    def _supervise(self) -> None:
        while not self._stop_supervisor.wait(SUPERVISE_INTERVAL_S):
            try:
                self._sweep_failures()
            except Exception:       # pragma: no cover - supervisor guard
                _LOG.exception("pool supervisor sweep failed")

    def _sweep_failures(self) -> None:
        with self._lock:
            if self._closed:
                return
        for worker_id, reason in self._backend.dead_workers():
            self._handle_worker_failure(worker_id, reason, hang=False)
        for worker_id in self._hung_workers():
            self._handle_worker_failure(
                worker_id,
                f"worker {worker_id} hung: no progress within "
                f"{self._slice_timeout_s}s", hang=True)

    def _hung_workers(self) -> list[int]:
        if self._slice_timeout_s is None:
            return []
        now = time.monotonic()
        with self._lock:
            return [i for i in range(self._size)
                    if i not in self._down and self._depths[i] > 0
                    and now - self._last_progress[i] > self._slice_timeout_s]

    def _handle_worker_failure(self, worker_id: int, reason: str,
                               hang: bool) -> None:
        with self._lock:
            if self._closed or worker_id in self._down:
                return
            self._down.add(worker_id)
            self._incarnations[worker_id] += 1
            incarnation = self._incarnations[worker_id]
            affected = [(rid, entry[0])
                        for rid, entry in self._handlers.items()
                        if entry[1] == worker_id]
            for rid, _ in affected:
                self._handlers.pop(rid, None)
            self._depths[worker_id] = 0
            if hang:
                self.recovery.hangs += 1
            else:
                self.recovery.worker_deaths += 1
        _LOG.warning("pool worker %d failed (%s): restarting (%d request%s "
                     "affected)", worker_id, reason, len(affected),
                     "" if len(affected) == 1 else "s")
        for rid, _ in affected:
            self._backend.forget(rid)
        if self._restart_with_backoff(worker_id, incarnation):
            with self._lock:
                self._down.discard(worker_id)
                self._last_progress[worker_id] = time.monotonic()
                pending = self._pending[worker_id]
                self._pending[worker_id] = []
            self._notify_restart(worker_id)
            for dispatch in pending:
                dispatch()
        # (On the degrade path _degrade_to_threads already failed over
        # every other live request and flushed nothing — the service
        # re-dispatches them all onto the thread tier.)
        for rid, on_slice in affected:
            outcome = SliceOutcome(
                request_id=rid, worker_id=worker_id, done=True,
                status=WORKER_DIED, error=reason, incarnation=incarnation)
            try:
                on_slice(outcome)
            except Exception:       # pragma: no cover - callback guard
                _LOG.exception("on_slice callback failed during failover")

    def _restart_with_backoff(self, worker_id: int,
                              incarnation: int) -> bool:
        for attempt in range(MAX_SPAWN_ATTEMPTS):
            try:
                self._backend.restart_worker(worker_id, incarnation)
            except Exception as exc:
                with self._lock:
                    self.recovery.spawn_failures += 1
                _LOG.warning("restart of pool worker %d failed "
                             "(attempt %d/%d): %s", worker_id, attempt + 1,
                             MAX_SPAWN_ATTEMPTS, exc)
                if attempt + 1 < MAX_SPAWN_ATTEMPTS:
                    time.sleep(min(2.0, RESTART_BACKOFF_S * 2 ** attempt))
                continue
            with self._lock:
                self.recovery.restarts += 1
            return True
        self._degrade_to_threads()
        return False

    def _degrade_to_threads(self) -> None:
        """Last resort when a worker cannot be respawned: fail every
        live request over and swap the whole pool onto the thread
        backend — degraded service beats no service."""
        _LOG.warning(
            "pool degrading to the thread backend after %d failed spawn "
            "attempts; live requests will be replayed on threads",
            MAX_SPAWN_ATTEMPTS)
        with self._lock:
            survivors = [(rid, entry[0], entry[1])
                         for rid, entry in self._handlers.items()]
            self._handlers.clear()
            for i in range(self._size):
                self._depths[i] = 0
                self._incarnations[i] += 1
                self._down.discard(i)
                self._pending[i] = []   # openers were failed over too
            incarnations = list(self._incarnations)
            self.recovery.backend_degradations += 1
            old_backend = self._backend
            # Chaos plans target the tier they were configured for; the
            # degraded tier must be stable, so it runs fault-free.
            self._backend = ThreadBackend(
                self._size, self._on_outcome, faults=None,
                incarnations=incarnations)
            self.backend_name = "threads"
            self._degraded = True
        try:
            old_backend.destroy()
        except Exception:           # pragma: no cover - teardown guard
            _LOG.exception("process backend teardown failed during degrade")
        self._notify_restart(None)
        for rid, on_slice, worker_id in survivors:
            outcome = SliceOutcome(
                request_id=rid, worker_id=worker_id, done=True,
                status=WORKER_DIED,
                error="pool degraded to the thread backend after repeated "
                      "spawn failures",
                incarnation=incarnations[worker_id])
            try:
                on_slice(outcome)
            except Exception:       # pragma: no cover - callback guard
                _LOG.exception("on_slice callback failed during degrade")

    def _notify_restart(self, worker_id: int | None) -> None:
        for fn in list(self._restart_listeners):
            try:
                fn(worker_id)
            except Exception:       # pragma: no cover - listener guard
                _LOG.exception("pool restart listener failed")

    # ------------------------------------------------------------ telemetry
    def queue_depth(self, worker_id: int) -> int:
        with self._lock:
            return self._depths[worker_id]

    def queue_depths(self) -> list[int]:
        with self._lock:
            return list(self._depths)

    def idle_workers(self, exclude: int | None = None) -> int:
        """Workers with no queued or running op (optionally not counting
        one — a request asking 'is there capacity besides me?')."""
        with self._lock:
            return sum(1 for i, depth in enumerate(self._depths)
                       if depth == 0 and i != exclude)

    def telemetry(self) -> dict:
        """Pool-wide counters plus per-worker breakdown (benchmarks,
        tests, and the perf snapshot's ``pool`` section)."""
        workers = [self._backend.telemetry(i) for i in range(self._size)]
        depths = self.queue_depths()
        counters = {
            "backend": self.backend_name,
            "warm_hits": sum(w.warm_hits for w in workers),
            "warm_misses": sum(w.warm_misses for w in workers),
            "cold_builds": sum(w.cold_builds for w in workers),
            "warm_keys": sum(w.warm_keys for w in workers),
            "slices": sum(w.slices for w in workers),
            "per_worker": [
                {"worker_id": w.worker_id, "queue_depth": depths[i],
                 "warm_hits": w.warm_hits, "warm_misses": w.warm_misses,
                 "cold_builds": w.cold_builds, "warm_keys": w.warm_keys,
                 "slices": w.slices}
                for i, w in enumerate(workers)],
        }
        counters.update(self.recovery.as_dict())
        return counters

    def health(self) -> dict:
        """Liveness snapshot: per-worker state plus recovery counters —
        what an operator (or the CLI ``serve`` command) looks at first."""
        now = time.monotonic()
        with self._lock:
            workers = [
                {"worker_id": i,
                 "alive": i not in self._down,
                 "queue_depth": self._depths[i],
                 "incarnation": self._incarnations[i],
                 "last_progress_age_s": round(
                     now - self._last_progress[i], 3)}
                for i in range(self._size)]
            return {
                "backend": self.backend_name,
                "degraded": self._degraded,
                "closed": self._closed,
                "workers": workers,
                "recovery": self.recovery.as_dict(),
            }

    # ------------------------------------------------------------ lifecycle
    def close(self, timeout_s: float = POOL_CLOSE_TIMEOUT_S) -> None:
        """Drain queued work and join every worker, bounded.

        Waits at most ``timeout_s`` for workers to finish their queues;
        a worker still running past that is terminated (threads: left as
        daemons) and reported in a ``RuntimeError`` — shutdown never
        hangs, and a stuck worker is loud instead of silent.  Idempotent;
        backend resources are reclaimed before the error is raised.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop_supervisor.set()
        # Joined before backend teardown so a restart in flight cannot
        # spawn a worker into a closing pool.
        self._supervisor.join(timeout=timeout_s)
        atexit.unregister(self._atexit_close)
        stuck = self._backend.close(timeout_s)
        if stuck:
            raise RuntimeError(
                f"pool workers {stuck} did not drain within {timeout_s:.1f}s "
                f"({self.backend_name} backend); their work was abandoned")

    def _atexit_close(self) -> None:    # pragma: no cover - interpreter exit
        try:
            self.close(timeout_s=5.0)
        except Exception:
            pass
