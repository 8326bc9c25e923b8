"""The persistent warm worker pool behind :class:`repro.serve.service`.

One :class:`WorkerPool` outlives every request.  Each worker is one
:class:`_Worker` record per incarnation — a job queue plus the thread or
process that drains it — and every worker, on either tier, runs the same
op loop (:func:`_serve_ops`): ``open``/``step``/``run`` each produce one
:class:`SliceOutcome`, ``cancel`` flags the hosted session at the slice
boundary, ``close`` returns.  The tiers differ only in what crosses into
the worker:

* ``"threads"`` — daemon threads in the service process.  Sessions are
  passed by reference, so nothing is pickled and the caller can poll the
  live session object; the GIL serializes CPU-bound slices.  Right for
  latency-sensitive light traffic.
* ``"processes"`` — long-lived non-daemon worker *processes* (non-daemon
  so a hosted session may itself fan out to shard workers).  Requests
  ship as pickled ``checkpoint()`` blobs, input tables inside, each with
  a slot of the pool's shared cancel-token array; concurrent CPU-bound
  searches then scale with cores instead of contending for one GIL.

Every worker hosts a :class:`_SessionHost`: a cache of warm ``(engine,
abstraction)`` pairs keyed by :func:`warm_key`, the ``(warm key, env
digest)`` pairs already served (the warm-hit metric that schema-affinity
routing optimizes), and the sessions currently hosted.  Because host and
op loop are shared code, a request's slices execute identically on
either tier — the determinism pledge below.

Why warm reuse is safe: engine caches are keyed on exact structural
``(query, env)`` state — and the incremental consistency checker's
verdicts additionally on demonstration identity — so traffic from one
request can never change another's *results*, only its latency.  An
unpickled environment compares equal to the original, so a
process-hosted session's ranked queries and ``SearchStats`` are
byte-identical to the same session sliced on a thread worker (or never
sliced at all), under fork and spawn alike.

Fault tolerance.  A supervisor thread in the pool watches for dead
workers (process exitcode, ended thread) and hung slices (no per-worker
progress within ``slice_timeout_s``).  On failure it installs the
worker's replacement record at once — next *incarnation*, fresh job
queue, so ops submitted during the restart wait there — fails the dead
worker's requests over to the caller as ``status="worker_died"``
outcomes, and starts the replacement with exponential backoff; outcomes
from the dead incarnation are dropped by tag.  A restarted worker starts
cold.  When every restart attempt of a process worker fails, the pool
degrades to the thread tier with a logged warning rather than dying.
Every non-terminal :class:`SliceOutcome` carries the session's latest
slice-boundary checkpoint, which is what lets the service above replay a
request on a healthy worker with byte-identical results — crashes cost
latency, never correctness.  Deterministic chaos for all of this comes
from :mod:`repro.serve.faults`: an injected crash escapes the op loop and
ends the worker thread, or the worker process via ``os._exit``.
"""

from __future__ import annotations

import atexit
import logging
import os
import pickle
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

#: Spawn attempts per process-worker failure before the pool degrades to
#: the thread tier.
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
    """Pool-wide fault-tolerance counters (pool-owned)."""

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
    """What one op produced — the only thing a worker ships back.

    ``stats`` is a snapshot for observability (the process tier has no
    live session object to poll); ``result`` is set exactly once, on the
    terminal outcome.  ``telemetry`` piggybacks the worker's counters so
    the pool needs no side channel.  ``checkpoint`` carries the
    session's slice-boundary state on every non-terminal outcome — the
    replay point should the worker die before the next one.
    ``incarnation`` tags which life of the worker produced this; the
    pool drops outcomes from dead incarnations.
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
    """Per-worker state, the same on both tiers; confined to one worker.

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


# ------------------------------------------------------------------- workers

#: The op that ends a worker's loop.
_CLOSE = ("close", -1, None)


def _serve_ops(host: _SessionHost, jobs,
               deliver: Callable[[SliceOutcome], None],
               admit: Callable[[tuple], tuple]) -> None:
    """The op loop every worker runs, thread and process alike.

    ``open``/``step``/``run`` each deliver exactly one outcome; ``admit``
    turns an ``open`` payload into ``(session, slice_pops, deadline,
    env_key)``, the one step where the tiers differ.  ``cancel`` flags the
    hosted session at the slice boundary (the pool already made the
    mid-slice stop) and ``close`` returns.  Only ``Exception`` becomes an
    error outcome: an :class:`InjectedCrash` (a ``BaseException``) escapes
    to the tier's wrapper and kills the worker, so chaos exercises
    supervision rather than this error net.
    """
    while True:
        kind, request_id, payload = jobs.get()
        if kind == "close":
            return
        if kind == "cancel":
            host.cancel_session(request_id)
            continue
        try:
            if kind == "open":
                outcome = host.open_session(request_id, *admit(payload))
            elif kind == "step":
                outcome = host.step_session(request_id)
            else:
                outcome = host.run_session(request_id)
        except Exception:
            host.drop(request_id)
            outcome = SliceOutcome(
                request_id=request_id, worker_id=host.worker_id, done=True,
                status="error", error=traceback.format_exc(),
                telemetry=host.telemetry(), incarnation=host.incarnation)
        deliver(outcome)


def _thread_worker_main(host: _SessionHost, jobs,
                        deliver: Callable[[SliceOutcome], None]) -> None:
    """Body of one worker thread: sessions arrive by reference."""
    try:
        _serve_ops(host, jobs, deliver, lambda payload: payload)
    except InjectedCrash:
        # The thread-tier worker death: the thread ends without an
        # outcome, as a process worker's os._exit does, and supervision
        # takes over.
        return


def _process_worker_main(worker_id: int, jobs, results, cancel_limits,
                         faults: FaultPlan | None, incarnation: int) -> None:
    """Body of one long-lived worker process.

    Each ``open`` op carries a pickled checkpoint with the input tables
    inside, and the request's cancel-token slot.  Unpickled environments
    are memoized by the service's env digest: a repeated request then
    hands the warm engine the very ``Env`` object its cache keys hold, so
    cache probes match by identity instead of comparing every cell of an
    equal copy.  An :class:`InjectedCrash` ends the process via
    ``os._exit`` — no cleanup, no unwinding — because that is what a real
    worker death looks like to the supervisor.
    """
    host = _SessionHost(worker_id, incarnation=incarnation,
                        injector=make_injector(faults, worker_id,
                                               incarnation))
    envs: dict = {}                     # env digest -> Env

    def admit(payload) -> tuple:
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
        return session, slice_pops, deadline, env_key

    try:
        _serve_ops(host, jobs, results.put, admit)
    except InjectedCrash:
        os._exit(FAULT_EXITCODE)


class _Worker:
    """One worker incarnation: its job queue and the thread or process
    draining it.  ``runner`` is ``None`` while the worker is down; ops
    submitted meanwhile wait in ``jobs`` for the replacement to start."""

    __slots__ = ("worker_id", "jobs", "incarnation", "runner", "telemetry")

    def __init__(self, worker_id: int, jobs, incarnation: int) -> None:
        self.worker_id = worker_id
        self.jobs = jobs
        self.incarnation = incarnation
        self.runner = None
        #: This incarnation's counters as of its latest outcome.
        self.telemetry = WorkerTelemetry(worker_id=worker_id)

    def failure(self) -> str | None:
        """Why the runner died, or None while it runs (or is starting)."""
        runner = self.runner
        if runner is None or runner.is_alive():
            return None
        if isinstance(runner, threading.Thread):
            return f"worker thread {self.worker_id} crashed"
        code = runner.exitcode
        reason = "injected crash" if code == FAULT_EXITCODE else \
            f"exitcode {code}"
        return f"worker process {self.worker_id} died ({reason})"

    def halt(self, timeout_s: float) -> bool:
        """Join the runner within ``timeout_s``; a process still running
        then is terminated, a thread left behind (a daemon).  True when
        the runner had finished by itself."""
        runner = self.runner
        if runner is None:
            return True
        runner.join(timeout_s)
        if not runner.is_alive():
            return True
        if not isinstance(runner, threading.Thread):
            runner.terminate()
            runner.join(1.0)
            if runner.is_alive():       # pragma: no cover - defensive
                runner.kill()
                runner.join(1.0)
        return False

    def retire(self) -> None:
        """Let a replaced incarnation go: a hung thread leaves once it
        wakes, a hung process is terminated (possibly mid-slice — its
        requests replay from their checkpoints), a dead one reaped."""
        if isinstance(self.runner, threading.Thread):
            self.jobs.put(_CLOSE)
        else:
            self.halt(0)


# ---------------------------------------------------------------------- pool

class WorkerPool:
    """A fixed-size pool of warm workers on one tier.

    Lives across requests (and across services, if the caller passes its
    own pool around).  ``backend`` is ``"threads"``, ``"processes"`` or
    ``None``/``"auto"`` (``REPRO_POOL_BACKEND``, else processes when
    ``size > 1`` — the tier that actually uses the cores).

    The pool owns request-id allocation, per-request outcome routing,
    per-worker queue-depth accounting (incremented per submitted op,
    decremented per outcome) — the load signal least-loaded routing
    uses — each worker's telemetry as of its latest outcome, the process
    tier's cancel-token slots, and supervision: a watchdog thread detects
    dead workers and hung slices, restarts them with exponential backoff
    (degrading the whole pool to threads when process restarts keep
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
        # request_id -> (on_slice, worker_id, session)
        self._handlers: dict[int, tuple[Callable, int, SynthesisSession]] = {}
        self._depths = [0] * size
        self._next_request = 0
        self._closed = False
        self._degraded = False
        self._last_progress = [time.monotonic()] * size
        self._restart_listeners: list[Callable[[int | None], None]] = []
        self._spawn_injectors: dict[int, FaultInjector] = {}
        self.recovery = RecoveryTelemetry()
        # Process tier only: the shared cancel-token slots, the outcome
        # queue every worker process writes, and the thread reading it.
        self._ctx = self._cancel_limits = self._results = self._reader = None
        self._slots: dict[int, int] = {}        # request_id -> token slot
        self._free_slots: list[int] = []
        if self.backend_name == "processes":
            self._ctx = pick_context()
            # The slots cross into pool workers and on into their shard
            # processes, which start with the same method.
            self._cancel_limits = self._ctx.Array(
                "q", [NO_LIMIT] * _CANCEL_SLOTS)
            self._free_slots = list(range(_CANCEL_SLOTS))
            self._results = self._ctx.SimpleQueue()
            self._reader = threading.Thread(
                target=self._read_outcomes, name="repro-serve-pool-reader",
                daemon=True)
            self._reader.start()
        self._workers = [self._new_worker(i, 0) for i in range(size)]
        for worker in self._workers:
            self._start(worker)
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

    # -------------------------------------------------------------- workers
    def _new_worker(self, worker_id: int, incarnation: int) -> _Worker:
        jobs = self._ctx.SimpleQueue() if self.backend_name == "processes" \
            else queue.SimpleQueue()
        return _Worker(worker_id, jobs, incarnation)

    def _start(self, worker: _Worker) -> None:
        """Start the thread or process that drains ``worker``'s queue.
        Raises (e.g. ``OSError``) when it cannot be started."""
        worker_id, incarnation = worker.worker_id, worker.incarnation
        if self.backend_name == "processes":
            runner = self._ctx.Process(
                target=_process_worker_main,
                args=(worker_id, worker.jobs, self._results,
                      self._cancel_limits, self.faults, incarnation),
                name=f"repro-serve-proc-{worker_id}", daemon=False)
        else:
            host = _SessionHost(
                worker_id, incarnation=incarnation,
                injector=make_injector(self.faults, worker_id, incarnation))
            runner = threading.Thread(
                target=_thread_worker_main,
                args=(host, worker.jobs, self._on_outcome),
                name=f"repro-serve-worker-{worker_id}", daemon=True)
        runner.start()
        worker.runner = runner

    def _take_slot(self, request_id: int) -> int:
        if not self._free_slots:
            return -1
        slot = self._free_slots.pop()
        self._cancel_limits[slot] = NO_LIMIT        # recycled slot
        self._slots[request_id] = slot
        return slot

    def _release_slot(self, request_id: int) -> None:
        slot = self._slots.pop(request_id, None)
        if slot is not None:
            self._free_slots.append(slot)

    # ------------------------------------------------------------- requests
    def submit_request(self, session: SynthesisSession, *, worker_id: int,
                       slice_pops: int, deadline: Deadline, env_key: str,
                       on_slice: Callable[[SliceOutcome], None]) -> int:
        """Open a session on a worker; every slice lands on ``on_slice``
        (from a pool-owned thread) until a terminal outcome.  Returns the
        pool-wide request id used by :meth:`step`/:meth:`run`/
        :meth:`cancel`.  A submission to a worker mid-restart waits in its
        replacement's queue.  ``env_key`` is the content digest of
        ``session.env``: warm-hit accounting and the process workers'
        environment memo key on it.  On the process tier the session
        ships pickled; one that cannot pickle raises ``TypeError`` before
        anything is recorded."""
        if not 0 <= worker_id < self._size:
            raise ValueError(f"worker {worker_id} out of range "
                             f"[0, {self._size})")
        blob = None
        if self.backend_name == "processes":
            try:
                blob = session.checkpoint()
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                raise TypeError(
                    f"a request on the process pool tier must pickle "
                    f"({exc}); give the stop condition as a StopSpec such "
                    f"as GroundTruthStop instead of a callable") from exc
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            request_id = self._next_request
            self._next_request += 1
            if self.backend_name == "processes":
                payload = (blob, slice_pops, deadline, env_key,
                           self._take_slot(request_id))
            else:
                payload = (session, slice_pops, deadline, env_key)
            self._handlers[request_id] = (on_slice, worker_id, session)
            self._depths[worker_id] += 1
            self._last_progress[worker_id] = time.monotonic()
            jobs = self._workers[worker_id].jobs
        jobs.put(("open", request_id, payload))
        return request_id

    def step(self, request_id: int) -> None:
        """Queue the next slice (behind the worker's other requests —
        cooperative round-robin)."""
        self._resubmit(request_id, "step")

    def run(self, request_id: int) -> None:
        """Queue a run-to-completion op (the intra-request fan-out path
        when the session's config asks for workers > 1)."""
        self._resubmit(request_id, "run")

    def _resubmit(self, request_id: int, kind: str) -> None:
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
            jobs = self._workers[worker_id].jobs
        jobs.put((kind, request_id, None))

    def cancel(self, request_id: int) -> None:
        """Stop a request's session at its next pop, whichever tier hosts
        it, and queue the slice-boundary cancel op (no-op once the
        request finished).  The mid-slice stop is the request's token
        slot on the process tier — polled by the hosted session every pop
        and by its shards every round — and the session itself on the
        thread tier, where it is the live search."""
        with self._lock:
            entry = self._handlers.get(request_id)
            if entry is None:
                return
            slot = self._slots.get(request_id)
            if slot is not None:
                CancelToken(self._cancel_limits, slot).propose(0)
            else:
                entry[2].cancel()
            jobs = self._workers[entry[1]].jobs
        jobs.put(("cancel", request_id, None))

    def _on_outcome(self, outcome: SliceOutcome) -> None:
        with self._lock:
            worker = self._workers[outcome.worker_id]
            if outcome.incarnation != worker.incarnation:
                # A replaced worker's ghost (a hung thread that woke up,
                # a queued result from before a restart): its request
                # was already failed over — drop it.
                return
            if outcome.telemetry is not None:
                worker.telemetry = outcome.telemetry
            entry = self._handlers.get(outcome.request_id)
            depth = self._depths[outcome.worker_id] - 1
            self._depths[outcome.worker_id] = max(0, depth)
            self._last_progress[outcome.worker_id] = time.monotonic()
            if outcome.done:
                self._handlers.pop(outcome.request_id, None)
                self._release_slot(outcome.request_id)
        if entry is not None:
            entry[0](outcome)

    def _read_outcomes(self) -> None:
        results = self._results
        while True:
            try:
                outcome = results.get()
            except (EOFError, OSError):     # pragma: no cover - teardown
                return
            if outcome is None:             # _stop_reader() sentinel
                return
            self._on_outcome(outcome)

    def _stop_reader(self, timeout_s: float) -> None:
        reader, self._reader = self._reader, None
        if reader is not None:
            self._results.put(None)
            reader.join(timeout=timeout_s)

    # ---------------------------------------------------------- supervision
    def add_restart_listener(self, fn: Callable[[int | None], None]) -> None:
        """Call ``fn(worker_id)`` after a worker restarts (its warm and
        affinity state is cold), ``fn(None)`` after a degrade to threads
        (every worker is cold).  Runs on the supervisor thread."""
        self._restart_listeners.append(fn)

    def remove_restart_listener(self, fn) -> None:
        try:
            self._restart_listeners.remove(fn)
        except ValueError:
            pass

    def down_workers(self) -> set[int]:
        with self._lock:
            return {worker.worker_id for worker in self._workers
                    if worker.runner is None}

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
            workers = list(self._workers)
        for worker in workers:
            reason = worker.failure()
            if reason is not None:
                self._handle_worker_failure(worker, reason, hang=False)
        for worker in self._hung_workers():
            self._handle_worker_failure(
                worker,
                f"worker {worker.worker_id} hung: no progress within "
                f"{self._slice_timeout_s}s", hang=True)

    def _hung_workers(self) -> list[_Worker]:
        if self._slice_timeout_s is None:
            return []
        now = time.monotonic()
        with self._lock:
            return [worker for i, worker in enumerate(self._workers)
                    if worker.runner is not None and self._depths[i] > 0
                    and now - self._last_progress[i] > self._slice_timeout_s]

    def _handle_worker_failure(self, failed: _Worker, reason: str,
                               hang: bool) -> None:
        worker_id = failed.worker_id
        with self._lock:
            if self._closed or self._workers[worker_id] is not failed:
                return
            # The replacement's queue takes ops from here on; they wait
            # there until its runner starts.
            worker = self._new_worker(worker_id, failed.incarnation + 1)
            self._workers[worker_id] = worker
            affected = [(rid, entry[0])
                        for rid, entry in self._handlers.items()
                        if entry[1] == worker_id]
            for rid, _ in affected:
                del self._handlers[rid]
                self._release_slot(rid)
            self._depths[worker_id] = 0
            if hang:
                self.recovery.hangs += 1
            else:
                self.recovery.worker_deaths += 1
        _LOG.warning("pool worker %d failed (%s): restarting (%d request%s "
                     "affected)", worker_id, reason, len(affected),
                     "" if len(affected) == 1 else "s")
        failed.retire()
        if self._restart_with_backoff(worker):
            self._notify_restart(worker_id)
        # (On the degrade path _degrade_to_threads already failed over
        # every other live request — the service re-dispatches them all
        # onto the thread tier.)
        for rid, on_slice in affected:
            outcome = SliceOutcome(
                request_id=rid, worker_id=worker_id, done=True,
                status=WORKER_DIED, error=reason,
                incarnation=worker.incarnation)
            try:
                on_slice(outcome)
            except Exception:       # pragma: no cover - callback guard
                _LOG.exception("on_slice callback failed during failover")

    def _restart_with_backoff(self, worker: _Worker) -> bool:
        for attempt in range(MAX_SPAWN_ATTEMPTS):
            try:
                self._spawn_check(worker)
                self._start(worker)
            except Exception as exc:
                with self._lock:
                    self.recovery.spawn_failures += 1
                _LOG.warning("restart of pool worker %d failed "
                             "(attempt %d/%d): %s", worker.worker_id,
                             attempt + 1, MAX_SPAWN_ATTEMPTS, exc)
                if attempt + 1 < MAX_SPAWN_ATTEMPTS:
                    time.sleep(min(2.0, RESTART_BACKOFF_S * 2 ** attempt))
                continue
            with self._lock:
                self._last_progress[worker.worker_id] = time.monotonic()
                self.recovery.restarts += 1
            return True
        self._degrade_to_threads()
        return False

    def _spawn_check(self, worker: _Worker) -> None:
        """Fault-injection site for process restart failures.  The spawn
        stream is salted with the *dead* incarnation: replacing an armed
        incarnation is what may fail, so ``max_incarnation=1`` plans can
        express 'the first restart fails' without crash-looping."""
        if self.faults is None or self.backend_name != "processes":
            return
        dead = worker.incarnation - 1
        injector = self._spawn_injectors.get(worker.worker_id)
        if injector is None or injector.incarnation != dead:
            injector = FaultInjector(self.faults, worker.worker_id, dead)
            self._spawn_injectors[worker.worker_id] = injector
        injector.check_spawn()

    def _degrade_to_threads(self) -> None:
        """Last resort when a worker process cannot be respawned: fail
        every live request over and move the whole pool onto worker
        threads — degraded service beats no service."""
        _LOG.warning(
            "pool degrading to the thread backend after %d failed spawn "
            "attempts; live requests will be replayed on threads",
            MAX_SPAWN_ATTEMPTS)
        with self._lock:
            survivors = [(rid, entry[0], entry[1])
                         for rid, entry in self._handlers.items()]
            self._handlers.clear()
            self._slots.clear()
            self._depths = [0] * self._size
            self.recovery.backend_degradations += 1
            self.backend_name = "threads"
            self._degraded = True
            # Chaos plans target the tier they were configured for; the
            # degraded tier must be stable, so it runs fault-free.
            self.faults = None
            retired = self._workers
            self._workers = [self._new_worker(i, old.incarnation + 1)
                             for i, old in enumerate(retired)]
            for worker in self._workers:
                self._start(worker)
            incarnations = [worker.incarnation for worker in self._workers]
        for old in retired:
            old.retire()
        self._stop_reader(timeout_s=1.0)
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
        tests, and the perf snapshot's ``pool`` section), each worker's
        as of its latest outcome."""
        with self._lock:
            workers = [worker.telemetry for worker in self._workers]
            depths = list(self._depths)
            backend = self.backend_name
        counters = {
            "backend": backend,
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
                 "alive": worker.runner is not None,
                 "queue_depth": self._depths[i],
                 "incarnation": worker.incarnation,
                 "last_progress_age_s": round(
                     now - self._last_progress[i], 3)}
                for i, worker in enumerate(self._workers)]
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
        worker resources are reclaimed before the error is raised.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop_supervisor.set()
        # Joined before teardown so a restart in flight cannot start a
        # worker into a closing pool.
        self._supervisor.join(timeout=timeout_s)
        atexit.unregister(self._atexit_close)
        workers = list(self._workers)
        for worker in workers:
            worker.jobs.put(_CLOSE)
        deadline = Deadline(timeout_s)
        stuck = [worker.worker_id for worker in workers
                 if not worker.halt(max(0.1, deadline.remaining()))]
        self._stop_reader(timeout_s=2.0)
        if stuck:
            raise RuntimeError(
                f"pool workers {stuck} did not drain within {timeout_s:.1f}s "
                f"({self.backend_name} backend); their work was abandoned")

    def _atexit_close(self) -> None:    # pragma: no cover - interpreter exit
        try:
            self.close(timeout_s=5.0)
        except Exception:
            pass
