"""Asyncio synthesis-as-a-service front-end over the warm worker pool.

The paper's interaction model is a service loop: a user supplies a partial
computation demonstration, gets ranked analytical SQL back, refines, and
asks again.  :class:`SynthesisService` makes that loop first-class:

* every request becomes a :class:`~repro.synthesis.session.
  SynthesisSession` pinned to one pool worker and advanced in bounded
  *slices* (``slice_pops`` pops per turn, re-enqueued behind the worker's
  other requests — cooperative round-robin, so one giant search cannot
  monopolize a worker);
* the :class:`~repro.serve.pool.WorkerPool` runs on one of two tiers:
  GIL-sharing threads, or — the default for pools larger than one —
  long-lived worker processes that scale CPU-bound searches with cores;
* placement is *schema-affine*: requests route by ``(warm key, env
  digest)`` to the worker that already served that shape on those tables
  (hot engine caches), falling back to the least-loaded worker for new
  shapes;
* a request whose config asks for ``workers > 1`` fans out: when the
  pool has idle capacity its next turn runs the session to completion,
  re-dispatching remaining lanes onto shard workers at the round
  boundary (the session's own parallel path) instead of another slice;
* consistent queries stream to the caller the moment a slice surfaces
  them (:meth:`RequestHandle.stream`), with the full ranked result at
  :meth:`RequestHandle.result`;
* admission control bounds the number of live requests
  (:class:`ServiceOverloaded`, carrying a ``retry_after_s`` hint derived
  from the backlog, instead of an unbounded queue);
* each request carries its own wall-clock budget (checked worker-side
  before every slice, so it covers queueing on either tier, and armed as
  a cancel for the length of a fanned-out run), and
  :meth:`RequestHandle.cancel` stops the session at its next pop and
  any shards it fanned out to at their next round — through the
  session's cancel token, which on the process tier is the request's
  slot of the pool's shared round-limit array.

Fault tolerance (PR 9): the service retains each request's latest
slice-boundary checkpoint blob.  When the pool's supervisor reports a
worker death (``status="worker_died"``) the request enters ``RETRYING``:
the checkpoint is resumed into a fresh session and re-dispatched onto a
healthy worker, under ``max_retries`` replays per request; only when the
budget is exhausted does the request become ``FAILED``, carrying every
accumulated worker error.  The recovery state machine::

    QUEUED ──▶ RUNNING ──▶ DONE | CANCELLED | TIMED_OUT
                 │  ▲
       worker    ▼  │ re-dispatched from checkpoint
       died    RETRYING ──▶ FAILED   (retry budget exhausted,
                                      or no checkpoint to replay)

Terminal states are sticky: a late outcome from a dying worker can never
flip a request out of DONE/CANCELLED/TIMED_OUT/FAILED.

Determinism: slicing is pure preemption and pickling is exact — a
request's ranked queries and ``SearchStats`` are byte-identical to an
uninterrupted serial run of the same session, whichever worker and
whichever tier (threads or processes, fork or spawn) it lands on, and
however its slices interleave with other requests.  That same pledge is
what makes recovery *transparent*: a replayed checkpoint re-executes the
lost pops and lands on the identical result — crashes cost latency,
never correctness.  What the pool's warm state changes is latency only;
the per-request ``engine_stats`` deltas stay exact.

Thread topology: the event loop owns admission, futures, streams and
recovery; pool-owned threads (worker threads on the thread tier, the
outcome reader on the process tier, the supervisor) deliver slice
outcomes and talk back only through ``loop.call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import hashlib
from collections.abc import Sequence
from dataclasses import dataclass

from repro.lang import ast
from repro.provenance.demo import Demonstration
from repro.serve.faults import FaultPlan
from repro.serve.pool import WORKER_DIED, SliceOutcome, WorkerPool, warm_key
from repro.synthesis.config import SynthesisConfig, check_int, check_seconds
from repro.synthesis.enumerator import SynthesisResult
from repro.synthesis.session import SynthesisSession
from repro.synthesis.stop import StopSpec, as_stop_spec
from repro.table.table import Table
from repro.util.timer import Deadline

#: End-of-stream marker on a request's query stream.
_EOS = object()

# Request lifecycle states (RequestHandle.status).
QUEUED = "queued"
RUNNING = "running"
RETRYING = "retrying"           # worker died; replaying from checkpoint
DONE = "done"
CANCELLED = "cancelled"
TIMED_OUT = "timed_out"
FAILED = "failed"

#: Once here, a request never leaves (the _fail/_finalize guard).
TERMINAL_STATES = frozenset({DONE, CANCELLED, TIMED_OUT, FAILED})

#: Bound on the routing/env-digest memos — they key on request shapes,
#: which are few in steady state; a pathological shape churn resets the
#: maps rather than growing them without bound.
_ROUTE_MEMO_LIMIT = 4096


class ServiceOverloaded(RuntimeError):
    """Admission rejected: the service is at its live-request bound.

    ``retry_after_s`` is the service's backoff hint, scaled with the
    current backlog (live requests + queued slices) — clients honor it
    with jitter rather than hammering a saturated service.
    """

    def __init__(self, message: str, retry_after_s: float = 0.1) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs (request-level knobs ride in SynthesisConfig)."""

    pool_size: int = 2          # warm workers
    max_requests: int = 8       # live (admitted, unfinished) request bound
    slice_pops: int = 500       # preemption granularity, pops per slice
    default_timeout_s: float | None = None   # per-request budget fallback
    pool_backend: str | None = None  # threads|processes|None ("auto")
    max_retries: int = 2        # checkpoint replays per request
    slice_timeout_s: float | None = None  # hang detection (off by default)
    faults: FaultPlan | None = None       # deterministic chaos (tests)

    def __post_init__(self) -> None:
        for name, minimum in (("pool_size", 1), ("max_requests", 1),
                              ("slice_pops", 1), ("max_retries", 0)):
            check_int(name, getattr(self, name), minimum)
        check_seconds("slice_timeout_s", self.slice_timeout_s, positive=True)
        check_seconds("default_timeout_s", self.default_timeout_s)


class _Request:
    """Loop-side bookkeeping for one admitted request."""

    def __init__(self, session: SynthesisSession, worker_id: int,
                 loop: asyncio.AbstractEventLoop) -> None:
        self.session = session
        self.worker_id = worker_id
        self.request_id: int | None = None      # assigned by the pool
        self.future: asyncio.Future = loop.create_future()
        self.stream_queue: asyncio.Queue = asyncio.Queue()
        self.state = QUEUED
        # ----------------------------------------------- recovery state
        self.deadline: Deadline | None = None   # absolute; survives replay
        self.env_key: str = ""
        self.checkpoint: bytes | None = None    # latest slice-boundary blob
        self.checkpoint_visited = 0             # pops folded into it
        self.last_visited = 0                   # pops last reported live
        self.retries = 0
        self.errors: list[str] = []             # one per worker death
        self.cancel_requested = False


class RequestHandle:
    """The caller's view of one in-flight synthesis request."""

    def __init__(self, request: _Request, service: "SynthesisService") -> None:
        self._request = request
        self._service = service

    @property
    def status(self) -> str:
        return self._request.state

    @property
    def worker_id(self) -> int:
        return self._request.worker_id

    @property
    def retries(self) -> int:
        """Checkpoint replays this request needed (0 on a clean run)."""
        return self._request.retries

    @property
    def session(self) -> SynthesisSession:
        """The submitted session object.

        On the thread tier this is the live search (pollable mid-flight);
        on the process tier it is the loop-side shell whose ``stats`` the
        service refreshes from each slice outcome — same fields, one
        slice of staleness.  After a recovery it is the replayed session.
        """
        return self._request.session

    async def result(self) -> SynthesisResult:
        """The ranked result; resolves when the session ends (found its
        queries, exhausted, budget expired, or cancelled — the result's
        stats say which)."""
        return await asyncio.shield(self._request.future)

    async def stream(self):
        """Async-iterate consistent queries in discovery order, ending
        when the request does.  First hit arrives mid-search — the
        stream-first-refine-later interaction the session API exists for.
        """
        while True:
            item = await self._request.stream_queue.get()
            if item is _EOS:
                return
            yield item

    def cancel(self) -> None:
        """Stop the session at its next pop; the (partial, ranked) result
        still resolves.  Sticky across recovery: a request cancelled
        while its worker was being replaced still ends ``cancelled``."""
        self._service._cancel(self._request)


class SynthesisService:
    """The asyncio front-end; use as an async context manager.

    ``async with SynthesisService() as svc:`` then ``svc.submit(...)``
    from coroutines running on the same event loop.  A caller-supplied
    ``pool`` survives the service (warm state persists across service
    restarts — and two services may share one pool); an owned pool is
    closed with it.
    """

    def __init__(self, config: ServiceConfig | None = None,
                 pool: WorkerPool | None = None) -> None:
        self.config = config or ServiceConfig()
        self.pool = pool if pool is not None \
            else WorkerPool(self.config.pool_size,
                            backend=self.config.pool_backend,
                            faults=self.config.faults,
                            slice_timeout_s=self.config.slice_timeout_s)
        self._own_pool = pool is None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._live: set[_Request] = set()
        self._affinity: dict[tuple, int] = {}   # (warm key, env key) -> wid
        self._env_keys: dict = {}               # env -> digest memo
        self._closed = False
        self._retries_total = 0
        self._recovered = 0         # requests that finished after replays
        self._replayed_pops = 0     # pops re-executed across recoveries
        self.pool.add_restart_listener(self._on_worker_restart)

    # --------------------------------------------------------- lifecycle
    async def __aenter__(self) -> "SynthesisService":
        self._loop = asyncio.get_running_loop()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def close(self) -> None:
        """Stop admitting, cancel live requests, drain the pool."""
        self._closed = True
        self.pool.remove_restart_listener(self._on_worker_restart)
        for request in list(self._live):
            self._cancel(request)
        if self._live:
            await asyncio.gather(
                *(request.future for request in self._live),
                return_exceptions=True)
        if self._own_pool:
            self.pool.close()

    # --------------------------------------------------------- admission
    def submit(self, tables: Sequence[Table] | ast.Env, demo: Demonstration,
               config: SynthesisConfig | None = None,
               stop: StopSpec | None = None,
               timeout_s: float | None = None,
               worker: int | None = None,
               technique: str = "provenance") -> RequestHandle:
        """Admit one synthesis request; returns immediately.

        ``worker`` pins the request to a pool worker (tests and manual
        placement); by default the service routes by schema affinity —
        the ``(warm key, env digest)`` of the request goes to the worker
        that has served it before, or to the least-loaded worker on first
        sight.  ``timeout_s`` (or the service default) is the request's
        wall-clock budget from admission — covering queueing, unlike the
        config's ``timeout_s``, which meters active search time only.

        ``config.workers > 1`` is honored: when the pool has idle
        capacity the request's next turn runs to completion with the
        remaining lanes re-dispatched onto shard workers (byte-identical
        to slicing serially); under load it degrades to ordinary slices.

        Raises :class:`ServiceOverloaded` when ``max_requests`` requests
        are already live — its ``retry_after_s`` tells the caller how
        long to back off (with jitter), the paper's interactive loop
        degrading gracefully instead of queueing without bound.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        if len(self._live) >= self.config.max_requests:
            backlog = sum(self.pool.queue_depths()) + len(self._live)
            raise ServiceOverloaded(
                f"{len(self._live)} live requests (bound "
                f"{self.config.max_requests}); retry later",
                retry_after_s=round(min(5.0, 0.05 + 0.02 * backlog), 3))
        check_seconds("timeout_s", timeout_s)
        cfg = config or SynthesisConfig()
        session = SynthesisSession(tables, demo, cfg, abstraction=technique,
                                   stop=as_stop_spec(stop))
        env_key = self._env_key(session.env)
        if worker is None:
            worker = self._route(warm_key(cfg, technique), env_key)
        elif not 0 <= worker < self.pool.size:
            raise ValueError(f"worker {worker} out of range "
                             f"[0, {self.pool.size})")
        budget = timeout_s if timeout_s is not None \
            else self.config.default_timeout_s
        request = _Request(session, worker, self._loop)
        request.deadline = Deadline(budget)
        request.env_key = env_key
        try:
            # The replay point should the worker die before shipping its
            # first slice checkpoint (crash-before-first-slice window).
            request.checkpoint = session.checkpoint(strip_env=True)
        except Exception:
            request.checkpoint = None   # unpicklable: no recovery for it
        # Live only once the pool took it: a request that fails dispatch
        # (TypeError on the process tier when it cannot pickle) leaves
        # nothing behind.  Its outcomes reach this loop through
        # call_soon_threadsafe, so never before the add below.
        request.request_id = self.pool.submit_request(
            session, worker_id=worker, slice_pops=self.config.slice_pops,
            deadline=request.deadline, env_key=env_key,
            on_slice=lambda outcome: self._on_slice(request, outcome))
        self._live.add(request)
        return RequestHandle(request, self)

    # ----------------------------------------------------------- routing
    def _env_key(self, env: ast.Env) -> str:
        """Content digest of ``env``: equal tables digest identically
        whichever process built them (``repr`` covers names, schemas and
        every cell exactly)."""
        key = self._env_keys.get(env)
        if key is None:
            if len(self._env_keys) >= _ROUTE_MEMO_LIMIT:
                self._env_keys.clear()
            key = hashlib.blake2b(repr(env).encode(),
                                  digest_size=16).hexdigest()
            self._env_keys[env] = key
        return key

    def _route(self, key: tuple, env_key: str) -> int:
        """Pick a worker: sticky by request shape, least-loaded on first
        sight (ties to the lowest id, so light load behaves like the old
        round-robin no worse).  Workers currently down — mid-restart —
        are avoided for new placements."""
        route = (key, env_key)
        down = self.pool.down_workers()
        worker = self._affinity.get(route)
        if worker is None or worker in down:
            worker = self._healthy_worker(down)
            if len(self._affinity) >= _ROUTE_MEMO_LIMIT:
                self._affinity.clear()
            self._affinity[route] = worker
        return worker

    def _healthy_worker(self, down: set[int] | None = None) -> int:
        """The least-loaded worker that is not mid-restart (every worker
        down is a transient — fall back to least-loaded regardless; the
        pool queues submissions to a restarting worker)."""
        if down is None:
            down = self.pool.down_workers()
        depths = self.pool.queue_depths()
        candidates = [i for i in range(self.pool.size) if i not in down] \
            or list(range(self.pool.size))
        return min(candidates, key=lambda i: (depths[i], i))

    def _on_worker_restart(self, worker_id: int | None) -> None:
        """Pool restart listener (supervisor thread): a restarted worker
        is cold, so its affinity pins are void — new placements go
        least-loaded and re-pin.  ``None`` means a backend degrade
        replaced every worker."""
        def purge() -> None:
            if worker_id is None:
                self._affinity.clear()
                return
            for route in [r for r, w in self._affinity.items()
                          if w == worker_id]:
                del self._affinity[route]
        loop = self._loop
        if loop is None or loop.is_closed():
            purge()
            return
        try:
            loop.call_soon_threadsafe(purge)
        except RuntimeError:        # pragma: no cover - loop shut down
            purge()

    # ------------------------------------------------------- worker side
    def _on_slice(self, request: _Request, outcome: SliceOutcome) -> None:
        """One slice outcome, on a pool-owned thread."""
        loop = self._loop
        if request.state in TERMINAL_STATES:
            return
        if outcome.status == WORKER_DIED:
            # Supervision-synthesized: the worker hosting this request
            # died (outcome.error says how).  Recovery runs on the loop.
            loop.call_soon_threadsafe(self._recover, request, outcome.error)
            return
        if request.state in (QUEUED, RETRYING):
            request.state = RUNNING
        if outcome.error is not None:
            loop.call_soon_threadsafe(self._fail, request, outcome.error)
            return
        if outcome.checkpoint is not None:
            # The newest replay point; anything before it never needs
            # re-executing.
            request.checkpoint = outcome.checkpoint
            request.checkpoint_visited = \
                outcome.stats.visited if outcome.stats is not None else 0
        if outcome.stats is not None:
            request.last_visited = outcome.stats.visited
            if self.pool.backend_name == "processes":
                # Refresh the loop-side shell so handle.session.stats
                # tracks the search living in the worker process.  (On
                # the thread tier the hosted session *is* the shell —
                # don't replace the stats object under the running step
                # loop.)
                request.session.stats = outcome.stats
        for query in outcome.new_queries:
            loop.call_soon_threadsafe(
                request.stream_queue.put_nowait, query)
        if outcome.done:
            state = TIMED_OUT if outcome.timed_out else (
                CANCELLED if outcome.status == "cancelled" else DONE)
            loop.call_soon_threadsafe(self._finalize, request,
                                      outcome.result, state)
        elif request.session.config.workers > 1 \
                and self.pool.idle_workers(exclude=request.worker_id) > 0:
            # Idle capacity and the request asked for parallelism: next
            # turn re-dispatches the remaining lanes at a round boundary.
            self.pool.run(outcome.request_id)
        else:
            # Back of this worker's queue: other live requests pinned
            # here get their slice before our next one.
            self.pool.step(outcome.request_id)

    # ---------------------------------------------------------- recovery
    def _recover(self, request: _Request, error: str | None) -> None:
        """Replay a request whose worker died, from its latest checkpoint
        (loop thread).  Determinism makes this transparent: the replayed
        session re-executes the lost pops and produces the byte-identical
        ranked result the dead worker would have."""
        if request.state in TERMINAL_STATES:
            return
        request.errors.append(error or "worker died")
        if request.checkpoint is None:
            self._fail(request,
                       "worker died and the session has no checkpoint to "
                       "replay:\n" + "\n---\n".join(request.errors))
            return
        if request.retries >= self.config.max_retries:
            self._fail(request,
                       f"retry budget exhausted "
                       f"({self.config.max_retries} replay"
                       f"{'' if self.config.max_retries == 1 else 's'}); "
                       f"worker errors were:\n"
                       + "\n---\n".join(request.errors))
            return
        request.retries += 1
        self._retries_total += 1
        self._replayed_pops += max(
            0, request.last_visited - request.checkpoint_visited)
        request.state = RETRYING
        try:
            resumed = SynthesisSession.resume(request.checkpoint,
                                              env=request.session.env)
        except Exception as exc:
            self._fail(request, f"checkpoint replay failed: {exc!r}; "
                       "worker errors were:\n"
                       + "\n---\n".join(request.errors))
            return
        if request.cancel_requested:
            # Cancel-during-recovery: the intent survives the crash.
            resumed.cancel()
        request.session = resumed
        request.last_visited = request.checkpoint_visited
        worker = self._healthy_worker()
        request.worker_id = worker
        # Re-pin this shape's affinity: the old pin pointed at state
        # that died with the worker.
        route = (warm_key(resumed.config, resumed.abstraction_spec),
                 request.env_key)
        if resumed.abstraction_spec is not None:
            self._affinity[route] = worker
        try:
            request.request_id = self.pool.submit_request(
                resumed, worker_id=worker,
                slice_pops=self.config.slice_pops,
                deadline=request.deadline, env_key=request.env_key,
                on_slice=lambda outcome: self._on_slice(request, outcome))
        except Exception as exc:
            self._fail(request, f"re-dispatch after worker death failed: "
                       f"{exc!r}")

    def _cancel(self, request: _Request) -> None:
        # Flag the shell session (covers the thread tier, where it is
        # the live search, and keeps handle.status honest) and the pool
        # side (covers a process-hosted copy mid-slice).  The sticky
        # flag covers recovery: a replayed session is re-cancelled
        # before re-dispatch.
        request.cancel_requested = True
        request.session.cancel()
        if request.request_id is not None:
            self.pool.cancel(request.request_id)

    def _finalize(self, request: _Request, result: SynthesisResult,
                  state: str) -> None:
        if request.state in TERMINAL_STATES:
            return      # terminal states are sticky (late-outcome race)
        request.state = state
        self._live.discard(request)
        if request.retries > 0:
            self._recovered += 1
        if not request.future.done():
            request.future.set_result(result)
        request.stream_queue.put_nowait(_EOS)

    def _fail(self, request: _Request, error: str) -> None:
        if request.state in TERMINAL_STATES:
            return      # terminal states are sticky (late-outcome race)
        request.state = FAILED
        self._live.discard(request)
        if not request.future.done():
            request.future.set_exception(
                RuntimeError(f"request failed on worker "
                             f"{request.worker_id}:\n{error}"))
        request.stream_queue.put_nowait(_EOS)

    # --------------------------------------------------------- telemetry
    def health(self) -> dict:
        """Operator snapshot: live-request states, recovery counters, and
        the pool's per-worker liveness (the CLI ``serve`` surface)."""
        states: dict[str, int] = {}
        for request in list(self._live):
            states[request.state] = states.get(request.state, 0) + 1
        return {
            "live_requests": len(self._live),
            "states": states,
            "retries": self._retries_total,
            "recovered_requests": self._recovered,
            "replayed_pops": self._replayed_pops,
            "pool": self.pool.health(),
        }
