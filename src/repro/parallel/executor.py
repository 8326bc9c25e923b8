"""Run shard workers: one OS process per shard, or in-process.

The two vehicles run the same shard function (a shard session's ``step``)
under the same cancel token, so they are semantically interchangeable —
``serial`` is the reference the process executor must match (and the
differential tests hold it to it):

* ``process`` — true parallelism; workers are forked where available
  (payloads inherited, no pickling) and spawned otherwise (payloads,
  input tables included, must pickle — use
  :class:`~repro.synthesis.stop.StopSpec` rather than bare closures).
  Results always travel back pickled through a queue.
* ``serial`` — shards run one after another in the calling thread.

``REPRO_START_METHOD`` forces the process start method (the CI spawn job).

Cancellation is a single shared *round limit*, a :class:`CancelToken`:
when a shard stops on its stop predicate or on ``top_n`` in round ``r`` it
proposes ``r``; the limit is the minimum of all proposals and every shard
session stops before a pop of a later round — the earliest point at
which the merge provably needs no further events.  A cancel is a proposal
of round 0.  The token is the dispatching session's own
(``SynthesisSession.set_cancel_token``), so ``cancel()`` — from the
caller's thread, or from the service process through a pool worker's
request slot — reaches every shard of either executor.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
import traceback

from repro.parallel.worker import ShardOutcome, run_shard
from repro.util.timer import Deadline

#: "No limit yet" sentinel — far beyond any reachable round count.
NO_LIMIT = 2 ** 62


class CancelToken:
    """A shared round limit: one slot of a shared int64 array.

    ``limit()`` is the minimum round any holder proposed (``NO_LIMIT``
    until one does), so ``limit() == 0`` means cancelled.  The array is
    shared memory, so one token serves a session, the thread that cancels
    it and every shard process alike.  A standalone token owns a fresh
    one-slot array; a serving pool hands each request a slot of its own
    array (:mod:`repro.serve.pool`).
    """

    __slots__ = ("_limits", "_slot")

    def __init__(self, limits=None, slot: int = 0) -> None:
        if limits is None:
            limits = pick_context().Array("q", [NO_LIMIT])
        self._limits = limits
        self._slot = slot

    def limit(self) -> int:
        # Locked read (the synchronized array's indexing takes its lock):
        # a torn 64-bit load on a 32-bit platform racing a propose() could
        # mix NO_LIMIT's and a proposal's halves into a bogus tiny limit
        # and stop a worker before it covered anything.
        return self._limits[self._slot]

    def propose(self, round_no: int) -> None:
        with self._limits.get_lock():
            values = self._limits.get_obj()
            if round_no < values[self._slot]:
                values[self._slot] = round_no


def _guarded_run_shard(shard_id, lanes, env, demo, config, abstraction_spec,
                       stop_spec, cancel, deadline) -> ShardOutcome:
    """run_shard that reports failures instead of raising (or vanishing)."""
    try:
        return run_shard(shard_id, lanes, env, demo, config,
                         abstraction_spec, stop_spec, cancel, deadline)
    except Exception:
        return ShardOutcome(shard_id, error=traceback.format_exc())


def _process_main(shard_id, lanes, env, demo, config, abstraction_spec,
                  stop_spec, cancel, deadline, queue) -> None:
    queue.put(_guarded_run_shard(shard_id, lanes, env, demo, config,
                                 abstraction_spec, stop_spec, cancel,
                                 deadline))


def run_payloads(payloads, env, demo, config, abstraction_spec: str,
                 stop_spec, cancel: CancelToken | None = None,
                 ) -> list[ShardOutcome]:
    """Execute shard payloads; outcomes ordered by shard id.

    ``payloads[i]`` is shard ``i``'s tuple of ``(lane_id, stack)`` pairs —
    live lanes exported from a seeded session (see
    :func:`repro.parallel.worker.run_shard`).  ``cancel`` is the run's
    shared round limit — a live session's own token, so its ``cancel()``
    stops the shards; a fresh one when not given.
    """
    if cancel is None:
        cancel = CancelToken()
    # One wall-clock budget for the whole run: the serial executor's shards
    # run one after another and must share it, not each start afresh.
    # time.monotonic is system-wide on the platforms with fork, so the
    # absolute expiry crosses process boundaries intact.
    deadline = Deadline(config.timeout_s)
    executor = config.parallel_executor
    if executor == "process":
        outcomes = _run_processes(payloads, env, demo, config,
                                  abstraction_spec, stop_spec, deadline,
                                  cancel)
    elif executor == "serial":
        outcomes = [_guarded_run_shard(i, lanes, env, demo, config,
                                       abstraction_spec, stop_spec, cancel,
                                       deadline)
                    for i, lanes in enumerate(payloads)]
    else:
        raise ValueError(f"unknown parallel_executor {executor!r}")

    outcomes.sort(key=lambda o: o.shard_id)
    errors = [o.error for o in outcomes if o.error]
    if errors:
        raise RuntimeError(
            f"{len(errors)} shard worker(s) failed; first failure:\n"
            + errors[0])
    return outcomes


def pick_context():
    """The multiprocessing context for worker processes.

    fork inherits the payload (tables, demo, closures) for free; spawn is
    the portable fallback and needs every argument picklable.
    ``REPRO_START_METHOD`` (the CI matrix hook) forces a method, and an
    unknown or unsupported one raises.  Shared by the shard executor and
    the serving pool's process backend, so a pool and the shards its
    workers fan out to always start the same way.
    """
    methods = multiprocessing.get_all_start_methods()
    forced = os.environ.get("REPRO_START_METHOD", "").strip().lower()
    if not forced:
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
    if forced not in methods:
        raise ValueError(f"REPRO_START_METHOD={forced!r} is not a start "
                         f"method this platform supports; choose from "
                         f"{sorted(methods)}")
    return multiprocessing.get_context(forced)


def _run_processes(payloads, env, demo, config, abstraction_spec,
                   stop_spec, deadline, cancel) -> list[ShardOutcome]:
    ctx = pick_context()
    queue = ctx.SimpleQueue()

    def spawn(i: int):
        proc = ctx.Process(
            target=_process_main,
            args=(i, payloads[i], env, demo, config, abstraction_spec,
                  stop_spec, cancel, deadline, queue),
            daemon=True)
        # Freeze the heap across the fork: a forked worker's collector
        # then never traverses the inherited objects, whose refcount and
        # GC-header writes would copy every touched page and cost each
        # shard CPU the serial run does not spend.  No effect on spawn.
        # Collecting the young generations first keeps their garbage
        # from being promoted to the oldest one when the parent thaws.
        gc.collect(1)
        gc.freeze()
        try:
            proc.start()
        finally:
            gc.unfreeze()
        return proc

    procs = [spawn(i) for i in range(len(payloads))]
    # Drain results before joining: a worker blocked on a full queue
    # never exits, so join-first would deadlock on large traces.  A
    # worker that dies without reporting (OOM kill, segfault, spawn
    # unpickling failure) never enqueues anything — _guarded_run_shard
    # cannot catch those — so poll liveness instead of blocking forever
    # on the queue, and give each crashed shard one re-dispatch.
    outcomes: list[ShardOutcome] = []
    done: set[int] = set()
    retried: set[int] = set()
    while len(done) < len(procs):
        if not queue.empty():
            outcome = queue.get()
            if outcome.shard_id not in done:
                done.add(outcome.shard_id)
                outcomes.append(outcome)
            continue
        crashed = [i for i, proc in enumerate(procs)
                   if i not in done and not proc.is_alive()
                   and proc.exitcode not in (0, None)]
        if crashed:
            if not queue.empty():
                continue    # its result raced in during the scan
            for i in crashed:
                if i in retried:
                    raise RuntimeError(
                        f"shard worker {i} died twice without reporting "
                        f"a result (exit code {procs[i].exitcode})")
                retried.add(i)
                procs[i] = spawn(i)
            continue
        if all(not proc.is_alive() for proc in procs) and queue.empty():
            missing = len(procs) - len(done)
            codes = sorted({proc.exitcode for proc in procs
                            if proc.exitcode not in (0, None)})
            raise RuntimeError(
                f"{missing} shard worker(s) died without reporting a "
                f"result (exit codes: {codes or 'unknown'})")
        time.sleep(0.005)
    for proc in procs:
        proc.join()
    return outcomes
