"""Run shard workers: one OS process per shard, or in-process.

The two vehicles share the worker function and the cancel-token protocol,
so they are semantically interchangeable — ``serial`` is the reference the
process executor must match (and the differential tests hold it to it):

* ``process`` — true parallelism; workers are forked where available
  (payloads inherited, no pickling) and spawned otherwise (payloads,
  input tables included, must pickle — use
  :class:`~repro.synthesis.stop.StopSpec` rather than bare closures).
  Results always travel back pickled through a queue.
* ``serial`` — shards run one after another in the calling thread.

``REPRO_START_METHOD`` forces the process start method (the CI spawn job).

Cancellation is a single shared *round limit*: when a worker's stop
predicate fires in round ``r`` it proposes ``r``; the limit is the minimum
of all proposals and every worker stops once it has completed that round —
the earliest point at which the merge provably needs no further events.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback

from repro.parallel.planner import ShardPlan
from repro.parallel.worker import ShardOutcome, run_shard
from repro.util.timer import Deadline

#: "No limit yet" sentinel — far beyond any reachable round count.
NO_LIMIT = 2 ** 62


class CancelToken:
    """In-process shared round limit (serial executor)."""

    def __init__(self) -> None:
        self._limit = NO_LIMIT
        self._lock = threading.Lock()

    def limit(self) -> int:
        return self._limit

    def propose(self, round_no: int) -> None:
        with self._lock:
            if round_no < self._limit:
                self._limit = round_no


class ProcessCancelToken:
    """Cross-process shared round limit backed by a synchronized Value."""

    def __init__(self, ctx) -> None:
        self._value = ctx.Value("q", NO_LIMIT)

    def limit(self) -> int:
        # Locked read: a torn 64-bit load (32-bit platforms) racing a
        # propose() could mix NO_LIMIT's and a proposal's halves into a
        # bogus tiny limit and stop a worker before it covered anything.
        with self._value.get_lock():
            return self._value.value

    def propose(self, round_no: int) -> None:
        with self._value.get_lock():
            if round_no < self._value.value:
                self._value.value = round_no


def _guarded_run_shard(shard_id, lanes, env, demo, config, abstraction_spec,
                       stop_spec, cancel, deadline,
                       seeded=False) -> ShardOutcome:
    """run_shard that reports failures instead of raising (or vanishing)."""
    try:
        return run_shard(shard_id, lanes, env, demo, config,
                         abstraction_spec, stop_spec, cancel, deadline,
                         seeded=seeded)
    except Exception:
        return ShardOutcome(shard_id, error=traceback.format_exc())


def _process_main(shard_id, lanes, env, demo, config, abstraction_spec,
                  stop_spec, cancel, deadline, seeded, queue) -> None:
    queue.put(_guarded_run_shard(shard_id, lanes, env, demo, config,
                                 abstraction_spec, stop_spec, cancel,
                                 deadline, seeded))


def run_shards(plan: ShardPlan, skeletons, env, demo, config,
               abstraction_spec: str, stop_spec, executor: str | None = None,
               cancel_export=None) -> list[ShardOutcome]:
    """Execute every shard in ``plan``; outcomes ordered by shard id.

    ``skeletons`` is the canonical ``construct_skeletons`` list the plan
    indexes into; each shard receives its own ``(lane_id, skeleton)``
    payload so workers never recompute the enumeration.
    """
    payloads = [tuple((lane, skeletons[lane]) for lane in shard)
                for shard in plan.shards]
    return run_payloads(payloads, env, demo, config, abstraction_spec,
                        stop_spec, executor=executor,
                        cancel_export=cancel_export)


def run_payloads(payloads, env, demo, config, abstraction_spec: str,
                 stop_spec, executor: str | None = None, seeded: bool = False,
                 cancel_export=None) -> list[ShardOutcome]:
    """Execute pre-built shard payloads; outcomes ordered by shard id.

    ``payloads[i]`` is shard ``i``'s lane tuple — ``(lane_id, skeleton)``
    pairs normally, ``(lane_id, stack)`` pairs under ``seeded=True`` (a
    resumed session's exported worklist; see
    :func:`repro.parallel.worker.run_shard`).  ``cancel_export``, when
    given, receives the run's shared cancel token as soon as it exists —
    the hook a live :class:`~repro.synthesis.session.SynthesisSession`
    uses to propagate ``cancel()`` into in-flight workers.
    """
    executor = executor or config.parallel_executor
    # One wall-clock budget for the whole run: the serial executor's shards
    # run one after another and must share it, not each start afresh.
    # time.monotonic is system-wide on the platforms with fork, so the
    # absolute expiry crosses process boundaries intact.
    deadline = Deadline(config.timeout_s)
    if executor == "process":
        outcomes = _run_processes(payloads, env, demo, config,
                                  abstraction_spec, stop_spec, deadline,
                                  seeded, cancel_export)
    elif executor == "serial":
        cancel = CancelToken()
        if cancel_export is not None:
            cancel_export(cancel)
        outcomes = [_guarded_run_shard(i, lanes, env, demo, config,
                                       abstraction_spec, stop_spec, cancel,
                                       deadline, seeded)
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


def pick_context(methods=None, start_method: str | None = None):
    """The multiprocessing context for worker processes.

    fork inherits the payload (tables, demo, closures) for free; spawn is
    the portable fallback and needs every argument picklable.  An explicit
    ``start_method`` wins (the serving pool's differential tests
    parametrize it); otherwise ``REPRO_START_METHOD`` forces a method (the
    CI spawn job runs the differential suite under it) when the platform
    supports it.  Shared by the shard executor and the serving pool's
    process backend so both tiers resolve the method identically.
    """
    if methods is None:
        methods = multiprocessing.get_all_start_methods()
    if start_method is not None:
        if start_method not in methods:
            raise ValueError(f"start method {start_method!r} not supported "
                             f"here (have {sorted(methods)})")
        return multiprocessing.get_context(start_method)
    forced = os.environ.get("REPRO_START_METHOD", "").strip().lower()
    if forced in methods:
        return multiprocessing.get_context(forced)
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


_pick_context = pick_context


def _run_processes(payloads, env, demo, config, abstraction_spec,
                   stop_spec, deadline, seeded,
                   cancel_export) -> list[ShardOutcome]:
    ctx = _pick_context(multiprocessing.get_all_start_methods())
    cancel = ProcessCancelToken(ctx)
    if cancel_export is not None:
        cancel_export(cancel)
    queue = ctx.SimpleQueue()

    def spawn(i: int):
        proc = ctx.Process(
            target=_process_main,
            args=(i, payloads[i], env, demo, config, abstraction_spec,
                  stop_spec, cancel, deadline, seeded, queue),
            daemon=True)
        proc.start()
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
