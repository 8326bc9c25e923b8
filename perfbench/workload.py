"""Set up and run one workload through ``repro.api``.

A :class:`Runner` owns one workload in one process: ``setup`` imports
nothing new (the caller has imported this module, and with it
``repro.api``), loads the task registry, builds the inputs and runs one
discarded warm-up operation; ``measure`` runs the seeded passes and
returns one record per operation; ``check`` verifies every record's
output.  The serving workload does the same inside an event loop, with
the service started (and every pool worker warmed) during set-up.
"""

from __future__ import annotations

import asyncio
import gc
import random
import time

import repro.api as api
from repro.benchmarks import all_tasks
from repro.engine.base import EngineStats

from checks import OracleCheck, check_operation, load_golden
from specs import SMOKE_TASKS, Workload

clock = time.perf_counter


def select_tasks(workload: Workload, smoke: bool) -> list:
    if workload.tasks == "hard":
        tasks = [t for t in all_tasks() if t.difficulty == "hard"]
    else:
        # Multi-operator forum-easy tasks (fe20-fe43): single-operator
        # ones finish in milliseconds and would crowd the percentiles.
        tasks = [t for t in all_tasks()
                 if t.difficulty == "easy" and t.operators_required >= 2]
    return tasks[:SMOKE_TASKS] if smoke else tasks


def pass_order(tasks: list, seed: int, pass_index: int) -> list:
    order = list(tasks)
    random.Random(f"{seed}/{pass_index}").shuffle(order)
    return order


class FirstHitStop(api.StopSpec):
    """Stop at ``q_gt``, noting when the first consistent query surfaced.

    The stop predicate runs on every consistent query the search finds,
    so its first call marks the time to first consistent query.  Only
    observable when the predicate runs in this process (serial search).
    """

    def __init__(self, ground_truth) -> None:
        self.inner = api.GroundTruthStop(ground_truth)
        self.first_at: float | None = None

    def build(self, engine, env):
        predicate = self.inner.build(engine, env)

        def timed(query):
            if self.first_at is None:
                self.first_at = clock()
            return predicate(query)
        return timed


class Runner:
    """One workload in this process; see the module doc."""

    def __init__(self, workload: Workload, seed: int, workers: int,
                 smoke: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.workers = workers
        self.smoke = smoke
        self.tracer = None          # a layers.Tracer during traced passes
        self.tasks: list = []
        self.results: list = []     # (record, result, task) per operation

    # ------------------------------------------------------------- set-up
    def setup(self) -> None:
        self.tasks = select_tasks(self.workload, self.smoke)
        for task in self.tasks:
            task.demonstration      # generated once, memoized on the task
        self.run_op(self.tasks[0], -1)      # discarded warm-up
        self.results.clear()
        # Set-up's objects live for the whole run: move them out of the
        # collector's view.  The operations' own garbage is still
        # collected whenever the collector runs, inside the timed region.
        gc.collect()
        gc.freeze()

    def config(self, task):
        workers = self.workers if self.workload.kind == "shard" else 1
        return task.config.replace(max_visited=self.workload.budget,
                                   workers=workers)

    # ---------------------------------------------------------- measuring
    def measure(self, passes: int) -> list[dict]:
        """Run ``passes`` seeded passes; one record per operation."""
        op = 0
        for pass_index in range(passes):
            for task in pass_order(self.tasks, self.seed, pass_index):
                self.run_op(task, op)
                op += 1
        return [record for record, _, _ in self.results]

    def run_op(self, task, op: int) -> None:
        workload = self.workload
        serial = workload.kind == "serial"
        stop = FirstHitStop(task.ground_truth) if serial \
            else api.GroundTruthStop(task.ground_truth)
        tracer = self.tracer
        start = clock()
        if tracer is not None:
            tracer.op_id = op
            result = tracer.traced(self._search, "op")(task, stop)
        else:
            result = self._search(task, stop)
        end = clock()
        latency = end - start
        # The caller first hears back with the first consistent query, or
        # with the result when the search ends without one.  Shard workers
        # are opaque: there the merged result is the first response.
        first = latency
        if serial and stop.first_at is not None:
            first = stop.first_at - start
        self._keep(task, op, result, latency, first)

    def _search(self, task, stop):
        synthesizer = api.Synthesizer(self.workload.technique,
                                      self.config(task))
        session = synthesizer.session(task.tables, task.demonstration, stop)
        return session.run()

    def _keep(self, task, op: int, result, latency: float,
              first: float, **extra) -> None:
        raw = result.raw_stats or result.stats
        record = {
            "op": op, "task": task.name,
            "technique": self.workload.technique,
            "budget": self.workload.budget, "mode": self.workload.mode,
            "latency_s": latency, "first_query_s": first,
            "search_s": result.stats.elapsed_s,
            "visited": result.stats.visited, "raw_visited": raw.visited,
        }
        record.update(extra)
        self.results.append((record, result, task))

    def engine_stats(self) -> EngineStats:
        """The program's evaluation counters summed over the operations."""
        return EngineStats.merge(*(result.engine_stats
                                   for _, result, _ in self.results
                                   if result.engine_stats is not None))

    # ----------------------------------------------------------- checking
    def check(self, golden: dict | None = None) -> list[dict]:
        """Verify every operation's output (outside any timed region)."""
        golden = load_golden() if golden is None else golden
        with OracleCheck() as oracle:
            for record, result, task in self.results:
                check_operation(record, result, task, golden, oracle)
        return [record for record, _, _ in self.results]


class ServeRunner(Runner):
    """Closed loop of one client per worker on a process-backed service."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.service = None
        self.telemetry: dict = {}
        self.window_s = 0.0

    def start(self) -> None:
        """Set-up part one: the service, with every pool worker alive."""
        self.tasks = select_tasks(self.workload, self.smoke)
        for task in self.tasks:
            task.demonstration
        self.service = api.SynthesisService(api.ServiceConfig(
            pool_size=self.workers, pool_backend="processes",
            max_requests=max(8, self.workers)))

    async def warm(self) -> None:
        """Set-up part two: one discarded request pinned to each worker."""
        task = self.tasks[0]
        handles = [self.service.submit(
            task.tables, task.demonstration, config=self.config(task),
            technique=self.workload.technique, worker=worker)
            for worker in range(self.workers)]
        for handle in handles:
            await handle.result()
        gc.collect()        # as in Runner.setup
        gc.freeze()

    async def measure_async(self, passes: int) -> list[dict]:
        requests = [task for pass_index in range(passes)
                    for task in pass_order(self.tasks, self.seed, pass_index)]
        pending = iter(enumerate(requests))
        before = self.service.pool.telemetry()
        start = clock()
        clients = [asyncio.create_task(self._client(pending))
                   for _ in range(self.workers)]
        for client in clients:
            await client
        self.window_s = clock() - start
        after = self.service.pool.telemetry()
        self.telemetry = {key: after[key] - before[key]
                          for key in ("warm_hits", "warm_misses", "slices")}
        self.results.sort(key=lambda kept: kept[0]["op"])
        return [record for record, _, _ in self.results]

    async def _client(self, pending) -> None:
        for op, task in pending:
            start = clock()
            handle = self.service.submit(
                task.tables, task.demonstration, config=self.config(task),
                technique=self.workload.technique)
            submitted = clock()
            first = None
            async for _ in handle.stream():
                if first is None:
                    first = clock() - start
            result = await handle.result()
            end = clock()
            latency = end - start
            if self.tracer is not None:
                # Requests interleave on the loop, so their spans are
                # recorded whole rather than through the span stack.
                self.tracer.spans.append(("op", start, end, -1, op))
            # The caller first hears back with the first streamed
            # candidate, or with the final result when none streams.
            self._keep(task, op, result, latency,
                       latency if first is None else first,
                       submit_s=submitted - start, retries=handle.retries)

    async def close(self) -> None:
        if self.service is not None:
            await self.service.close()
            self.service = None
