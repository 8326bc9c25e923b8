"""Resumable synthesis sessions: first-class, picklable search state.

A :class:`SynthesisSession` turns Algorithm 1 from a closure over the
runner into an object owning the whole search state — the worklist
lanes, :class:`~repro.synthesis.enumerator.SearchStats`, the
consistent queries found so far and the engine/abstraction handles — with
a small lifecycle API:

``start()``
    Seed the skeleton lanes (idempotent; ``step`` auto-starts).  The shape
    precheck runs once per operator sequence against the demonstration's
    distinct function paths; skeletons of a rejected sequence are never
    built, yet each is charged as a visited-and-pruned query.
``step(max_pops=..., timeout_s=...)``
    Advance the serial search loop by a bounded slice and report the
    consistent queries it surfaced.  An expansion pushes its siblings as
    one lazy family entry, filled one sibling per pop (see
    :class:`~repro.synthesis.enumerator._Worklist`).  A session driven to
    completion in one unbounded ``step()`` visits byte-for-byte the
    sequence the classic serial loop visits — same ranked queries, same
    ``SearchStats``.
``checkpoint() / resume(blob)``
    Snapshot the session to bytes / rebuild it anywhere.  Checkpointing is
    side-effect free: the live session keeps stepping and its counters are
    not perturbed (see the engine-stats accounting below).  Evaluation
    caches are deliberately *not* part of a checkpoint — they trade time,
    never results, so a resumed session recomputes them and still produces
    byte-identical ranked queries and search counters.
``run()``
    Drive to completion.  With ``config.workers > 1`` the remaining work
    is dispatched to the sharded search (:mod:`repro.parallel`) on one
    path: the session seeds its lanes (a no-op once started), aligns the
    worklist to a *round boundary* (the round-based replay merge's
    precondition; a freshly seeded worklist already sits on one) and ships
    the live lanes with their current stacks.  The result is byte-identical
    to the serial run — the determinism pledge survives preemption.
``start_shard(lanes, token)``
    Seed a shard of a sharded run: a session over the lanes it was dealt,
    running this same ``step`` loop and recording each lane's pop outcomes.
``cancel()``
    Stop at the next pop.  Cancellation is one round-limit token
    (:meth:`set_cancel_token`) that every shard shares: the step loop
    stops before a pop of a round past its limit.  ``cancel()`` proposes
    round 0; a shard that stops on a hit or ``top_n`` proposes its round.

Engine accounting.  A session evaluates through whatever engine is
attached (:meth:`attach_engine`) — its own fresh one by default, or a
*warm* engine handed over by a :mod:`repro.serve` pool worker.  Because a
warm engine's lifetime counters include other sessions' traffic, the
session records a baseline snapshot at attach time and reports only the
delta, folding it into an accumulated base whenever the engine is swapped
(re-dispatch onto another worker) or the session is checkpointed.  The
fold at checkpoint time happens in the *blob*, never in the live session —
taking a checkpoint twice, or continuing after one, can therefore never
double-count ``EngineStats`` counters such as ``consistency_checks``.
"""

from __future__ import annotations

import pickle
from collections.abc import Sequence
from functools import partial

from dataclasses import dataclass, field

from repro.abstraction.base import Abstraction, check_abstraction
from repro.engine.base import EngineStats, EvalEngine, make_engine
from repro.lang import ast
from repro.provenance.demo import Demonstration
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.enumerator import (
    POP_CONSISTENT,
    POP_EXPANDED,
    SearchStats,
    SynthesisResult,
    _Worklist,
    admit_skeleton,
    process_pop,
)
from repro.synthesis.ranking import rank_queries
from repro.synthesis.shape import demo_function_paths, sequence_feasible
from repro.synthesis.skeletons import construct_skeletons, count_skeletons
from repro.synthesis.stop import StopSpec, as_stop_spec
from repro.table.table import Table
from repro.util.timer import Deadline, Stopwatch

#: Checkpoint format version; bumped whenever the pickled state layout
#: changes so a stale blob fails loudly instead of resuming garbage.
CHECKPOINT_VERSION = 4

#: Session lifecycle phases.
NEW = "new"          # constructed; lanes not seeded yet
ACTIVE = "active"    # lanes seeded, work remaining
DONE = "done"        # search ended (target / top_n / exhausted / budget)


@dataclass
class StepReport:
    """What one ``step`` slice accomplished."""

    pops: int                        # queries popped during this slice
    new_queries: list = field(default_factory=list)  # consistent, this slice
    done: bool = False               # no further stepping possible
    status: str = ACTIVE             # "new" | "active" | "done" | "cancelled"


class SynthesisSession:
    """One synthesis request as a resumable object; see the module doc."""

    def __init__(self, tables: Sequence[Table] | ast.Env,
                 demo: Demonstration,
                 config: SynthesisConfig | None = None,
                 abstraction: str | Abstraction = "provenance",
                 stop: StopSpec | None = None) -> None:
        if isinstance(abstraction, str):
            check_abstraction(abstraction)
        self.env = tables if isinstance(tables, ast.Env) \
            else ast.Env(tuple(tables))
        self.demo = demo
        self.config = config or SynthesisConfig()
        #: Technique name when known — required for checkpoint/resume and
        #: for sharded dispatch (workers rebuild the abstraction from it).
        self.abstraction_spec = abstraction \
            if isinstance(abstraction, str) else None
        self.stop_spec = as_stop_spec(stop)
        self.stats = SearchStats()
        self._phase = NEW
        self._cancelled = False
        self._queries: list[ast.Query] = []      # discovery order
        self._target: ast.Query | None = None
        self._target_rank: int | None = None
        self._worklist: _Worklist | None = None
        self._elapsed = 0.0                      # accumulated across slices
        self._engine_base = EngineStats()        # folded ex-engine traffic
        self._raw_stats: SearchStats | None = None   # sharded-dispatch raw
        self._workers_used = 1
        # Runtime handles — rebuilt on demand, never pickled.
        self._engine: EvalEngine | None = None
        self._engine_mark = EngineStats()        # baseline at attach time
        self._abstraction: Abstraction | None = None \
            if isinstance(abstraction, str) else abstraction
        self._stop_built = None
        self._cancel_token = None                # shared round limit, if any
        self._pop_hook = None                    # per-pop callback, if any
        self._lane_events: dict | None = None    # per-lane trace, shards only

    # ------------------------------------------------------------ lifecycle
    @property
    def status(self) -> str:
        return "cancelled" if self._cancelled else self._phase

    @property
    def done(self) -> bool:
        return self._cancelled or self._phase == DONE

    def start(self) -> None:
        """Seed the skeleton lanes (idempotent)."""
        if self._phase != NEW:
            return
        watch = Stopwatch()
        cfg, stats = self.config, self.stats
        self._worklist = _Worklist()
        admit = partial(sequence_feasible,
                        paths=demo_function_paths(self.demo)) \
            if cfg.shape_precheck else None
        skeletons = construct_skeletons(self.env, cfg, admit)
        # Skeletons of rejected sequences are never built, but each still
        # counts as a visited-and-pruned query.
        stats.skeletons = count_skeletons(self.env, cfg)
        rejected = stats.skeletons - len(skeletons)
        stats.visited += rejected
        stats.pruned += rejected
        for skeleton in skeletons:
            admit_skeleton(skeleton, stats)
            self._worklist.add_lane(skeleton)
        self._phase = ACTIVE if self._worklist else DONE
        if self._phase == DONE:
            self._worklist = None
        self._elapsed += watch.elapsed()

    def start_shard(self, lanes, token) -> None:
        """Seed the ``(lane_id, stack)`` pairs a sharded run dealt here.

        The dealing session admitted and counted the lanes' skeletons, so
        counters and rounds start from zero.  ``token`` is the run's shared
        round limit; the session records each lane's pop outcomes
        (:meth:`lane_events`) and proposes its round on a hit or ``top_n``.
        """
        self._worklist = _Worklist.from_lanes(lanes)
        self._lane_events = {lane_id: [] for lane_id, _ in lanes}
        self._cancel_token = token
        self._phase = ACTIVE if self._worklist else DONE

    def lane_events(self) -> list[tuple[int, list, bool]]:
        """A shard's ``(lane_id, events, drained)`` per lane, lane order:
        the lane's ``process_pop`` outcomes, a consistent query recorded
        as ``(query, stop_hit)``, and whether the lane has drained."""
        worklist = self._worklist
        return [(lane_id, events, worklist.drained(lane_id))
                for lane_id, events in self._lane_events.items()]

    def step(self, max_pops: int | None = None,
             timeout_s: float | None = None) -> StepReport:
        """Advance the serial loop by at most ``max_pops`` pops.

        ``timeout_s`` bounds this slice's wall clock (preemption — the
        session stays resumable); the *run-wide* ``config.timeout_s`` and
        ``config.max_visited`` budgets keep their classic semantics and
        end the search with ``timed_out`` exactly as the one-shot loop
        does.  With neither bound, one call drives the session to
        completion — byte-identical to the classic serial run.
        """
        if self._cancelled:
            return StepReport(0, [], True, self.status)
        if self._phase == NEW:
            self.start()
        if self._phase == DONE:
            return StepReport(0, [], True, self.status)
        watch = Stopwatch()
        cfg = self.config
        budget = self._remaining_deadline()
        slice_deadline = Deadline(timeout_s)
        self._ensure_runtime()
        engine, abstraction = self._engine, self._abstraction
        stop = self._stop_built
        worklist, stats = self._worklist, self.stats
        hook = self._pop_hook
        events = self._lane_events
        new_queries: list[ast.Query] = []
        pops = 0
        try:
            while worklist:
                # Run-ending checks first; the preemption checks below
                # them are invisible to an uninterrupted run.
                if self._halted(budget):
                    break
                if max_pops is not None and pops >= max_pops:
                    break
                if slice_deadline.expired():
                    break
                lane_id, query = worklist.pop()
                pops += 1
                if hook is not None:
                    hook()
                outcome, entries = process_pop(
                    query, self.env, self.demo, cfg, abstraction, engine,
                    stats)
                if outcome is POP_CONSISTENT:
                    self._queries.append(query)
                    new_queries.append(query)
                    hit = stop is not None and stop(query)
                    if events is not None:
                        events[lane_id].append((query, hit))
                    if hit:
                        self._target = query
                        self._target_rank = len(self._queries)
                    if hit or (stop is None
                               and stats.consistent_found >= cfg.top_n):
                        if events is not None:
                            # The global cutoff lands at or before this
                            # shard's, so siblings stop after this round.
                            self._cancel_token.propose(worklist.round)
                        self._finish()
                        break
                    continue
                if events is not None:
                    events[lane_id].append(outcome)
                if outcome is POP_EXPANDED:
                    for entry in entries:
                        worklist.push(entry, lane_id)
            else:
                self._finish()          # worklist drained
        finally:
            self._elapsed += watch.elapsed()
        return StepReport(pops, new_queries, self.done, self.status)

    def run(self) -> SynthesisResult:
        """Drive the session to completion and return the ranked result.

        ``config.workers > 1`` dispatches the remaining work to the
        sharded search; results are byte-identical to serial however much
        of the session was already consumed by ``step``.
        """
        if self.done:
            return self.result()
        if self.config.workers > 1:
            if self.abstraction_spec is None:
                raise ValueError(
                    "workers > 1 requires the abstraction to be given by "
                    "name (workers rebuild it per shard); pass e.g. "
                    "'provenance' instead of a pre-built Abstraction "
                    "object")
            self._run_sharded()
        else:
            self.step()
        return self.result()

    def cancel(self) -> None:
        """Stop at the next pop; in-flight shard workers stop with us."""
        self._cancelled = True
        token = self._cancel_token
        if token is not None:
            token.propose(0)

    def set_cancel_token(self, token) -> None:
        """Share this session's cancellation through a round-limit token.

        ``token`` offers ``limit()`` and ``propose(round)`` (a
        :class:`~repro.parallel.executor.CancelToken`); the session is
        cancelled once ``limit() == 0``.  :meth:`cancel` proposes 0, the
        step loop polls ``limit()`` once per pop, and a sharded run hands
        the token to every shard.  A process-backed serving worker
        installs its request's shared-memory slot here, so a cancel issued
        in the service process lands mid-slice and in fanned-out shards
        alike.  Runtime-only state — never checkpointed."""
        self._cancel_token = token

    def set_pop_hook(self, hook) -> None:
        """Run a zero-argument callable once per pop inside ``step``.

        The hook observes, delays or aborts the loop — it must not touch
        search state (the determinism pledge is not its to spend).  The
        serving tier's fault injector uses it to realize mid-slice
        crashes and hangs at an exact, replayable pop.  Runtime-only
        state — never checkpointed; ``None`` clears it."""
        self._pop_hook = hook

    def _halted(self, budget: Deadline) -> bool:
        """The serial loop's pre-pop checks, in its exact order.

        A spent run-wide budget ends the search with ``timed_out``; a
        cancel (direct or through the token) stops it.  Needs no engine,
        so the sharded dispatch can run the same checks without building
        the runtime of a session the calling process never pops.
        """
        cfg = self.config
        if budget.expired() or (cfg.max_visited is not None
                                and self.stats.visited >= cfg.max_visited):
            self.stats.timed_out = True
            self._finish()
            return True
        return self._poll_cancel()

    def _poll_cancel(self) -> bool:
        """Whether to stop before the next pop: the token's limit lies
        before the next pop's round.

        A limit of 0 is a cancel, adopted from any holder of the token.  A
        positive limit is a sibling shard's stop round: the merge consumes
        nothing past it, so this shard's search ends there.
        """
        token = self._cancel_token
        if self._cancelled or token is None:
            return self._cancelled
        limit = token.limit()
        if limit >= self._worklist.next_round():
            return False
        if limit == 0:
            self._cancelled = True
        else:
            self._finish()
        return True

    def _finish(self) -> None:
        self._phase = DONE
        if self._lane_events is None:   # a shard's lanes outlive its search
            self._worklist = None

    # ------------------------------------------------------------- results
    def result(self, ranked: bool = True) -> SynthesisResult:
        """Snapshot the session outcome (partial while still active)."""
        queries = list(self._queries)
        if ranked:
            queries = rank_queries(queries)
        stats = SearchStats(**self.stats.as_dict())
        stats.elapsed_s = self._elapsed
        raw = self._raw_stats
        return SynthesisResult(
            queries=queries, stats=stats, target=self._target,
            target_rank=self._target_rank, workers=self._workers_used,
            engine_stats=self.engine_stats(),
            raw_stats=SearchStats(**raw.as_dict()) if raw else None)

    def engine_stats(self) -> EngineStats:
        """This session's evaluation traffic: folded base + live delta.

        The live engine's counters are never folded into the base while
        the engine stays attached, so calling this (or ``checkpoint``)
        any number of times cannot double-count.
        """
        if self._engine is None:
            return self._engine_base.snapshot()
        return EngineStats.merge(
            self._engine_base,
            EngineStats.delta(self._engine.stats, self._engine_mark))

    # ------------------------------------------------------------- runtime
    def attach_engine(self, engine: EvalEngine,
                      abstraction: Abstraction | None = None) -> None:
        """Adopt an engine (possibly warm) for subsequent evaluation.

        The outgoing engine's stats delta is folded into the session base
        first, and a baseline snapshot of the incoming engine pins where
        this session's accounting starts — a pool worker can hand the same
        warm engine to many sessions and each reports only its own slice.
        ``abstraction`` supplies a matching pre-built technique instance;
        without one the session builds (or keeps) its own and rebinds it.
        """
        self._fold_engine()
        self._engine = engine
        self._engine_mark = engine.stats.snapshot()
        if abstraction is not None:
            self._abstraction = abstraction
        elif self._abstraction is None:
            from repro.synthesis.synthesizer import build_abstraction
            self._abstraction = build_abstraction(self.abstraction_spec,
                                                  self.config)
        self._abstraction.bind_engine(engine)
        self._stop_built = None

    def _fold_engine(self) -> None:
        if self._engine is not None:
            self._engine_base = EngineStats.merge(
                self._engine_base,
                EngineStats.delta(self._engine.stats, self._engine_mark))
            self._engine = None
            self._engine_mark = EngineStats()
            self._stop_built = None

    def _ensure_runtime(self) -> None:
        if self._engine is None:
            self.attach_engine(make_engine(self.config.backend))
        if self._stop_built is None and self.stop_spec is not None:
            self._stop_built = self.stop_spec.build(self._engine, self.env)

    def _remaining_deadline(self) -> Deadline:
        if self.config.timeout_s is None:
            return Deadline(None)
        return Deadline(max(0.0, self.config.timeout_s - self._elapsed))

    # ------------------------------------------------------------- sharded
    def _run_sharded(self) -> None:
        """Dispatch the session's live lanes onto shard workers.

        Every ``workers > 1`` run takes this path.  ``start`` seeds the
        lanes in the calling process (skeleton construction and the shape
        precheck, charged once against the budget).  The replay merge is
        round-based, so a partially stepped worklist is first driven
        (serially) to a round boundary; a freshly seeded one already sits
        on one, so the calling process builds no engine, abstraction or
        stop predicate for it.  The live lanes then ship with their
        current stacks and the merge replays the continuation as if the
        serial loop had never paused.  Every shard shares the session's
        cancel token (a fresh one unless a host installed its own).
        """
        self.start()
        while not self.done and not self._worklist.at_round_boundary():
            self.step(max_pops=1)
        # A run the serial loop would end before its next pop (drained,
        # budget spent, cancelled) ends here, before any dispatch.
        if self.done or self._halted(self._remaining_deadline()):
            self._workers_used = self.config.workers
            self._raw_stats = SearchStats(**self.stats.as_dict())
            return
        from repro.parallel.coordinator import parallel_resume
        from repro.parallel.executor import CancelToken

        token = self._cancel_token
        if token is None:
            token = self._cancel_token = CancelToken()
        if self._cancelled:             # cancel() raced the dispatch
            token.propose(0)
        pre = SearchStats(**self.stats.as_dict())
        base = SynthesisResult(queries=self._queries, stats=self.stats)
        watch = Stopwatch()
        try:
            result = parallel_resume(
                self._worklist.export_lanes(), self.env, self.demo,
                self.config, self._remaining_config(), self.abstraction_spec,
                self.stop_spec, base, token)
        finally:
            self._elapsed += watch.elapsed()
        self._poll_cancel()
        self._adopt_sharded(result,
                            SearchStats.merge(pre, result.raw_stats))

    def _adopt_sharded(self, result: SynthesisResult,
                       raw: SearchStats | None) -> None:
        self.stats = result.stats
        self._queries = list(result.queries)
        self._target = result.target
        self._target_rank = result.target_rank
        self._raw_stats = raw
        self._engine_base = EngineStats.merge(self._engine_base,
                                              result.engine_stats)
        self._workers_used = self.config.workers
        self._finish()

    def _remaining_config(self) -> SynthesisConfig:
        """Budgets left for the shard workers (worker-local counters start
        at zero, so run-wide budgets ship as their unconsumed remainder;
        the replay merge still cuts off against the *original* config and
        the cumulative counters)."""
        cfg = self.config
        overrides: dict = {}
        if cfg.timeout_s is not None:
            overrides["timeout_s"] = max(0.0, cfg.timeout_s - self._elapsed)
        if cfg.max_visited is not None:
            overrides["max_visited"] = max(
                1, cfg.max_visited - self.stats.visited)
        if self.stop_spec is None:
            overrides["top_n"] = max(
                1, cfg.top_n - self.stats.consistent_found)
        return cfg.replace(**overrides) if overrides else cfg

    # -------------------------------------------------- checkpoint / resume
    def checkpoint(self, strip_env: bool = False) -> bytes:
        """Serialize the session to a resumable blob (side-effect free).

        ``strip_env=True`` omits the input environment from the blob —
        the format of the serving tier's slice-boundary replay points,
        which the service already holds the tables for, so no slice
        outcome re-ships them.  A stripped blob must be resumed with
        ``resume(blob, env=...)`` supplying an ``==``-identical
        environment.
        """
        if not strip_env:
            return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        state = self.__getstate__()
        state["env"] = None
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def resume(blob: bytes, env: ast.Env | None = None) -> "SynthesisSession":
        """Rebuild a session from :meth:`checkpoint` output.

        The resumed session owns no engine yet — the next ``step`` builds
        a fresh one, or a pool worker attaches a warm one.  ``env``
        re-attaches the environment of an env-stripped blob (and must
        compare equal to the original; engine cache keys are
        equality-based, so an equal environment preserves byte-identical
        results).
        """
        loaded = pickle.loads(blob)
        if isinstance(loaded, dict):
            session = SynthesisSession.__new__(SynthesisSession)
            session.__setstate__(loaded)
        elif isinstance(loaded, SynthesisSession):
            session = loaded
        else:
            raise TypeError(
                f"not a SynthesisSession checkpoint: {type(loaded).__name__}")
        if session.env is None:
            if env is None:
                raise ValueError(
                    "checkpoint was taken with strip_env=True; resume() "
                    "needs the env= argument to re-attach the tables")
            session.env = env
        return session

    def __getstate__(self):
        if self.abstraction_spec is None:
            raise TypeError(
                "a SynthesisSession built around a pre-built Abstraction "
                "object cannot be pickled/checkpointed — construct it with "
                "the technique name (e.g. 'provenance') so workers can "
                "rebuild the abstraction")
        return {
            "version": CHECKPOINT_VERSION,
            "env": self.env,
            "demo": self.demo,
            "config": self.config,
            "abstraction_spec": self.abstraction_spec,
            "stop_spec": self.stop_spec,
            "phase": self._phase,
            "cancelled": self._cancelled,
            "worklist": self._worklist,
            "stats": self.stats,
            "queries": self._queries,
            "target": self._target,
            "target_rank": self._target_rank,
            "elapsed": self._elapsed,
            # Folded into the blob only — the live session's base/mark
            # stay untouched, which is what makes checkpoint idempotent.
            "engine_base": self.engine_stats(),
            "raw_stats": self._raw_stats,
            "workers_used": self._workers_used,
        }

    def __setstate__(self, state) -> None:
        version = state.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported SynthesisSession checkpoint version "
                f"{version!r} (expected {CHECKPOINT_VERSION})")
        self.env = state["env"]
        self.demo = state["demo"]
        self.config = state["config"]
        self.abstraction_spec = state["abstraction_spec"]
        self.stop_spec = state["stop_spec"]
        self._phase = state["phase"]
        self._cancelled = state["cancelled"]
        self._worklist = state["worklist"]
        self.stats = state["stats"]
        self._queries = state["queries"]
        self._target = state["target"]
        self._target_rank = state["target_rank"]
        self._elapsed = state["elapsed"]
        self._engine_base = state["engine_base"]
        self._raw_stats = state["raw_stats"]
        self._workers_used = state["workers_used"]
        self._engine = None
        self._engine_mark = EngineStats()
        self._abstraction = None
        self._stop_built = None
        self._cancel_token = None
        self._pop_hook = None
        self._lane_events = None

    def __repr__(self) -> str:
        return (f"SynthesisSession(status={self.status!r}, "
                f"visited={self.stats.visited}, "
                f"found={len(self._queries)})")
