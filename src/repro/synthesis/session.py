"""Resumable synthesis sessions: first-class, picklable search state.

A :class:`SynthesisSession` turns Algorithm 1 from a closure over the
runner into an object owning the whole search state — the ``sized_dfs``
worklist lanes, :class:`~repro.synthesis.enumerator.SearchStats`, the
consistent queries found so far and the engine/abstraction handles — with
a small lifecycle API:

``start()``
    Seed the skeleton lanes (idempotent; ``step`` auto-starts).
``step(max_pops=..., timeout_s=...)``
    Advance the serial search loop by a bounded slice and report the
    consistent queries it surfaced.  A session driven to completion in one
    unbounded ``step()`` visits byte-for-byte the sequence the classic
    serial loop visits — same ranked queries, same ``SearchStats``.
``checkpoint() / resume(blob)``
    Snapshot the session to bytes / rebuild it anywhere.  Checkpointing is
    side-effect free: the live session keeps stepping and its counters are
    not perturbed (see the engine-stats accounting below).  Evaluation
    caches are deliberately *not* part of a checkpoint — they trade time,
    never results, so a resumed session recomputes them and still produces
    byte-identical ranked queries and search counters.
``run()``
    Drive to completion.  With ``config.workers > 1`` the remaining work
    is dispatched to the sharded search (:mod:`repro.parallel`): a fresh
    session takes the classic shard-plan path, a partially stepped one is
    first aligned to a worklist *round boundary* (the round-based replay
    merge's precondition) and its live lanes are re-dispatched with their
    current stacks.  Either way the result is byte-identical to the serial
    run — the determinism pledge survives preemption.
``cancel()``
    Stop at the next pop; propagated to in-flight shard workers through
    the executor's shared cancel token.

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

from dataclasses import dataclass, field

from repro.abstraction.base import Abstraction
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
from repro.synthesis.skeletons import construct_skeletons
from repro.synthesis.stop import StopSpec, as_stop_spec
from repro.table.table import Table
from repro.util.timer import Deadline, Stopwatch

#: Checkpoint format version; bumped whenever the pickled state layout
#: changes so a stale blob fails loudly instead of resuming garbage.
CHECKPOINT_VERSION = 1

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
        self._live_cancel = None                 # shard cancel token, if any
        self._cancel_probe = None                # external cancel flag, if any
        self._pop_hook = None                    # per-pop callback, if any

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
        self._worklist = _Worklist(self.config.strategy)
        skeletons = construct_skeletons(self.env, self.config)
        self.stats.skeletons = len(skeletons)
        for skeleton in skeletons:
            size = admit_skeleton(skeleton, self.demo, self.config,
                                  self.stats)
            if size is not None:
                self._worklist.add_lane(skeleton, size)
        self._phase = ACTIVE if self._worklist else DONE
        if self._phase == DONE:
            self._worklist = None
        self._elapsed += watch.elapsed()

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
        probe = self._cancel_probe
        hook = self._pop_hook
        new_queries: list[ast.Query] = []
        pops = 0
        try:
            while worklist:
                # Run-ending checks first, in the serial loop's exact
                # order; the preemption checks below them are invisible to
                # an uninterrupted run.
                if budget.expired():
                    stats.timed_out = True
                    self._finish()
                    break
                if cfg.max_visited is not None \
                        and stats.visited >= cfg.max_visited:
                    stats.timed_out = True
                    self._finish()
                    break
                if probe is not None and probe() and not self._cancelled:
                    self.cancel()
                if self._cancelled:
                    break
                if max_pops is not None and pops >= max_pops:
                    break
                if slice_deadline.expired():
                    break
                size, lane_id, query = worklist.pop()
                pops += 1
                if hook is not None:
                    hook()
                outcome, expansions = process_pop(
                    query, self.env, self.demo, cfg, abstraction, engine,
                    stats)
                if outcome is POP_CONSISTENT:
                    self._queries.append(query)
                    new_queries.append(query)
                    if stop is not None and stop(query):
                        self._target = query
                        self._target_rank = len(self._queries)
                        self._finish()
                        break
                    if stop is None and \
                            stats.consistent_found >= cfg.top_n:
                        self._finish()
                        break
                elif outcome is POP_EXPANDED:
                    # Reversed for LIFO lanes: explored in domain order.
                    if cfg.strategy == "bfs":
                        for expansion in expansions:
                            worklist.push(expansion, size, lane_id)
                    else:
                        for expansion in reversed(expansions):
                            worklist.push(expansion, size, lane_id)
            else:
                self._finish()          # worklist drained
        finally:
            self._elapsed += watch.elapsed()
        return StepReport(pops, new_queries, self.done, self.status)

    def run(self) -> SynthesisResult:
        """Drive the session to completion and return the ranked result.

        ``config.workers > 1`` dispatches the remaining work to the
        sharded search; results are byte-identical to serial whichever
        path executes (and however much of the session was already
        consumed by ``step``).
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
            if self._phase == NEW:
                self._run_sharded_fresh()
            else:
                self._run_sharded_resume()
        else:
            self.step()
        return self.result()

    def cancel(self) -> None:
        """Stop at the next pop; in-flight shard workers stop with us."""
        self._cancelled = True
        live = self._live_cancel
        if live is not None:
            live.propose(0)

    def set_cancel_probe(self, probe) -> None:
        """Watch an external cancellation flag from inside the step loop.

        ``probe`` is a zero-argument callable polled once per pop; the
        first truthy return behaves exactly like :meth:`cancel`.  This is
        how a process-backed serving worker honors a cancel issued in the
        service process mid-slice: the flag is a shared-memory value the
        service flips, no queue round-trip involved.  Runtime-only state —
        never checkpointed."""
        self._cancel_probe = probe

    def set_pop_hook(self, hook) -> None:
        """Run a zero-argument callable once per pop inside ``step``.

        The hook observes, delays or aborts the loop — it must not touch
        search state (the determinism pledge is not its to spend).  The
        serving tier's fault injector uses it to realize mid-slice
        crashes and hangs at an exact, replayable pop.  Runtime-only
        state — never checkpointed; ``None`` clears it."""
        self._pop_hook = hook

    def _finish(self) -> None:
        self._phase = DONE
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
    def _export_cancel(self, token) -> None:
        self._live_cancel = token
        if self._cancelled:             # cancel() raced the dispatch
            token.propose(0)

    def _run_sharded_fresh(self) -> None:
        from repro.parallel import parallel_enumerate

        watch = Stopwatch()
        try:
            result = parallel_enumerate(
                self.env, self.demo, self.config, self.abstraction_spec,
                self.stop_spec, cancel_export=self._export_cancel)
        finally:
            self._live_cancel = None
            self._elapsed += watch.elapsed()
        self._adopt_sharded(result, result.raw_stats)

    def _run_sharded_resume(self) -> None:
        """Re-dispatch a partially stepped session onto shard workers.

        The replay merge is round-based, so the worklist is first driven
        (serially) to a round boundary; the live lanes then ship with
        their current stacks and the merge replays the continuation as if
        the serial loop had never paused.
        """
        # A zero-pop step performs exactly the serial pre-pop budget
        # checks, so an already-exhausted budget ends the session here
        # the same way the serial loop would — before any dispatch.
        self.step(max_pops=0)
        while not self.done and not self._worklist.at_round_boundary():
            self.step(max_pops=1)
        if self.done:
            return
        lanes = self._worklist.export_lanes()
        if not lanes:
            self._finish()
            return
        from repro.parallel.coordinator import parallel_resume

        pre = SearchStats(**self.stats.as_dict())
        base = SynthesisResult(queries=self._queries, stats=self.stats)
        watch = Stopwatch()
        try:
            result = parallel_resume(
                lanes, self.env, self.demo, self.config,
                self._remaining_config(), self.abstraction_spec,
                self.stop_spec, base, cancel_export=self._export_cancel)
        finally:
            self._live_cancel = None
            self._elapsed += watch.elapsed()
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
        self._live_cancel = None
        self._cancel_probe = None
        self._pop_hook = None

    def __repr__(self) -> str:
        return (f"SynthesisSession(status={self.status!r}, "
                f"visited={self.stats.visited}, "
                f"found={len(self._queries)})")
