"""One shard's search: an independent worklist over a subset of lanes.

Each worker owns its own :class:`~repro.engine.base.EvalEngine` and
abstraction instance (rebuilt from the technique name), so no evaluation
state crosses worker boundaries — the property the engine layer was built
to guarantee.  That ownership extends to the engine's incremental
consistency checker (``engine.consistency``): each worker gets its own
verdict cache and column match-state memo, and the checker's counters ride
in the worker's :class:`~repro.engine.base.EngineStats`, which the
coordinator folds with ``EngineStats.merge`` like any other cache traffic.

The loop is the ``sized_dfs`` strategy of ``enumerate_queries`` made
*round-explicit*: lanes are swept in ascending canonical order, each live
lane popped exactly once per round, depth-first within a lane.  That is
byte-for-byte the order the serial worklist visits these lanes in (the
serial round-robin restricted to any lane subset is the subset's own
round-robin), which is what lets the coordinator replay the recorded
per-lane event traces into the exact serial search (see
:mod:`repro.parallel.merge`).

A worker stops on its own when

* it has found ``top_n`` consistent queries among its lanes (no shard needs
  more: the global run stops at ``top_n`` *total*, so any subset's
  contribution to the serial prefix is at most ``top_n``),
* its ``stop_predicate`` fires,
* its lanes exhaust, or its visited/wall-clock budget expires.

On both the ``top_n`` and predicate stops the worker proposes its stopping
round to the shared :mod:`~repro.parallel.executor` cancel token: the
global cutoff provably lands at or before that round, so sibling shards
stop as soon as they have covered it instead of searching to their own
stopping points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.base import EngineStats, make_engine
from repro.lang import ast
from repro.provenance.demo import Demonstration
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.enumerator import (
    POP_CONSISTENT,
    POP_EXPANDED,
    POP_PRUNED,
    SearchStats,
    admit_skeleton,
    process_pop,
)
from repro.synthesis.stop import StopSpec
from repro.synthesis.synthesizer import build_abstraction
from repro.util.timer import Deadline, Stopwatch

# Per-pop trace events.  Non-consistent outcomes are bare ints (compact to
# pickle); a consistent query is a (query, predicate_hit) tuple.
EV_PRUNED = 0           # rejected by the abstraction
EV_EXPANDED = 1         # holes branched
EV_INCONSISTENT = 2     # concrete, failed the ≺ check


@dataclass
class LaneTrace:
    """Everything the merge needs to replay one lane's visits in order."""

    lane: int                       # canonical skeleton index
    events: list = field(default_factory=list)
    exhausted: bool = False         # lane fully drained (vs worker stopped)


@dataclass
class ShardOutcome:
    """One worker's full report back to the coordinator."""

    shard_id: int
    traces: list[LaneTrace] = field(default_factory=list)
    shape_pruned: int = 0           # skeletons rejected by the shape precheck
    stats: SearchStats = field(default_factory=SearchStats)
    engine_stats: EngineStats = field(default_factory=EngineStats)
    error: str | None = None        # traceback text when the worker failed


def run_shard(shard_id: int, lanes, env, demo: Demonstration,
              config: SynthesisConfig, abstraction_spec: str,
              stop_spec: StopSpec | None, cancel,
              deadline: Deadline | None = None,
              seeded: bool = False) -> ShardOutcome:
    """Search ``lanes`` — ``(lane_id, skeleton)`` pairs in ascending
    canonical order — to the shard-local stopping point.

    With ``seeded=True`` the lanes arrive as ``(lane_id, stack)`` pairs —
    live worklist stacks exported from a partially stepped
    :class:`~repro.synthesis.session.SynthesisSession` at a round
    boundary.  Seeded lanes skip skeleton admission (they were admitted,
    and counted, when the session first seeded them) and resume exactly
    where the serial loop paused.

    ``cancel`` is the executor's shared cancel token (``limit()`` /
    ``propose(round)``); pass an unlimited token for independent runs.
    ``deadline`` is the *run-wide* wall-clock budget shared by every shard
    (one ``timeout_s`` for the whole run, however shards are scheduled);
    each worker starts its own when none is given.
    """
    watch = Stopwatch()
    if deadline is None:
        deadline = Deadline(config.timeout_s)
    engine = make_engine(config.backend)
    abstraction = build_abstraction(abstraction_spec, config)
    abstraction.bind_engine(engine)
    stop = None if stop_spec is None else stop_spec.build(engine, env)

    outcome = ShardOutcome(shard_id)
    stats = outcome.stats

    # Seed this shard's lanes (ascending canonical order).
    active: list[tuple[LaneTrace, list[ast.Query]]] = []
    if seeded:
        # Resumed stacks: admission (and the skeleton count) happened when
        # the session originally seeded these lanes; the merge's cumulative
        # base already carries it.
        for lane_id, stack in lanes:
            trace = LaneTrace(lane_id)
            outcome.traces.append(trace)
            active.append((trace, list(stack)))
    else:
        stats.skeletons = len(lanes)
        for lane_id, skeleton in lanes:
            if admit_skeleton(skeleton, demo, config, stats) is None:
                outcome.shape_pruned += 1
                continue
            trace = LaneTrace(lane_id)
            outcome.traces.append(trace)
            active.append((trace, [skeleton]))

    round_no = 0
    stopping = False
    while active and not stopping:
        round_no += 1
        if round_no > cancel.limit():
            # A sibling shard found its target at or before this round and
            # the merge will never consume events beyond it.  Lanes keep
            # exhausted=False: their traces are (sufficient) prefixes.
            break
        survivors: list[tuple[LaneTrace, list[ast.Query]]] = []
        for trace, stack in active:
            if deadline.expired():
                stats.timed_out = True
                stopping = True
                break
            if config.max_visited is not None \
                    and stats.visited >= config.max_visited:
                stats.timed_out = True
                stopping = True
                break
            query = stack.pop()
            pop_outcome, expansions = process_pop(query, env, demo, config,
                                                  abstraction, engine, stats)
            if pop_outcome is POP_CONSISTENT:
                hit = stop is not None and stop(query)
                trace.events.append((query, hit))
                if hit:
                    cancel.propose(round_no)
                    if not stack:
                        trace.exhausted = True
                    stopping = True
                    break
                if stop is None and stats.consistent_found >= config.top_n:
                    # Same coverage argument as the predicate hit: the
                    # global top_n cutoff lands at or before this shard's —
                    # its own top_n consistents are all consumed by then —
                    # so siblings need not search past this round either.
                    cancel.propose(round_no)
                    if not stack:
                        trace.exhausted = True
                    stopping = True
                    break
            elif pop_outcome is POP_EXPANDED:
                trace.events.append(EV_EXPANDED)
                # Reversed for the LIFO stack: domain order is preserved.
                for expansion in reversed(expansions):
                    stack.append(expansion)
            elif pop_outcome is POP_PRUNED:
                trace.events.append(EV_PRUNED)
            else:
                trace.events.append(EV_INCONSISTENT)

            if stack:
                survivors.append((trace, stack))
            else:
                trace.exhausted = True
        active = survivors if not stopping else []

    stats.elapsed_s = watch.elapsed()
    outcome.engine_stats = engine.stats
    return outcome
