"""Deterministic merge: replay shard traces into the serial search.

Why this works.  The serial worklist pops round-robin over lanes in seed
(size) order, and a lane's own pop sequence is fully determined by the
lane alone — expansions push back onto the same lane, so interleaving
with other lanes never changes what the lane yields.  Every
lane is therefore popped exactly once per *round* until it drains, and the
serial visit order is precisely::

    round 1: lane 0, lane 1, ... (every live lane, ascending)
    round 2: lane 0, lane 1, ...           (drained lanes drop out)
    ...

Each worker records its lanes' per-pop outcomes (events: ``process_pop``'s
``POP_*`` names, a consistent query as ``(query, stop_hit)``) in exactly
that lane-local order.  Replaying rounds over the union of all traces —
lanes ascending within a round, applying the serial loop's stopping rules
(``top_n`` / stop-predicate hit / visited budget) event by event — thus
reconstructs the serial run's visit sequence, consistent-query discovery
order and counters *byte-for-byte*, no matter how many shards produced the
traces or in which order they finished.

Workers overshoot the serial stopping point (each shard keeps searching
until its own stopping rule fires); the replay simply never consumes the
excess.  Two escapes leave a lane's trace short of the serial prefix: a
wall-clock expiry inside a worker, which the replay reports as a timeout —
exactly what the serial run does when the clock, rather than the search,
decides the outcome — and a cancel, where the replay stops without one,
as a cancelled serial run does.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.synthesis.config import SynthesisConfig
from repro.synthesis.enumerator import (
    POP_EXPANDED,
    POP_INCONSISTENT,
    POP_PRUNED,
    SynthesisResult,
)
from repro.parallel.worker import LaneTrace, ShardOutcome


def replay_merge(outcomes: Sequence[ShardOutcome], config: SynthesisConfig,
                 has_stop: bool, base: SynthesisResult) -> SynthesisResult:
    """Fold shard outcomes into the serial-equivalent SynthesisResult.

    ``base`` is the seeded :class:`~repro.synthesis.session.
    SynthesisSession` the shards continue, dispatched at a round boundary:
    its queries and counters (seeding, plus any serially stepped prefix)
    are the prefix the replayed continuation extends, so the budget and
    ``top_n`` cutoffs below fire against the *cumulative* state — exactly
    where the uninterrupted serial loop would have stopped.  ``base`` is
    extended in place and returned.  ``config`` is the original run's
    config (the dispatch hands its workers a remaining-budget variant, but
    the cutoffs here are run-wide).
    """
    result = base
    stats = result.stats
    # Lanes of shards whose own budget expired: only their truncated
    # traces mean a timeout (any other truncation is a cancel).
    expired = {t.lane for o in outcomes if o.stats.timed_out
               for t in o.traces}
    lanes: list[LaneTrace] = sorted(
        (t for o in outcomes for t in o.traces), key=lambda t: t.lane)
    cursor = [0] * len(lanes)
    live = list(range(len(lanes)))

    stop = False
    while live and not stop:
        survivors: list[int] = []
        for idx in live:
            trace = lanes[idx]
            if cursor[idx] >= len(trace.events):
                if trace.exhausted:
                    continue        # lane drained — drop, like the worklist
                # Truncated trace: the worker's wall clock expired, or the
                # run was cancelled, before it covered the serial prefix.
                # Serial would still be running; all we can faithfully
                # report is that budget expiry (or the cancel) here.
                if trace.lane in expired:
                    stats.timed_out = True
                stop = True
                break
            if config.max_visited is not None \
                    and stats.visited >= config.max_visited:
                stats.timed_out = True
                stop = True
                break
            event = trace.events[cursor[idx]]
            cursor[idx] += 1
            stats.visited += 1
            if isinstance(event, tuple):            # consistent query
                query, hit = event
                stats.concrete_checked += 1
                stats.consistent_found += 1
                result.queries.append(query)
                if has_stop and hit:
                    result.target = query
                    result.target_rank = len(result.queries)
                    stop = True
                    break
                if not has_stop and stats.consistent_found >= config.top_n:
                    stop = True
                    break
            elif event == POP_PRUNED:
                stats.pruned += 1
            elif event == POP_EXPANDED:
                stats.expanded += 1
            elif event == POP_INCONSISTENT:
                stats.concrete_checked += 1
            else:                                   # pragma: no cover
                raise ValueError(f"unknown trace event {event!r}")
            survivors.append(idx)
        if not stop:
            live = survivors
    return result
