"""One shard's search: a :class:`~repro.synthesis.session.SynthesisSession`
over the lanes it was dealt.

A shard runs the serial loop itself (``SynthesisSession.step``), seeded
with the ``(lane_id, stack)`` pairs of its lanes (``start_shard``), on its
own :class:`~repro.engine.base.EvalEngine` and abstraction instance
(rebuilt from the technique name), so no evaluation state crosses worker
boundaries.  That ownership extends to the engine's incremental
consistency checker: its counters ride in the shard's
:class:`~repro.engine.base.EngineStats`, which the coordinator folds with
``EngineStats.merge`` like any other cache traffic.

The serial round-robin restricted to a lane subset is the subset's own
round-robin, so each lane's recorded pop outcomes are exactly what the
serial run would see of that lane; the coordinator replays them into the
exact serial search (see :mod:`repro.parallel.merge`).  A shard stops
where a serial session over its lanes would (``top_n``, a stop-predicate
hit, drained lanes, budget), and also before any round past the run's
shared :class:`~repro.parallel.executor.CancelToken` limit: a sibling's
hit or ``top_n`` round, or 0 for a cancel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.base import EngineStats
from repro.provenance.demo import Demonstration
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.enumerator import SearchStats
from repro.synthesis.session import SynthesisSession
from repro.synthesis.stop import StopSpec
from repro.util.timer import Deadline


@dataclass
class LaneTrace:
    """Everything the merge needs to replay one lane's visits in order."""

    lane: int                       # the session's lane id
    events: list = field(default_factory=list)
    exhausted: bool = False         # lane fully drained (vs worker stopped)


@dataclass
class ShardOutcome:
    """One worker's full report back to the coordinator."""

    shard_id: int
    traces: list[LaneTrace] = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)
    engine_stats: EngineStats = field(default_factory=EngineStats)
    error: str | None = None        # traceback text when the worker failed


def run_shard(shard_id: int, lanes, env, demo: Demonstration,
              config: SynthesisConfig, abstraction_spec: str,
              stop_spec: StopSpec | None, cancel,
              deadline: Deadline | None = None) -> ShardOutcome:
    """Search ``lanes`` — ``(lane_id, stack)`` pairs in ascending lane
    order — to the shard-local stopping point.

    The stacks are live worklist lanes exported from a session at a round
    boundary; that session already admitted (and counted) their
    skeletons, so each lane resumes exactly where the serial loop paused.
    ``cancel`` is the run's shared round limit; pass a fresh
    :class:`~repro.parallel.executor.CancelToken` for independent runs.
    ``deadline`` is the *run-wide* wall-clock budget shared by every shard
    (one ``timeout_s`` for the whole run, however shards are scheduled):
    the shard's own budget is what is left of it when the shard starts.
    """
    if deadline is not None:
        config = config.replace(timeout_s=deadline.remaining())
    session = SynthesisSession(env, demo, config, abstraction_spec,
                               stop_spec)
    session.start_shard(lanes, cancel)
    session.step()
    result = session.result(ranked=False)
    return ShardOutcome(
        shard_id,
        traces=[LaneTrace(lane, events, drained)
                for lane, events, drained in session.lane_events()],
        stats=result.stats, engine_stats=result.engine_stats)
