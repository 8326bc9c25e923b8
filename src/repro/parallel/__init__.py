"""Sharded parallel synthesis (``SynthesisConfig.workers > 1``).

Every sharded run starts from a :class:`~repro.synthesis.session.
SynthesisSession` that seeded its lanes in the calling process (skeleton
construction and the shape precheck) and, when it was already stepped,
reached a worklist round boundary.  The session's live lanes are dealt to
shards by a :class:`ShardPlanner` (:func:`plan_lanes`).  Each shard is a
session of its own over the lanes it was dealt (:mod:`repro.parallel.
worker`): it runs the same ``step`` loop on its own evaluation engine and
records each lane's pop outcomes.  The per-lane traces are replayed onto
the dispatching session's state in the exact serial search order
(:mod:`repro.parallel.merge`) — ranked output and search counters are
byte-identical to the serial run regardless of worker count, shard plan
or completion order.

Layering: this package sits beside ``repro.experiments``, *above*
``repro.synthesis`` — it deals, runs and merges sessions and never
reaches around the serial loop.

::

      session.start(): skeletons ─► shape precheck ─► live lanes
                                                          │
                     ┌────────────── ShardPlanner ────────▼─────┐
                     │ shard 0        shard 1      …    shard N │
                     └────┬──────────────┬──────────────────┬───┘
                          ▼              ▼                  ▼
                   shard session   shard session  …   shard session
                    .step() on      .step() on         .step() on
                    own engine      own engine         own engine
                          │              │                  │
                          ├──── one round-limit CancelToken ┤
                          │              │                  │
                          └── per-lane event traces + stats ┘
                                         ▼
                      replay merge onto the session (serial order)
                                         ▼
                      ranked queries + SearchStats.merge telemetry
"""

from repro.parallel.coordinator import parallel_resume, plan_lanes
from repro.parallel.executor import CancelToken, NO_LIMIT, run_payloads
from repro.parallel.merge import replay_merge
from repro.parallel.planner import ShardPlan, ShardPlanner, estimated_lane_cost
from repro.parallel.worker import LaneTrace, ShardOutcome, run_shard

__all__ = [
    "parallel_resume", "plan_lanes",
    "ShardPlanner", "ShardPlan", "estimated_lane_cost",
    "run_payloads", "run_shard", "CancelToken", "NO_LIMIT",
    "LaneTrace", "ShardOutcome", "replay_merge",
]
