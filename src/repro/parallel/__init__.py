"""Sharded parallel synthesis (``SynthesisConfig.workers > 1``).

The skeleton worklist is partitioned by a :class:`ShardPlanner`, each shard
is searched by a worker owning its own evaluation engine
(:mod:`repro.parallel.worker`), and the per-lane event traces are replayed
into the exact serial search order (:mod:`repro.parallel.merge`) — ranked
output and search counters are byte-identical to the serial run regardless
of worker count, shard plan or completion order.

Layering: this package sits beside ``repro.experiments``, *above*
``repro.synthesis`` — it orchestrates the serial building blocks
(skeleton construction, hole domains, consistency checks) and never
reaches around them.

::

                     ┌────────────── ShardPlanner ──────────────┐
      skeletons ──►  │ shard 0        shard 1      …    shard N │
                     └────┬──────────────┬──────────────────┬───┘
                          ▼              ▼                  ▼
                     worker 0        worker 1     …     worker N
                    (own engine)    (own engine)       (own engine)
                          │              │                  │
                          └── per-lane event traces + stats ┘
                                         ▼
                            replay merge (serial order)
                                         ▼
                      ranked queries + SearchStats.merge telemetry
"""

from repro.parallel.coordinator import parallel_enumerate, parallel_resume
from repro.parallel.executor import CancelToken, NO_LIMIT, run_payloads, \
    run_shards
from repro.parallel.merge import replay_merge
from repro.parallel.planner import ShardPlan, ShardPlanner, estimated_lane_cost
from repro.parallel.worker import LaneTrace, ShardOutcome, run_shard

__all__ = [
    "parallel_enumerate", "parallel_resume",
    "ShardPlanner", "ShardPlan", "estimated_lane_cost",
    "run_shards", "run_payloads", "run_shard", "CancelToken", "NO_LIMIT",
    "LaneTrace", "ShardOutcome", "replay_merge",
]
