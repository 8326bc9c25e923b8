"""The sharded-search entry point: plan → workers → deterministic merge."""

from __future__ import annotations

from repro.engine.base import EngineStats
from repro.lang import ast
from repro.parallel.executor import CancelToken, run_payloads
from repro.parallel.merge import replay_merge
from repro.parallel.planner import ShardPlan, ShardPlanner, \
    estimated_lane_cost
from repro.provenance.demo import Demonstration
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.enumerator import SearchStats, SynthesisResult
from repro.synthesis.stop import StopSpec
from repro.util.timer import Stopwatch


def plan_lanes(lanes, workers: int) -> tuple[ShardPlan, list[tuple]]:
    """Deal ``(lane_id, stack)`` pairs to at most ``workers`` shards.

    A lane's cost is the summed estimate of its queued queries (a
    half-drained lane is cheaper than its skeleton suggests); lane ids
    break cost ties.  Returns the plan and each shard's lane payload, in
    ascending lane order.
    """
    costs = [sum(estimated_lane_cost(query) for query in stack)
             for _, stack in lanes]
    plan = ShardPlanner(workers).plan_weighted(
        costs, [lane_id for lane_id, _ in lanes])
    return plan, [tuple(lanes[idx] for idx in shard) for shard in plan.shards]


def parallel_resume(lanes, env: ast.Env, demo: Demonstration,
                    config: SynthesisConfig, run_config: SynthesisConfig,
                    abstraction_spec: str, stop_spec: StopSpec | None,
                    base: SynthesisResult, cancel: CancelToken,
                    ) -> SynthesisResult:
    """Continue a seeded session's search on shard workers.

    ``lanes`` is a session worklist exported at a round boundary
    (``(lane_id, stack)`` pairs, seed order); ``base`` carries what the
    session already did — seeding, plus any serially stepped prefix — as
    its queries and counters.  The live stacks are dealt by
    :func:`plan_lanes`, searched seeded, and the replay merge extends
    ``base`` to exactly the state the uninterrupted serial run would have
    reached.

    ``config`` is the original run's config (merge cutoffs are run-wide);
    ``run_config`` is what the workers execute under — the caller shrinks
    its budgets to the unconsumed remainder, since worker-local counters
    restart at zero.  ``result.raw_stats`` is the shards' own work and
    ``result.engine_stats`` the summed cache traffic of their engines.
    ``cancel`` is the session's cancel token, handed to every shard as
    the run's shared round limit.
    """
    watch = Stopwatch()
    _, payloads = plan_lanes(lanes, config.workers)
    outcomes = run_payloads(payloads, env, demo, run_config,
                            abstraction_spec, stop_spec, cancel)
    result = replay_merge(outcomes, config, has_stop=stop_spec is not None,
                          base=base)
    result.workers = config.workers
    result.raw_stats = SearchStats.merge(*(o.stats for o in outcomes))
    result.engine_stats = EngineStats.merge(*(o.engine_stats for o in outcomes))
    result.stats.elapsed_s = watch.elapsed()
    return result
