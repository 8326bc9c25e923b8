"""The sharded-search entry point: plan → workers → deterministic merge."""

from __future__ import annotations

from repro.engine.base import EngineStats
from repro.lang import ast
from repro.parallel.executor import run_payloads, run_shards
from repro.parallel.merge import replay_merge
from repro.parallel.planner import ShardPlanner, estimated_lane_cost
from repro.provenance.demo import Demonstration
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.enumerator import SearchStats, SynthesisResult
from repro.synthesis.skeletons import construct_skeletons
from repro.synthesis.stop import StopSpec
from repro.util.timer import Stopwatch


def parallel_enumerate(env: ast.Env, demo: Demonstration,
                       config: SynthesisConfig, abstraction_spec: str,
                       stop_spec: StopSpec | None = None,
                       cancel_export=None,
                       ) -> SynthesisResult:
    """Run Algorithm 1 sharded across ``config.workers`` workers.

    Queries are returned in serial discovery order (the caller ranks them,
    exactly as after ``enumerate_queries``); ``result.stats`` carries the
    serial-equivalent counters, ``result.raw_stats`` the total work the
    shards actually performed, and ``result.engine_stats`` the summed
    cache traffic of every worker's engine.  ``cancel_export`` receives
    the run's shared cancel token (a live session's cancellation hook).
    """
    if config.strategy != "sized_dfs":
        raise ValueError("sharded search requires strategy='sized_dfs'")
    watch = Stopwatch()
    skeletons = construct_skeletons(env, config)
    plan = ShardPlanner(config.workers).plan(skeletons)
    outcomes = run_shards(plan, skeletons, env, demo, config,
                                    abstraction_spec, stop_spec,
                                    executor=config.parallel_executor,
                                    cancel_export=cancel_export)
    result = replay_merge(outcomes, config, has_stop=stop_spec is not None)
    result.workers = config.workers
    result.raw_stats = SearchStats.merge(*(o.stats for o in outcomes))
    result.engine_stats = EngineStats.merge(*(o.engine_stats for o in outcomes))
    result.stats.elapsed_s = watch.elapsed()
    return result


def parallel_resume(lanes, env: ast.Env, demo: Demonstration,
                    config: SynthesisConfig, run_config: SynthesisConfig,
                    abstraction_spec: str, stop_spec: StopSpec | None,
                    base: SynthesisResult, cancel_export=None,
                    ) -> SynthesisResult:
    """Continue a partially consumed serial search on shard workers.

    ``lanes`` is a session worklist exported at a round boundary
    (``(lane_id, stack)`` pairs, seed order); ``base`` carries the prefix
    already searched serially — its queries and counters.  The live stacks
    are sharded by their *remaining* estimated cost (a half-drained lane is
    cheaper than its skeleton suggests), searched seeded, and the replay
    merge extends ``base`` to exactly the state the uninterrupted serial
    run would have reached.

    ``config`` is the original run's config (merge cutoffs are run-wide);
    ``run_config`` is what the workers execute under — the caller shrinks
    its budgets to the unconsumed remainder, since worker-local counters
    restart at zero.
    """
    if config.strategy != "sized_dfs":
        raise ValueError("sharded search requires strategy='sized_dfs'")
    watch = Stopwatch()
    costs = [sum(estimated_lane_cost(query) for query in stack)
             for _, stack in lanes]
    plan = ShardPlanner(config.workers).plan_weighted(
        costs, [lane_id for lane_id, _ in lanes])
    payloads = [tuple(lanes[idx] for idx in shard) for shard in plan.shards]
    outcomes = run_payloads(payloads, env, demo, run_config,
                                      abstraction_spec, stop_spec,
                                      executor=run_config.parallel_executor,
                                      seeded=True,
                                      cancel_export=cancel_export)
    result = replay_merge(outcomes, config, has_stop=stop_spec is not None,
                          base=base)
    result.workers = config.workers
    result.raw_stats = SearchStats.merge(*(o.stats for o in outcomes))
    result.engine_stats = EngineStats.merge(*(o.engine_stats for o in outcomes))
    result.stats.elapsed_s = watch.elapsed()
    return result
