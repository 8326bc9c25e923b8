"""Unit tests for the sharded-search building blocks.

Covers the mergeable stats (`SearchStats.merge` / `EngineStats.merge`), the
shard planner (coverage, balance, determinism under permuted input), the
declarative stop specs, the parallel knob validation, the dead-worker
re-dispatch path of the process executor, and pickled dispatch (no
shared-memory segment, no manager process).
"""

import os
import random
from dataclasses import dataclass

import pytest

from repro.benchmarks import get_task
from repro.engine import EngineStats, make_engine
from repro.parallel import ShardPlanner, estimated_lane_cost
from repro.synthesis import (
    CallableStop,
    GroundTruthStop,
    SearchStats,
    StopSpec,
    SynthesisConfig,
    Synthesizer,
    as_stop_spec,
    construct_skeletons,
)


class TestSearchStatsMerge:
    def test_merge_empty_is_zero(self):
        assert SearchStats.merge() == SearchStats()

    def test_merge_single_is_identity(self):
        part = SearchStats(visited=7, pruned=3, expanded=2,
                           concrete_checked=2, consistent_found=1,
                           elapsed_s=0.5, timed_out=False, skeletons=4,
                           max_skeleton_size=3)
        assert SearchStats.merge(part) == part

    def test_merge_many_sums_counters(self):
        a = SearchStats(visited=10, pruned=4, expanded=3, concrete_checked=3,
                        consistent_found=2, skeletons=5)
        b = SearchStats(visited=20, pruned=6, expanded=8, concrete_checked=6,
                        consistent_found=1, skeletons=7)
        c = SearchStats(visited=1, concrete_checked=1)
        merged = SearchStats.merge(a, b, c)
        assert merged.visited == 31
        assert merged.pruned == 10
        assert merged.expanded == 11
        assert merged.concrete_checked == 10
        assert merged.consistent_found == 3
        assert merged.skeletons == 12

    def test_merge_takes_max_depth_and_elapsed(self):
        a = SearchStats(max_skeleton_size=2, elapsed_s=0.25)
        b = SearchStats(max_skeleton_size=3, elapsed_s=0.1)
        merged = SearchStats.merge(a, b)
        assert merged.max_skeleton_size == 3
        assert merged.elapsed_s == 0.25

    def test_merge_ors_timed_out(self):
        assert not SearchStats.merge(SearchStats(), SearchStats()).timed_out
        assert SearchStats.merge(SearchStats(),
                                 SearchStats(timed_out=True)).timed_out

    def test_merge_does_not_mutate_parts(self):
        part = SearchStats(visited=5)
        SearchStats.merge(part, part)
        assert part.visited == 5


class TestEngineStatsMerge:
    def test_merge_sums_counters(self):
        a = EngineStats(concrete_evals=10, concrete_hits=30,
                        tracking_evals=2, tracking_hits=6)
        b = EngineStats(concrete_evals=5, concrete_hits=5)
        merged = EngineStats.merge(a, b)
        assert merged.concrete_evals == 15
        assert merged.concrete_hits == 35
        assert merged.tracking_evals == 2
        assert merged.tracking_hits == 6

    def test_hit_rates(self):
        stats = EngineStats(concrete_evals=25, concrete_hits=75)
        assert stats.concrete_hit_rate == pytest.approx(0.75)
        assert EngineStats().concrete_hit_rate == 0.0
        assert EngineStats().tracking_hit_rate == 0.0


@pytest.fixture(scope="module")
def skeletons():
    task = get_task("fe01_total_sales_per_region")
    return construct_skeletons(task.env, task.config)


class TestShardPlanner:
    def test_plan_partitions_every_lane_once(self, skeletons):
        plan = ShardPlanner(4).plan(skeletons)
        seen = [lane for shard in plan.shards for lane in shard]
        assert sorted(seen) == list(range(len(skeletons)))
        assert all(list(shard) == sorted(shard) for shard in plan.shards)

    def test_more_workers_than_lanes(self, skeletons):
        plan = ShardPlanner(10 * len(skeletons)).plan(skeletons)
        assert plan.n_shards == len(skeletons)
        assert all(len(shard) == 1 for shard in plan.shards)

    def test_empty_skeleton_list(self):
        plan = ShardPlanner(4).plan([])
        assert plan.n_shards == 0
        assert plan.n_lanes == 0

    def test_cost_rr_balances_estimated_cost(self, skeletons):
        plan = ShardPlanner(4).plan(skeletons)
        # Descending-cost round-robin keeps the spread within the largest
        # single lane's cost.
        assert max(plan.costs) - min(plan.costs) <= \
            max(estimated_lane_cost(sk) for sk in skeletons)

    def test_cost_rr_membership_invariant_under_permutation(self, skeletons):
        planner = ShardPlanner(4)
        baseline = planner.plan(skeletons).membership(skeletons)
        rng = random.Random(7)
        for _ in range(3):
            shuffled = list(skeletons)
            rng.shuffle(shuffled)
            assert planner.plan(shuffled).membership(shuffled) == baseline

    def test_plan_is_deterministic(self, skeletons):
        a = ShardPlanner(3).plan(skeletons)
        b = ShardPlanner(3).plan(skeletons)
        assert a == b

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ShardPlanner(0)


class TestStopSpecs:
    def test_ground_truth_stop_builds_engine_bound_predicate(self):
        task = get_task("fe01_total_sales_per_region")
        spec = GroundTruthStop(task.ground_truth)
        predicate = spec.build(make_engine("columnar"), task.env)
        assert predicate(task.ground_truth)

    def test_callable_stop_passes_through(self):
        marker = object()
        spec = CallableStop(lambda q: q is marker)
        predicate = spec.build(None, None)
        assert predicate(marker)

    def test_as_stop_spec_normalization(self):
        assert as_stop_spec(None) is None
        spec = CallableStop(lambda q: True)
        assert as_stop_spec(spec) is spec
        assert isinstance(as_stop_spec(lambda q: True), CallableStop)


class TestParallelConfig:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            SynthesisConfig(workers=0)

    def test_rejects_unknown_executor(self):
        for executor in ("gpu", "thread"):
            with pytest.raises(ValueError):
                SynthesisConfig(parallel_executor=executor)

    def test_rejects_parallel_fifo_strategies(self):
        with pytest.raises(ValueError):
            SynthesisConfig(workers=2, strategy="bfs")

    def test_sharded_run_requires_named_abstraction(self):
        task = get_task("fe01_total_sales_per_region")
        from repro.abstraction.base import make_abstraction
        config = task.config.replace(workers=2, parallel_executor="serial",
                                     timeout_s=None, max_visited=50)
        synthesizer = Synthesizer(make_abstraction("none"), config)
        with pytest.raises(ValueError, match="by name"):
            synthesizer.run(task.tables, task.demonstration)

    def test_sharded_run_rejects_supplied_engine(self):
        task = get_task("fe01_total_sales_per_region")
        config = task.config.replace(workers=2, parallel_executor="serial",
                                     timeout_s=None, max_visited=50)
        synthesizer = Synthesizer("provenance", config,
                                  engine=make_engine("columnar"))
        with pytest.raises(ValueError, match="engine"):
            synthesizer.run(task.tables, task.demonstration)


class TestRunWideBudgets:
    def test_serial_executor_shares_one_wall_clock_budget(self):
        # An unsolvable-within-budget hard task: with per-shard deadlines
        # the 4 serially-executed shards would take ~4x the timeout.
        task = get_task("fh03_revenue_share_of_total")
        timeout = 0.4
        config = task.config.replace(workers=4, parallel_executor="serial",
                                     timeout_s=timeout)
        result = Synthesizer("provenance", config).run(
            task.tables, task.demonstration)
        assert result.stats.timed_out
        assert result.stats.elapsed_s < 4 * timeout

    def test_engine_stats_is_a_per_run_snapshot(self):
        task = get_task("fe01_total_sales_per_region")
        config = task.config.replace(timeout_s=None, max_visited=100)
        synthesizer = Synthesizer("provenance", config)
        first = synthesizer.run(task.tables, task.demonstration)
        recorded = first.engine_stats.as_dict()
        synthesizer.run(task.tables, task.demonstration)
        assert first.engine_stats.as_dict() == recorded


@dataclass(frozen=True)
class CrashingStop(StopSpec):
    """Kill the worker process at shard start-up, ``crashes`` times total.

    ``os._exit`` bypasses every ``except`` — the worker dies without
    reporting, exactly the OOM-kill/segfault shape the process executor's
    re-dispatch handles.  A flag file (one byte appended per crash)
    bounds the casualties so re-dispatched workers survive; pre-seeding
    the file lets the serial reference run build the spec harmlessly.
    """

    flag_path: str
    crashes: int = 1

    def build(self, engine, env):
        with open(self.flag_path, "a") as fh:
            fh.write("x")
        if os.path.getsize(self.flag_path) <= self.crashes:
            os._exit(42)
        return lambda query: False


class TestDeadWorkerRedispatch:
    def _run(self, task, stop, workers):
        config = task.config.replace(workers=workers,
                                     parallel_executor="process",
                                     timeout_s=None, max_visited=60)
        return Synthesizer("provenance", config).run(
            task.tables, task.demonstration, stop_predicate=stop)

    def test_crashed_worker_redispatched_once(self, tmp_path):
        task = get_task("fe01_total_sales_per_region")
        flag = str(tmp_path / "crashed")
        survived = self._run(task, CrashingStop(flag, crashes=1), workers=2)
        # The re-dispatched shard completed: results match the serial
        # reference (whose spec build is a no-op — the flag is spent).
        reference = self._run(task, CrashingStop(flag, crashes=0), workers=1)
        assert survived.queries == reference.queries
        assert survived.stats.visited == reference.stats.visited

    def test_twice_dead_worker_raises_instead_of_hanging(self, tmp_path):
        task = get_task("fe01_total_sales_per_region")
        flag = str(tmp_path / "crashed")
        # Enough crashes that some shard dies on its re-dispatch too.
        with pytest.raises(RuntimeError, match="died"):
            self._run(task, CrashingStop(flag, crashes=8), workers=2)


def test_process_shards_ship_inputs_pickled(dispatch_side_channels):
    """A ``workers=2`` process-executor run dispatches its inputs pickled:
    it lays out no shared-memory segment and starts no manager process,
    and still matches the serial run."""
    task = get_task("fe20_share_of_region_total")
    config = task.config.replace(timeout_s=None, max_visited=200)
    stop = GroundTruthStop(task.ground_truth)
    reference = Synthesizer("provenance", config).run(
        task.tables, task.demonstration, stop_predicate=stop)
    sharded = Synthesizer("provenance", config.replace(
        workers=2, parallel_executor="process")).run(
        task.tables, task.demonstration, stop_predicate=stop)
    assert sharded.workers == 2
    assert sharded.queries == reference.queries
    assert sharded.stats.visited == reference.stats.visited
    assert sharded.engine_stats.shm_bytes_shipped == 0
    assert sharded.engine_stats.cross_shard_hits == 0
    assert dispatch_side_channels() == []
