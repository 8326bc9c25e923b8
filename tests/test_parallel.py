"""Unit tests for the sharded-search building blocks.

Covers the mergeable stats (`SearchStats.merge` / `EngineStats.merge`), the
shard planner over a seeded session's lanes (coverage, balance,
determinism under permuted input), the declarative stop specs, the
parallel knob validation, the cancel token and cancellation of a sharded
run, the dead-worker re-dispatch path of the process executor, and
pickled dispatch (no shared-memory segment, no manager process).
"""

import multiprocessing
import os
import random
from dataclasses import dataclass

import pytest

from repro.benchmarks import get_task
from repro.engine import EngineStats, make_engine
from repro.parallel import (
    NO_LIMIT,
    CancelToken,
    ShardPlanner,
    estimated_lane_cost,
    plan_lanes,
    run_shard,
)
from repro.synthesis import (
    CallableStop,
    GroundTruthStop,
    SearchStats,
    StopSpec,
    SynthesisConfig,
    SynthesisSession,
    Synthesizer,
    as_stop_spec,
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
def lanes():
    """The live ``(lane_id, stack)`` lanes of a freshly seeded session —
    exactly what a sharded run deals to its shards."""
    task = get_task("fe01_total_sales_per_region")
    session = SynthesisSession(task.tables, task.demonstration, task.config)
    session.start()
    return session._worklist.export_lanes()


def _membership(plan, keys):
    """lane key -> shard id (for plan equality across orderings)."""
    return {keys[item]: shard_id
            for shard_id, items in enumerate(plan.shards) for item in items}


class TestShardPlanner:
    def test_plan_partitions_every_lane_once(self, lanes):
        plan, payloads = plan_lanes(lanes, 4)
        seen = [lane for shard in plan.shards for lane in shard]
        assert sorted(seen) == list(range(len(lanes)))
        assert all(list(shard) == sorted(shard) for shard in plan.shards)
        shipped = [lane_id for payload in payloads for lane_id, _ in payload]
        assert sorted(shipped) == [lane_id for lane_id, _ in lanes]

    def test_more_workers_than_lanes(self, lanes):
        plan, _ = plan_lanes(lanes, 10 * len(lanes))
        assert plan.n_shards == len(lanes)
        assert all(len(shard) == 1 for shard in plan.shards)

    def test_empty_skeleton_list(self):
        plan, payloads = plan_lanes([], 4)
        assert plan.n_shards == 0
        assert plan.n_lanes == 0
        assert payloads == []

    def test_cost_rr_balances_estimated_cost(self, lanes):
        plan, _ = plan_lanes(lanes, 4)
        # Descending-cost round-robin keeps the spread within the largest
        # single lane's cost.
        assert max(plan.costs) - min(plan.costs) <= \
            max(sum(map(estimated_lane_cost, stack)) for _, stack in lanes)

    def test_cost_rr_membership_invariant_under_permutation(self, lanes):
        planner = ShardPlanner(4)
        costs = [sum(map(estimated_lane_cost, stack)) for _, stack in lanes]
        keys = [lane_id for lane_id, _ in lanes]
        baseline = _membership(planner.plan_weighted(costs, keys), keys)
        rng = random.Random(7)
        for _ in range(3):
            order = list(range(len(lanes)))
            rng.shuffle(order)
            shuffled_keys = [keys[i] for i in order]
            plan = planner.plan_weighted([costs[i] for i in order],
                                         shuffled_keys)
            assert _membership(plan, shuffled_keys) == baseline

    def test_plan_is_deterministic(self, lanes):
        a, payloads_a = plan_lanes(lanes, 3)
        b, payloads_b = plan_lanes(lanes, 3)
        assert a == b
        assert payloads_a == payloads_b

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

    @pytest.mark.parametrize("field, value", [
        ("max_visited", -5), ("timeout_s", -1.0), ("max_key_cols", -1),
        ("max_sort_cols", -3)])
    def test_rejects_negative_budgets_and_sizes(self, field, value):
        with pytest.raises(ValueError, match=field):
            SynthesisConfig(**{field: value})

    @pytest.mark.parametrize("workers", [2.5, True, "2"])
    def test_rejects_non_int_workers(self, workers):
        with pytest.raises(TypeError, match="workers"):
            SynthesisConfig(workers=workers)

    def test_rejects_unknown_executor(self):
        for executor in ("gpu", "thread"):
            with pytest.raises(ValueError):
                SynthesisConfig(parallel_executor=executor)

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


class TestCancelledShardedRun:
    """A cancel is not a budget expiry: serial and sharded runs agree."""

    def _run_cancelled_at_first_consistent(self, workers):
        task = get_task("fe20_share_of_region_total")
        config = task.config.replace(workers=workers,
                                     parallel_executor="serial",
                                     timeout_s=None, max_visited=2000)

        def cancel_and_continue(query):
            session.cancel()
            return False

        session = SynthesisSession(task.tables, task.demonstration, config,
                                   stop=CallableStop(cancel_and_continue))
        return session, session.run()

    def test_cancelled_sharded_run_is_not_timed_out(self):
        serial_session, serial = self._run_cancelled_at_first_consistent(1)
        sharded_session, sharded = \
            self._run_cancelled_at_first_consistent(4)
        assert serial_session.status == "cancelled"
        assert sharded_session.status == "cancelled"
        assert not serial.stats.timed_out
        assert not sharded.stats.timed_out
        assert sharded.workers == 4


def _propose_in_child(token, round_no):
    token.propose(round_no)


class TestCancelToken:
    """The one round-limit token behind every cancel: a session's, its
    shards' and a pool request slot's."""

    def test_propose_keeps_the_minimum(self):
        token = CancelToken()
        assert token.limit() == NO_LIMIT
        token.propose(7)
        token.propose(9)
        assert token.limit() == 7
        token.propose(3)
        assert token.limit() == 3

    def test_session_cancel_reads_as_zero(self):
        task = get_task("fe01_total_sales_per_region")
        session = SynthesisSession(task.tables, task.demonstration)
        token = CancelToken()
        session.set_cancel_token(token)
        session.cancel()
        assert token.limit() == 0
        assert session.status == "cancelled"

    def test_proposal_in_spawn_child_is_seen_by_parent(self):
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn not supported here")
        ctx = multiprocessing.get_context("spawn")
        token = CancelToken(ctx.Array("q", [NO_LIMIT, NO_LIMIT]), slot=1)
        proc = ctx.Process(target=_propose_in_child, args=(token, 5))
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == 0
        assert token.limit() == 5
        assert CancelToken(token._limits, slot=0).limit() == NO_LIMIT


def _dealt_shards(task, workers, budget):
    """A freshly seeded session's lanes dealt as a ``workers``-way run
    deals them, with the budget that seeding leaves the shards."""
    config = task.config.replace(timeout_s=None, max_visited=budget)
    session = SynthesisSession(task.tables, task.demonstration, config)
    session.start()
    _, payloads = plan_lanes(session._worklist.export_lanes(), workers)
    remaining = config.replace(max_visited=budget - session.stats.visited)
    return session.stats.visited, payloads, remaining


def _run_alone(task, shard_id, payload, config, stop=None, token=None):
    return run_shard(shard_id, payload, task.env, task.demonstration, config,
                     "provenance", stop, token or CancelToken())


class TestSiblingRoundCut:
    def test_shard_stops_before_rounds_past_the_limit(self):
        """A shard session whose token already holds limit ``r`` records
        exactly ``min(len, r)`` events per lane: the prefix of its uncut
        search."""
        task = get_task("fe20_share_of_region_total")
        _, payloads, config = _dealt_shards(task, 2, budget=600)
        config = config.replace(top_n=10**6)
        full = _run_alone(task, 0, payloads[0], config)
        limit = 3
        token = CancelToken()
        token.propose(limit)
        cut = _run_alone(task, 0, payloads[0], config, token=token)
        assert max(len(t.events) for t in full.traces) > limit
        for whole, prefix in zip(full.traces, cut.traces):
            assert prefix.lane == whole.lane
            assert len(prefix.events) == min(len(whole.events), limit)
            assert prefix.events == whole.events[:len(prefix.events)]
        assert cut.stats.visited == sum(len(t.events) for t in cut.traces)
        assert not cut.stats.timed_out
        assert token.limit() == limit


#: The tasks, shard count and budget of the wall-clock speedup gate in
#: benchmarks/test_parallel_speed.py.
SPEEDUP_TASKS = ("fh01_cumulative_signup_share",
                 "fh04_cumulative_share_of_region",
                 "fh10_conversion_deviation_rank",
                 "fh16_early_rainfall_share")


@pytest.mark.parametrize("name", SPEEDUP_TASKS)
def test_cross_shard_cancel_shortens_the_critical_path(name):
    """What the wall-clock speedup gate measures, counted instead of
    timed: once the earliest hit round ``r*`` is known, no shard needs to
    pop past it, so the seeding pops plus the largest shard's pops up to
    ``r*`` must undercut the serial run's visited count."""
    task = get_task(name)
    budget, workers = 4000, 4
    stop = GroundTruthStop(task.ground_truth)
    serial = Synthesizer("provenance", task.config.replace(
        timeout_s=None, max_visited=budget)).run(
        task.tables, task.demonstration, stop_predicate=stop)
    assert serial.target is not None
    seeding, payloads, config = _dealt_shards(task, workers, budget)
    traces = [_run_alone(task, i, payload, config, stop).traces
              for i, payload in enumerate(payloads)]
    hit_rounds = [k + 1 for shard in traces for trace in shard
                  for k, event in enumerate(trace.events)
                  if isinstance(event, tuple) and event[1]]
    r_star = min(hit_rounds)
    critical = max(sum(min(len(trace.events), r_star) for trace in shard)
                   for shard in traces)
    assert seeding + critical < serial.stats.visited


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
