"""Parallel-search micro-benchmark: sharded vs serial on forum-hard.

The workload is the §5.2 experiment mode on forum-hard tasks ("run until
q_gt is found", visited-budget bounded): the mode where sharding pays —
the shard holding the ground truth's skeleton reaches it after exploring
only its own lanes, and first-consistent-query cancellation reclaims the
sibling shards.  Tasks are chosen to solve within the budget so the
cancellation path (not budget exhaustion) decides each run.

The speedup assertion needs real cores; on single-core machines the
benchmark still verifies sharded/serial result equality and reports the
(meaningless) timing, but skips the ratio check.  CI runs this file
non-gating; the nightly perf workflow records the numbers as a trajectory
artifact (``benchmarks/perf_snapshot.py``).

A further, core-count independent measurement rides along: **skewed
lanes** — per-shard visited counts under ``cost_rr`` planning on an
exhaustive (no-stop) hard-task sweep.  The static cost estimate deals
near-equal shards, the abstraction then prunes lanes the estimate cannot
see, and the measured ``ShardPlan.load_imbalance`` of actual work
quantifies what dynamic re-planning (ROADMAP) would reclaim.
"""

from __future__ import annotations

import gc
import os
import time

import pytest

from repro.benchmarks import all_tasks
from repro.parallel import ShardPlan, ShardPlanner, run_shards
from repro.synthesis import GroundTruthStop, Synthesizer
from repro.synthesis.skeletons import construct_skeletons

#: Forum-hard tasks that solve within the budget at serial visited counts
#: between ~1k and ~4k — enough search for sharding to matter, small enough
#: for a round to stay in seconds.
TASK_NAMES = (
    "fh01_cumulative_signup_share",
    "fh04_cumulative_share_of_region",
    "fh10_conversion_deviation_rank",
    "fh16_early_rainfall_share",
)
VISITED_BUDGET = 4000
WORKERS = 4
ROUNDS = 3


def cpu_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def bench_tasks():
    wanted = set(TASK_NAMES)
    return [t for t in all_tasks() if t.name in wanted]


def run_once(task, workers: int):
    config = task.config.replace(
        workers=workers, parallel_executor="process",
        timeout_s=None, max_visited=VISITED_BUDGET)
    synthesizer = Synthesizer("provenance", config)
    return synthesizer.run(task.tables, task.demonstration,
                           stop_predicate=GroundTruthStop(task.ground_truth))


def _round(tasks, workers: int) -> float:
    start = time.perf_counter()
    for task in tasks:
        run_once(task, workers)
    return time.perf_counter() - start


def measure(tasks, rounds: int = ROUNDS) -> tuple[float, float]:
    """Interleaved best-of-N wall times for (serial, sharded)."""
    serial_times, sharded_times = [], []
    gc.collect()
    for _ in range(rounds):
        serial_times.append(_round(tasks, 1))
        sharded_times.append(_round(tasks, WORKERS))
    return min(serial_times), min(sharded_times)


@pytest.fixture(scope="module")
def tasks():
    found = bench_tasks()
    assert len(found) == len(TASK_NAMES)
    return found


def test_sharded_run_solves_and_matches_serial(tasks):
    """The benchmark workload itself is covered by the determinism pledge."""
    for task in tasks:
        serial = run_once(task, 1)
        sharded = run_once(task, WORKERS)
        assert serial.target is not None, task.name
        assert sharded.target == serial.target, task.name
        assert sharded.queries == serial.queries, task.name
        assert sharded.stats.visited == serial.stats.visited, task.name


def test_parallel_speedup_on_forum_hard(tasks):
    cores = cpu_cores()
    serial_t, sharded_t = measure(tasks)
    speedup = serial_t / sharded_t
    print(f"\nforum-hard experiment mode ({len(tasks)} tasks, "
          f"{WORKERS} workers, best of {ROUNDS} rounds, {cores} cores):")
    print(f"  serial   {serial_t * 1000:8.1f} ms")
    print(f"  sharded  {sharded_t * 1000:8.1f} ms")
    print(f"  speedup  {speedup:8.2f}x")
    if cores < 2:
        pytest.skip("parallel speedup needs >= 2 cores "
                    f"(have {cores}); result equality still verified")
    assert speedup > 1.0, (
        f"sharded search only {speedup:.2f}x vs serial with {WORKERS} "
        f"workers on {cores} cores (expected > 1x)")


# --- skewed-lane workload: where static cost_rr planning loses ----------

#: Hard task whose lanes the provenance abstraction prunes very unevenly.
SKEW_TASK = "fh02_region_quarter_share"
SKEW_BUDGET = 1200


def per_shard_visited(task, workers: int = WORKERS):
    """(plan, per-shard visited) of an exhaustive no-stop sharded sweep.

    The serial executor removes scheduling noise: every shard runs to its
    own budget/exhaustion, so visited counts are the lanes' actual work.
    """
    config = task.config.replace(
        workers=workers, parallel_executor="serial",
        timeout_s=None, max_visited=SKEW_BUDGET)
    skeletons = construct_skeletons(task.env, config)
    plan = ShardPlanner(workers).plan(skeletons)
    outcomes = run_shards(plan, skeletons, task.env, task.demonstration,
                          config, "provenance", stop_spec=None)
    return plan, [o.stats.visited for o in outcomes]


def skew_measurements(task, workers: int = WORKERS) -> dict:
    plan, visited = per_shard_visited(task, workers)
    return {
        "estimated_imbalance": ShardPlan.load_imbalance(plan.costs),
        "actual_imbalance": ShardPlan.load_imbalance(visited),
        "per_shard_visited": visited,
        "per_shard_cost": list(plan.costs),
    }


def test_skewed_lanes_defeat_static_planning():
    """cost_rr deals near-even estimates; pruning skews the real work."""
    task = next(t for t in all_tasks() if t.name == SKEW_TASK)
    m = skew_measurements(task)
    print(f"\nskewed-lane workload ({SKEW_TASK}, {WORKERS} shards):")
    print(f"  estimated cost per shard  {m['per_shard_cost']}")
    print(f"  actual visited per shard  {m['per_shard_visited']}")
    print(f"  imbalance estimated {m['estimated_imbalance']:.2f}  "
          f"actual {m['actual_imbalance']:.2f}")
    # The planner believes the split is close to even ...
    assert m["estimated_imbalance"] < 1.5
    # ... while the measured work is demonstrably skewed beyond it — the
    # headroom the ROADMAP's dynamic re-planning is chartered to reclaim.
    assert m["actual_imbalance"] > m["estimated_imbalance"]
