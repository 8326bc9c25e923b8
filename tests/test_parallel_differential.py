"""Differential sharded-search tests (mirrors ``test_engine_differential``).

The ``workers`` knob must trade wall-clock only — never results.  Every
task in the benchmark registry runs serial (``workers=1``) and sharded
(``workers=4``); ranked queries and every deterministic search counter
must match exactly, whatever executor, worker count or shard plan
produced the traces.

Searches run under a visited-query budget (no wall clock) so serial and
sharded runs traverse identical search prefixes regardless of machine
speed — the same discipline the engine differential suite uses.

Process workers receive their inputs pickled; a fork-vs-spawn leg proves
the pickled payload survives a cold process boundary.
"""

import multiprocessing

import pytest

from repro.benchmarks import all_tasks
from repro.engine import make_engine
from repro.synthesis import GroundTruthStop, Synthesizer

#: Mirrors the engine differential budget: enough to cross several
#: skeletons on every task while keeping the sweep in tens of seconds.
VISITED_BUDGET = 400

TASKS = all_tasks()

#: Subset exercising the process executor (fork/queue round-trips are
#: slower than in-process shards, so the full 80-task sweep uses the
#: serial executor).
PROCESS_TASKS = [t for t in TASKS if t.name in (
    "fe01_total_sales_per_region",
    "fe10_salary_rank_within_dept",
    "fe20_share_of_region_total",
    "fh02_region_quarter_share",
    "fh06_weekly_weight_deviation",
    "td01_item_cumulative_monthly_sales",
)]

#: Stop-predicate (experiment-mode) subset: first-consistent-query
#: cancellation must propagate across shards without changing the result.
STOP_TASKS = [t for t in TASKS if t.name in (
    "fe01_total_sales_per_region",
    "fe05_min_price_per_category",
    "fe09_cumulative_units_per_product",
    "fe17_line_revenue",
    "fh02_region_quarter_share",
    "td07_state_profit_share",
)]

#: Stats that must be byte-identical between serial and sharded runs
#: (elapsed_s is wall clock and legitimately differs).
DETERMINISTIC_FIELDS = ("visited", "pruned", "expanded", "concrete_checked",
                        "consistent_found", "timed_out", "skeletons",
                        "max_skeleton_size")


def _run(task, workers, executor="serial", stop=None,
         budget=VISITED_BUDGET, **overrides):
    config = task.config.replace(
        workers=workers, parallel_executor=executor, timeout_s=None,
        max_visited=budget, **overrides)
    synthesizer = Synthesizer("provenance", config)
    return synthesizer.run(task.tables, task.demonstration,
                           stop_predicate=stop)


def _assert_identical(serial, sharded):
    assert sharded.queries == serial.queries
    for field in DETERMINISTIC_FIELDS:
        assert getattr(sharded.stats, field) == \
            getattr(serial.stats, field), field
    assert sharded.target == serial.target
    assert sharded.target_rank == serial.target_rank


@pytest.mark.parametrize("task", TASKS, ids=[t.name for t in TASKS])
def test_sharded_search_identical_to_serial(task):
    serial = _run(task, workers=1)
    sharded = _run(task, workers=4)
    _assert_identical(serial, sharded)
    # The telemetry views exist and are coherent: shards collectively do at
    # least the serial run's work, through their own engines.
    assert sharded.workers == 4
    assert sharded.raw_stats.visited >= serial.stats.visited
    assert sharded.raw_stats.skeletons == serial.stats.skeletons
    assert sharded.engine_stats is not None


@pytest.mark.parametrize("task", PROCESS_TASKS,
                         ids=[t.name for t in PROCESS_TASKS])
def test_process_workers_identical_to_serial(task):
    serial = _run(task, workers=1)
    sharded = _run(task, workers=4, executor="process")
    _assert_identical(serial, sharded)


@pytest.mark.parametrize("task", STOP_TASKS,
                         ids=[t.name for t in STOP_TASKS])
def test_stop_predicate_cancellation_identical(task):
    stop = GroundTruthStop(task.ground_truth)
    serial = _run(task, workers=1, stop=stop, budget=2000)
    for executor in ("serial", "process"):
        sharded = _run(task, workers=4, executor=executor, stop=stop,
                       budget=2000)
        _assert_identical(serial, sharded)


def test_result_invariant_across_worker_counts():
    task = PROCESS_TASKS[0]
    serial = _run(task, workers=1)
    for workers in (2, 3, 7):
        _assert_identical(serial, _run(task, workers=workers))
    # Columnar shard processes match the row reference run serially.
    row_config = task.config.replace(timeout_s=None,
                                     max_visited=VISITED_BUDGET)
    row_serial = Synthesizer("provenance", row_config,
                             engine=make_engine("row")).run(
        task.tables, task.demonstration)
    _assert_identical(row_serial, _run(task, workers=4, executor="process"))


def test_sharded_respects_visited_budget():
    task = PROCESS_TASKS[0]
    serial = _run(task, workers=1, budget=60)
    sharded = _run(task, workers=4, budget=60)
    _assert_identical(serial, sharded)
    assert sharded.stats.visited <= 60
    assert sharded.stats.timed_out == serial.stats.timed_out


def test_fork_vs_spawn_parity(monkeypatch):
    """The same process-executor run is byte-identical under both start
    methods: fork (inputs inherited) and spawn (inputs pickled into a
    cold interpreter)."""
    task = PROCESS_TASKS[0]
    serial = _run(task, workers=1)
    available = multiprocessing.get_all_start_methods()
    for method in ("fork", "spawn"):
        if method not in available:
            continue
        monkeypatch.setenv("REPRO_START_METHOD", method)
        _assert_identical(serial, _run(task, workers=2, executor="process"))
