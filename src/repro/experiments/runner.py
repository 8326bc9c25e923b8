"""Per-task experiment runs (§5.2 protocol).

"For each benchmark (T̄, E, q_gt), we run Sickle and two baselines with a
timeout ...  The synthesizer runs until the correct query q_gt is found.  We
record (1) time each technique takes to solve the tasks, and (2) the number
of consistent queries encountered."

Wall-clock budgets are environment-tunable because absolute numbers are
hardware-bound (the paper used 600 s; pure Python needs humbler defaults):

* ``REPRO_TIMEOUT_EASY``  — seconds per easy task (default 6)
* ``REPRO_TIMEOUT_HARD``  — seconds per hard task (default 15)
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.benchmarks.task import BenchmarkTask
from repro.engine.base import EngineStats
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.ranking import rank_queries
from repro.synthesis.stop import GroundTruthStop
from repro.synthesis.synthesizer import Synthesizer

DEFAULT_EASY_TIMEOUT = float(os.environ.get("REPRO_TIMEOUT_EASY", "6"))
DEFAULT_HARD_TIMEOUT = float(os.environ.get("REPRO_TIMEOUT_HARD", "15"))

TECHNIQUES = ("provenance", "value", "type")

#: SynthesisConfig fields a sweep-level config overrides on each task's own
#: config.  Execution knobs only: a task's *search space* (operator pools,
#: constants, key/sort limits, …) is part of the benchmark definition and
#: never overridden by a sweep.
EXEC_OVERRIDES = ("timeout_s", "max_visited", "backend", "workers",
                  "parallel_executor", "strategy")


@dataclass(frozen=True)
class RunConfig:
    """Budgets (and evaluation backend) for one experiment sweep.

    The difficulty-dependent timeout is the one thing a flat
    :class:`~repro.synthesis.config.SynthesisConfig` cannot express —
    everything else here maps directly onto config fields, and
    ``run_task``/``run_suite`` also accept a ``SynthesisConfig`` whose
    :data:`EXEC_OVERRIDES` fields then apply uniformly to every task.
    """

    easy_timeout_s: float = DEFAULT_EASY_TIMEOUT
    hard_timeout_s: float = DEFAULT_HARD_TIMEOUT
    max_visited: int | None = None
    backend: str | None = None      # None = each task's configured backend
    workers: int = 1                # shards searched concurrently per run
    parallel_executor: str | None = None   # None = each task's configured one

    def timeout_for(self, task: BenchmarkTask) -> float:
        return (self.easy_timeout_s if task.difficulty == "easy"
                else self.hard_timeout_s)


#: Defaults a sweep-level SynthesisConfig leaves alone: an EXEC_OVERRIDES
#: field still at its dataclass default is treated as "not specified" and
#: keeps the task's own value (mirroring RunConfig's None fields).
_CONFIG_DEFAULTS = SynthesisConfig()


def task_config(task: BenchmarkTask,
                run_config: "RunConfig | SynthesisConfig") -> SynthesisConfig:
    """The effective per-task SynthesisConfig for one sweep run."""
    if isinstance(run_config, SynthesisConfig):
        overrides = {
            name: getattr(run_config, name) for name in EXEC_OVERRIDES
            if getattr(run_config, name) != getattr(_CONFIG_DEFAULTS, name)}
        return task.config.replace(**overrides) if overrides else task.config
    overrides = dict(timeout_s=run_config.timeout_for(task),
                     max_visited=run_config.max_visited,
                     workers=run_config.workers)
    if run_config.backend is not None:
        overrides["backend"] = run_config.backend
    if run_config.parallel_executor is not None:
        overrides["parallel_executor"] = run_config.parallel_executor
    return task.config.replace(**overrides)


@dataclass
class TaskResult:
    """One (task, technique) measurement."""

    task: str
    suite: str
    difficulty: str
    technique: str
    solved: bool
    time_s: float
    visited: int
    pruned: int
    concrete_checked: int
    consistent_found: int
    timed_out: bool
    rank: int | None            # size-rank of q_gt among consistent queries
    demo_cells: int
    backend: str = ""           # evaluation backend that produced this run
    workers: int = 1            # parallel shards the run was searched with
    # Engine cache traffic for the run (summed over workers when sharded).
    engine_concrete_evals: int = 0
    engine_concrete_hits: int = 0
    engine_tracking_evals: int = 0
    engine_tracking_hits: int = 0
    # Incremental consistency-checker traffic (engine-owned, also summed
    # over workers): verdicts computed / served from cache, verdicts
    # decided at the column stage before any row embedding, and column
    # match matrices computed / served from the memo.
    consistency_checks: int = 0
    consistency_hits: int = 0
    consistency_col_pruned: int = 0
    col_match_evals: int = 0
    col_match_hits: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def run_task(task: BenchmarkTask, technique: str = "provenance",
             run_config: RunConfig | SynthesisConfig | None = None,
             ) -> TaskResult:
    """Run one technique on one task until q_gt is found or timeout.

    ``run_config`` is a :class:`RunConfig` (difficulty-dependent budgets)
    or a :class:`~repro.synthesis.config.SynthesisConfig` whose execution
    fields (:data:`EXEC_OVERRIDES`) apply on top of the task's own config.
    """
    config = task_config(task, run_config if run_config is not None
                         else RunConfig())
    synthesizer = Synthesizer(technique, config)
    synthesizer.reset()  # cold caches: each measurement is independent

    # One resumable session per measurement; the declarative stop spec is
    # built against the session engine (sharded workers each rebuild it
    # against their own).
    session = synthesizer.session(task.tables, task.demonstration,
                                  GroundTruthStop(task.ground_truth))
    result = session.run()

    rank = None
    if result.target is not None:
        ranked = rank_queries(result.queries)
        rank = next((i for i, q in enumerate(ranked, start=1)
                     if q == result.target), None)

    stats = result.stats
    engine_stats = result.engine_stats or EngineStats()
    return TaskResult(
        task=task.name, suite=task.suite, difficulty=task.difficulty,
        technique=technique, solved=result.target is not None,
        time_s=stats.elapsed_s, visited=stats.visited, pruned=stats.pruned,
        concrete_checked=stats.concrete_checked,
        consistent_found=stats.consistent_found, timed_out=stats.timed_out,
        rank=rank, demo_cells=task.demonstration.size,
        backend=synthesizer.engine.name, workers=result.workers,
        engine_concrete_evals=engine_stats.concrete_evals,
        engine_concrete_hits=engine_stats.concrete_hits,
        engine_tracking_evals=engine_stats.tracking_evals,
        engine_tracking_hits=engine_stats.tracking_hits,
        consistency_checks=engine_stats.consistency_checks,
        consistency_hits=engine_stats.consistency_hits,
        consistency_col_pruned=engine_stats.consistency_col_pruned,
        col_match_evals=engine_stats.col_match_evals,
        col_match_hits=engine_stats.col_match_hits)


def run_suite(tasks, techniques=TECHNIQUES,
              run_config: RunConfig | SynthesisConfig | None = None,
              progress=None) -> list[TaskResult]:
    """Run a technique sweep over a task list.

    Accepts the same config forms as :func:`run_task`.
    """
    results: list[TaskResult] = []
    for task in tasks:
        for technique in techniques:
            outcome = run_task(task, technique, run_config)
            results.append(outcome)
            if progress is not None:
                progress(outcome)
    return results
