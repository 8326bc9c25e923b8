"""Synthesizer configuration.

Mirrors the knobs the paper describes: search depth, the N-consistent-query
cutoff (Sickle uses N = 10), user-provided filter constants (§5.1), and the
operator pool the skeleton enumerator composes.  Benchmarks carry their own
pool — all abstraction techniques share it, so the search space and order
are identical across techniques (§5.1, "Baselines").  The worklist order
itself is not a knob: skeleton lanes round-robin in size order,
depth-first within a lane (:class:`repro.synthesis.enumerator._Worklist`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.functions import (
    AGGREGATE_FUNCTIONS,
    ANALYTIC_FUNCTIONS,
    ARITHMETIC_FUNCTIONS,
)
from repro.table.values import Value

#: Operators the skeleton enumerator may compose (joins are added
#: automatically when the task has multiple input tables).
DEFAULT_OPERATOR_POOL: tuple[str, ...] = ("group", "partition", "arithmetic")

ALL_OPERATORS: tuple[str, ...] = (
    "group", "partition", "arithmetic", "filter", "sort", "proj")


@dataclass(frozen=True)
class SynthesisConfig:
    """All search-space and budget knobs in one immutable bundle."""

    # --- search budget -----------------------------------------------------
    max_operators: int = 3          # skeleton size limit ("depth" in Alg. 1)
    top_n: int = 10                 # stop after N consistent queries
    timeout_s: float | None = None  # wall-clock budget (None = unbounded)
    max_visited: int | None = None  # visited-query budget (None = unbounded)

    # Evaluation backend (repro.engine): "columnar" (default) evaluates over
    # column-major blocks with structural-key subtree caching; "row" is the
    # row-at-a-time tree interpreter.  Both produce identical results — the
    # knob trades evaluation strategy, never search behavior.
    backend: str = "columnar"

    # --- parallel search ---------------------------------------------------
    # Number of shards searched concurrently (repro.parallel).  1 (default)
    # runs the classic in-process loop.  N > 1 seeds the skeleton lanes
    # (construction plus shape precheck) in the calling process, deals the
    # admitted lanes to up to N shards, each searched by a worker that owns
    # its own EvalEngine, and merges the results deterministically — ranked
    # output and search counters are byte-identical to workers=1.
    workers: int = 1
    # Worker execution vehicle: "process" (default; one OS process per
    # shard, true parallelism) or "serial" (run shards one after another
    # in-process — the reference semantics the process executor must match).
    parallel_executor: str = "process"

    # --- search space ------------------------------------------------------
    operator_pool: tuple[str, ...] = DEFAULT_OPERATOR_POOL
    aggregate_functions: tuple[str, ...] = AGGREGATE_FUNCTIONS
    analytic_functions: tuple[str, ...] = ANALYTIC_FUNCTIONS
    arithmetic_functions: tuple[str, ...] = ARITHMETIC_FUNCTIONS
    max_key_cols: int = 3           # grouping/partition key subset size cap
    allow_empty_keys: bool = True   # global aggregates / whole-table windows
    max_sort_cols: int = 1
    constants: tuple[Value, ...] = ()        # user-provided filter constants
    comparison_ops: tuple[str, ...] = ("==", "<", ">", "<=", ">=")
    # Filter predicates default to comparisons against user constants (§5.1:
    # constants are never invented).  Column-column filter predicates are
    # rare in analytical tasks and quadratically inflate the domain on wide
    # joins; enable them explicitly when a task needs one.
    filter_col_pairs: bool = False

    # --- abstraction knobs (ablations) --------------------------------------
    target_refinement: bool = True  # agg-column-aware provenance abstraction
    shape_precheck: bool = True     # demo-structure skeleton precheck
    value_shadow: bool = True       # value check on complete demo cells
    head_typing: bool = True        # producer-kind check on demo cells

    def __post_init__(self) -> None:
        unknown = set(self.operator_pool) - set(ALL_OPERATORS)
        if unknown:
            raise ValueError(f"unknown operators in pool: {sorted(unknown)}")
        if self.max_operators < 1:
            raise ValueError("max_operators must be >= 1")
        for name in ("timeout_s", "max_visited", "max_key_cols",
                     "max_sort_cols"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")
        from repro.engine.base import BACKENDS

        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if not isinstance(self.workers, int) or isinstance(self.workers, bool):
            raise TypeError(
                f"workers must be an int, got {type(self.workers).__name__}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.parallel_executor not in ("process", "serial"):
            raise ValueError(
                f"unknown parallel_executor {self.parallel_executor!r}")

    def replace(self, **kwargs) -> "SynthesisConfig":
        from dataclasses import replace as dc_replace
        return dc_replace(self, **kwargs)
