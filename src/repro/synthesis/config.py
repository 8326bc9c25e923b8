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

import math
from dataclasses import dataclass

from repro.lang.functions import (
    AGGREGATE_FUNCTIONS,
    ANALYTIC_FUNCTIONS,
    ANALYTIC_SPECS,
    ARITHMETIC_FUNCTIONS,
)
from repro.table.values import Value

#: Operators the skeleton enumerator may compose (joins are added
#: automatically when the task has multiple input tables).
DEFAULT_OPERATOR_POOL: tuple[str, ...] = ("group", "partition", "arithmetic")

ALL_OPERATORS: tuple[str, ...] = (
    "group", "partition", "arithmetic", "filter", "sort", "proj")


def check_int(name: str, value, minimum: int) -> None:
    """Reject a non-``int`` (``bool`` included) or a value below ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


def check_seconds(name: str, value, positive: bool = False) -> None:
    """Reject a duration that is not a finite number >= 0 (> 0 when
    ``positive``); ``None`` means unbounded or off."""
    if value is None:
        return
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number of seconds or None, got "
                        f"{type(value).__name__}")
    if not math.isfinite(value) or value < 0 or (positive and value == 0):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {bound}, or None; "
                         f"got {value!r}")


@dataclass(frozen=True)
class SynthesisConfig:
    """All search-space and budget knobs in one immutable bundle."""

    # --- search budget -----------------------------------------------------
    max_operators: int = 3          # skeleton size limit ("depth" in Alg. 1)
    top_n: int = 10                 # stop after N consistent queries
    timeout_s: float | None = None  # wall-clock budget (None = unbounded)
    max_visited: int | None = None  # visited-query budget (None = unbounded)

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
        for name, minimum in (("max_operators", 1), ("top_n", 1),
                              ("workers", 1), ("max_key_cols", 0),
                              ("max_sort_cols", 0)):
            check_int(name, getattr(self, name), minimum)
        if self.max_visited is not None:
            check_int("max_visited", self.max_visited, 0)
        check_seconds("timeout_s", self.timeout_s)
        for name, registry in (("aggregate_functions", AGGREGATE_FUNCTIONS),
                               ("analytic_functions", ANALYTIC_SPECS),
                               ("arithmetic_functions", ARITHMETIC_FUNCTIONS)):
            unknown = set(getattr(self, name)) - set(registry)
            if unknown:
                raise ValueError(f"unknown {name}: {sorted(unknown)}")
        if self.parallel_executor not in ("process", "serial"):
            raise ValueError(
                f"unknown parallel_executor {self.parallel_executor!r}")

    def replace(self, **kwargs) -> "SynthesisConfig":
        from dataclasses import replace as dc_replace
        return dc_replace(self, **kwargs)
