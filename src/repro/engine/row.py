"""The row-at-a-time backend.

``RowEngine`` is the historical tree interpreter
(:mod:`repro.semantics.concrete` / :mod:`repro.semantics.tracking`) moved
behind the :class:`~repro.engine.base.EvalEngine` interface: the evaluation
rules are unchanged, but every memoized result now lives in caches this
instance owns.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.engine.base import BATCH_EVAL_ERRORS, EngineStats, EvalEngine
from repro.engine.cache import BoundedCache
from repro.lang import ast
from repro.semantics import concrete, tracking
from repro.semantics.tracking import TrackedTable
from repro.table.table import Table

DEFAULT_CONCRETE_CACHE = 100_000
DEFAULT_TRACKING_CACHE = 50_000


class RowEngine(EvalEngine):
    """Row-major interpreter with engine-owned subtree caches."""

    name = "row"

    def __init__(self, concrete_cache_size: int | None = DEFAULT_CONCRETE_CACHE,
                 tracking_cache_size: int | None = DEFAULT_TRACKING_CACHE) -> None:
        super().__init__()
        self._concrete: BoundedCache = BoundedCache(concrete_cache_size)
        self._tracking: BoundedCache = BoundedCache(tracking_cache_size)

    def evaluate(self, query: ast.Query, env: ast.Env) -> Table:
        hit = self._concrete.get((query, env))
        if hit is not None:
            self.stats.concrete_hits += 1
            return hit
        self.stats.concrete_evals += 1
        return concrete.evaluate_missing(query, env, self._concrete)

    def evaluate_tracking(self, query: ast.Query, env: ast.Env) -> TrackedTable:
        hit = self._tracking.get((query, env))
        if hit is not None:
            self.stats.tracking_hits += 1
            return hit
        self.stats.tracking_evals += 1
        return tracking.track_missing(query, env, self._tracking)

    def evaluate_many(self, queries: Sequence[ast.Query], env: ast.Env,
                      errors: str = "raise") -> list[Table | None]:
        """Batched :meth:`evaluate`: one dispatch, cache held in locals."""
        self._check_errors_mode(errors)
        cache, stats = self._concrete, self.stats
        out: list[Table | None] = []
        for query in queries:
            hit = cache.get((query, env))
            if hit is not None:
                stats.concrete_hits += 1
                out.append(hit)
                continue
            stats.concrete_evals += 1
            try:
                out.append(concrete.evaluate_missing(query, env, cache))
            except BATCH_EVAL_ERRORS:
                if errors == "raise":
                    raise
                out.append(None)
        return out

    def evaluate_tracking_many(self, queries: Sequence[ast.Query],
                               env: ast.Env, errors: str = "raise"
                               ) -> list[TrackedTable | None]:
        """Batched :meth:`evaluate_tracking`; see :meth:`evaluate_many`."""
        self._check_errors_mode(errors)
        cache, stats = self._tracking, self.stats
        out: list[TrackedTable | None] = []
        for query in queries:
            hit = cache.get((query, env))
            if hit is not None:
                stats.tracking_hits += 1
                out.append(hit)
                continue
            stats.tracking_evals += 1
            try:
                out.append(tracking.track_missing(query, env, cache))
            except BATCH_EVAL_ERRORS:
                if errors == "raise":
                    raise
                out.append(None)
        return out

    def reset(self) -> None:
        self._concrete.clear()
        self._tracking.clear()
        self._reset_base_state()
        self.stats = EngineStats()
