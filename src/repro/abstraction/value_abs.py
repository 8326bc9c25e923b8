"""Scythe-style *value* abstraction (baseline, §5.1).

Tracks, per output column, the set of concrete values that can possibly
appear; columns derived by aggregation/partition/arithmetic are ⊤
("unknown") because without the function and its parameters no concrete
value can be predicted — the paper's reimplementation keeps "all known
values (e.g., values from the grouping columns) for analytical operators but
ignores unknown values (e.g., values from the aggregation column)".

The consistency check evaluates each demonstration cell to its final value
when possible (complete expressions over input references) and requires an
injective assignment of demonstration columns to output columns whose value
sets cover them; unknown columns cover anything — which is exactly why the
running example's ``q_B`` survives this abstraction (§2.2) but not the
provenance abstraction.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass

from repro.abstraction.base import Abstraction
from repro.engine.cache import BoundedCache
from repro.errors import EvaluationError
from repro.lang import ast
from repro.lang.holes import Hole, is_concrete
from repro.provenance.analysis import NO_VALUE
from repro.provenance.demo import Demonstration
from repro.table.values import Value, canonical
from repro.util.matching import bipartite_match


@dataclass(frozen=True)
class ColumnValues:
    """Values a column may hold: a known set, plus a ⊤ flag."""

    known: frozenset
    unknown: bool

    @staticmethod
    def top() -> "ColumnValues":
        return ColumnValues(frozenset(), True)

    def covers(self, value: Value) -> bool:
        return self.unknown or canonical(value) in self.known

    def union(self, other: "ColumnValues") -> "ColumnValues":
        return ColumnValues(self.known | other.known,
                            self.unknown or other.unknown)


def _exact_columns(table) -> tuple[ColumnValues, ...]:
    return tuple(
        ColumnValues(frozenset(canonical(v) for v in table.column_values(j)),
                     False)
        for j in range(table.n_cols))


def column_values_of(query: ast.Query, env: ast.Env, engine=None,
                     cache: MutableMapping | None = None
                     ) -> tuple[ColumnValues, ...]:
    """Per-column possible-value sets, memoized through ``cache`` (owned by
    the calling :class:`ValueAbstraction` — no module-global state)."""
    if engine is None:
        from repro.engine.row import RowEngine
        engine = RowEngine()
    if cache is None:
        cache = {}
    return _values(query, env, engine, cache)


def _values(query: ast.Query, env: ast.Env, engine,
            cache: MutableMapping) -> tuple[ColumnValues, ...]:
    key = (query, env)
    hit = cache.get(key)
    if hit is not None:
        return hit
    out = _values_of(query, env, engine, cache)
    cache[key] = out
    return out


def _values_of(query: ast.Query, env: ast.Env, engine,
               cache: MutableMapping) -> tuple[ColumnValues, ...]:
    if is_concrete(query):
        return _exact_columns(engine.evaluate(query, env))

    if isinstance(query, ast.Filter):
        return _values(query.child, env, engine, cache)

    if isinstance(query, (ast.Join, ast.LeftJoin)):
        left = _values(query.left, env, engine, cache)
        right = _values(query.right, env, engine, cache)
        if isinstance(query, ast.LeftJoin):
            right = tuple(c.union(ColumnValues(frozenset((None,)), False))
                          for c in right)
        return left + right

    if isinstance(query, ast.Proj):
        child = _values(query.child, env, engine, cache)
        if isinstance(query.cols, Hole):
            return child
        return tuple(child[c] for c in query.cols)

    if isinstance(query, ast.Sort):
        return _values(query.child, env, engine, cache)

    if isinstance(query, ast.Group):
        child = _values(query.child, env, engine, cache)
        if isinstance(query.keys, Hole):
            return child + (ColumnValues.top(),)
        return tuple(child[k] for k in query.keys) + (ColumnValues.top(),)

    if isinstance(query, (ast.Partition, ast.Arithmetic)):
        return _values(query.child, env, engine, cache) + (ColumnValues.top(),)

    raise EvaluationError(f"no value-abstract rule for {type(query).__name__}")


class ValueAbstraction(Abstraction):
    """Prune when a computable demonstration value cannot appear anywhere."""

    name = "value"

    def __init__(self, cache_size: int | None = 100_000) -> None:
        self._cache: BoundedCache = BoundedCache(cache_size)

    def feasible(self, query: ast.Query, env: ast.Env,
                 demo: Demonstration) -> bool:
        engine = self._engine()
        columns = column_values_of(query, env, engine, self._cache)
        if demo.n_cols > len(columns):
            return False
        demo_values = engine.demo_analysis(demo, env).values
        # Injective demo-column → output-column assignment covering every
        # computable demonstration value (no row-level reasoning: Scythe's
        # abstraction tracks value flow, not positions).  A partial cell's
        # value is unknowable and covers nothing.
        return bipartite_match(
            demo.n_cols, len(columns),
            lambda j, c: all(columns[c].covers(v) for v in demo_values[j]
                             if v is not NO_VALUE)) is not None

    def reset(self) -> None:
        super().reset()
        self._cache.clear()
