"""The column-major backend.

``ColumnarEngine`` evaluates concrete queries bottom-up over
:class:`~repro.engine.columns.ColumnBlock`s.  Two structural levers carry
the speedup (PATSQL's lesson: column-oriented evaluation plus reuse of
intermediate relational results is the decisive throughput factor for
enumerative SQL synthesis):

* every evaluated subtree is cached by structural key ``(query, env)`` —
  the enumerator instantiates thousands of queries off one skeleton, and
  their shared concrete prefix is computed exactly once;
* intermediate results stay columnar: append-only operators share their
  input's columns, and no per-node :class:`~repro.table.table.Table`
  (with its cell-by-cell schema inference) is built until a caller
  actually asks for a table.

Provenance-tracking evaluation ``[[q(T̄)]]★`` runs the same way over
:class:`~repro.engine.tracked_columns.TrackedBlock`s: the value shadow *is*
the concrete ``ColumnBlock`` (shared object-for-object with the concrete
cache), and the expression grid is evaluated by column kernels that reuse
the engine's row selections (filter masks, join pairs, sort orders) and
``extractGroups`` results across the concrete and tracking paths — and
across sibling candidates.  Both backends produce identical
:class:`~repro.semantics.tracking.TrackedTable`s by construction
(registry-wide differential suite).

``evaluate_many`` / ``evaluate_tracking_many`` batch sibling candidates
through one dispatch: cache probes, hole checks and shared-prefix
evaluation are amortized over the whole batch.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.engine import columns as kernels
from repro.engine import tracked_columns as tracked
from repro.engine.base import BATCH_EVAL_ERRORS, EngineStats, EvalEngine
from repro.engine.cache import BoundedCache
from repro.engine.tracked_columns import TrackedBlock
from repro.errors import EvaluationError, HoleError
from repro.lang import ast
from repro.lang.functions import analytic_spec
from repro.lang.holes import Hole
from repro.lang.naming import output_columns
from repro.semantics.tracking import TrackedTable
from repro.table.schema import Schema, infer_type
from repro.table.table import Table

DEFAULT_BLOCK_CACHE = 100_000
DEFAULT_TABLE_CACHE = 50_000
DEFAULT_TRACKING_CACHE = 50_000

#: Cached-selection marker for "every row survives" (``None`` is the
#: :class:`BoundedCache` miss value, so it cannot be stored directly).
#: Shared with subclasses that override the selection helpers.
ALL_ROWS = object()
_ALL_ROWS = ALL_ROWS


class ColumnarEngine(EvalEngine):
    """Columnar evaluator with structural-key subtree caching."""

    name = "columnar"

    def __init__(self, block_cache_size: int | None = DEFAULT_BLOCK_CACHE,
                 table_cache_size: int | None = DEFAULT_TABLE_CACHE,
                 tracking_cache_size: int | None = DEFAULT_TRACKING_CACHE) -> None:
        super().__init__()
        self._blocks: BoundedCache = BoundedCache(block_cache_size)
        self._tables: BoundedCache = BoundedCache(table_cache_size)
        self._tracking: BoundedCache = BoundedCache(tracking_cache_size)
        self._tracked_blocks: BoundedCache = BoundedCache(tracking_cache_size)
        # Reused partial computations, shared across sibling candidates and
        # across the concrete/tracking paths: one extractGroups (plus key
        # output columns, key provenance terms and per-column group member
        # terms) per (child, keys); one row selection (filter mask, join
        # pairs, sort order) per node; inferred column types keyed by
        # column-list identity (append-only kernels share untouched
        # columns, so a passthrough column is typed once).
        self._groupings: BoundedCache = BoundedCache(block_cache_size)
        self._selections: BoundedCache = BoundedCache(block_cache_size)
        self._col_types: BoundedCache = BoundedCache(block_cache_size)
        self._names: BoundedCache = BoundedCache(table_cache_size)
        self._concreteness: BoundedCache = BoundedCache(table_cache_size)

    # -------------------------------------------------------------- interface
    def evaluate(self, query: ast.Query, env: ast.Env) -> Table:
        key = (query, env)
        hit = self._tables.get(key)
        if hit is not None:
            self.stats.concrete_hits += 1
            return hit
        if not self._is_concrete(query):
            raise HoleError(
                f"cannot concretely evaluate a partial query: {query}")
        self.stats.concrete_evals += 1
        block = self._block(query, env)
        table = self._materialize(query, env, block)
        self._tables[key] = table
        return table

    def evaluate_tracking(self, query: ast.Query, env: ast.Env) -> TrackedTable:
        key = (query, env)
        hit = self._tracking.get(key)
        if hit is not None:
            self.stats.tracking_hits += 1
            return hit
        if not self._is_concrete(query):
            raise HoleError(f"cannot track a partial query: {query}")
        self.stats.tracking_evals += 1
        block = self._tracked_block(query, env)
        table = block.to_tracked_table(output_columns(query, env, self._names))
        self._tracking[key] = table
        return table

    def evaluate_many(self, queries: Sequence[ast.Query], env: ast.Env,
                      errors: str = "raise") -> list[Table | None]:
        """Batched :meth:`evaluate` with one dispatch for the whole stream.

        Sibling candidates share all but their topmost operator: the loop
        holds the cache and counters in locals, and the shared prefixes
        (blocks, names, concreteness, groupings) hit their subtree caches
        for every candidate after the first.
        """
        self._check_errors_mode(errors)
        cache, stats = self._tables, self.stats
        out: list[Table | None] = []
        for query in queries:
            key = (query, env)
            hit = cache.get(key)
            if hit is not None:
                stats.concrete_hits += 1
                out.append(hit)
                continue
            if not self._is_concrete(query):
                raise HoleError(
                    f"cannot concretely evaluate a partial query: {query}")
            stats.concrete_evals += 1
            try:
                table = self._materialize(query, env, self._block(query, env))
            except BATCH_EVAL_ERRORS:
                if errors == "raise":
                    raise
                out.append(None)
                continue
            cache[key] = table
            out.append(table)
        return out

    def evaluate_tracking_many(self, queries: Sequence[ast.Query],
                               env: ast.Env, errors: str = "raise"
                               ) -> list[TrackedTable | None]:
        """Batched :meth:`evaluate_tracking`; see :meth:`evaluate_many`."""
        self._check_errors_mode(errors)
        cache, stats = self._tracking, self.stats
        out: list[TrackedTable | None] = []
        for query in queries:
            key = (query, env)
            hit = cache.get(key)
            if hit is not None:
                stats.tracking_hits += 1
                out.append(hit)
                continue
            if not self._is_concrete(query):
                raise HoleError(f"cannot track a partial query: {query}")
            stats.tracking_evals += 1
            try:
                block = self._tracked_block(query, env)
                table = block.to_tracked_table(
                    output_columns(query, env, self._names))
            except BATCH_EVAL_ERRORS:
                if errors == "raise":
                    raise
                out.append(None)
                continue
            cache[key] = table
            out.append(table)
        return out

    def tracked_columns_many(self, queries: Sequence[ast.Query],
                             env: ast.Env, errors: str = "raise"
                             ) -> list[tuple | None]:
        """Batched column-major provenance grids from the block cache.

        Hands out the ``TrackedBlock`` expression columns directly — no
        row-major :class:`TrackedTable` is materialized for candidates that
        only face the consistency judgment — and those columns are shared
        by object identity across sibling candidates, which is what the
        incremental checker's match-state memo keys on.
        """
        self._check_errors_mode(errors)
        cache, stats = self._tracked_blocks, self.stats
        out: list[tuple | None] = []
        for query in queries:
            key = (query, env)
            hit = cache.get(key)
            if hit is not None:
                stats.tracking_hits += 1
                out.append(hit.expr_columns)
                continue
            if not self._is_concrete(query):
                raise HoleError(f"cannot track a partial query: {query}")
            stats.tracking_evals += 1
            try:
                block = self._compute_tracked_block(query, env)
            except BATCH_EVAL_ERRORS:
                if errors == "raise":
                    raise
                out.append(None)
                continue
            cache[key] = block
            out.append(block.expr_columns)
        return out

    def reset(self) -> None:
        self._blocks.clear()
        self._tables.clear()
        self._tracking.clear()
        self._tracked_blocks.clear()
        self._groupings.clear()
        self._selections.clear()
        self._col_types.clear()
        self._names.clear()
        self._concreteness.clear()
        self._reset_consistency()
        self.stats = EngineStats()

    def _is_concrete(self, query: ast.Query) -> bool:
        """Hole check with sharing: sibling candidates differ only at the
        top, so their shared subtrees are checked once."""
        hit = self._concreteness.get(query)
        if hit is not None:
            return hit
        result = all(not isinstance(getattr(query, f), Hole)
                     for f in query.param_fields()) and \
            all(self._is_concrete(child) for child in query.child_queries())
        self._concreteness[query] = result
        return result

    # ---------------------------------------------------------- materialize
    def _materialize(self, query: ast.Query, env: ast.Env,
                     block: kernels.ColumnBlock) -> Table:
        """Build the boundary ``Table`` without re-inferring shared columns.

        Produces exactly what ``Table.from_rows`` would: the per-column
        type inference runs over the same value sequences, it is just
        memoized by column identity.
        """
        names = tuple(output_columns(query, env, self._names))
        types = tuple(self._column_type(col) for col in block.columns)
        schema = Schema(names, types)
        return Table("t", schema, tuple(block.row_tuples()))

    def _column_type(self, col) -> str:
        entry = self._col_types.get(id(col))
        # The entry pins the column list alive, so its id cannot be reused
        # while the entry exists; the identity check guards eviction races.
        if entry is not None and entry[0] is col:
            return entry[1]
        inferred = infer_type(col)
        self._col_types[id(col)] = (col, inferred)
        return inferred

    # ---------------------------------------------------------------- kernels
    def _block(self, query: ast.Query, env: ast.Env) -> kernels.ColumnBlock:
        key = (query, env)
        hit = self._blocks.get(key)
        if hit is not None:
            return hit
        block = self._compute_block(query, env)
        self._blocks[key] = block
        return block

    def _compute_block(self, query: ast.Query,
                       env: ast.Env) -> kernels.ColumnBlock:
        if isinstance(query, ast.TableRef):
            return kernels.ColumnBlock.from_table(env.get(query.name))

        if isinstance(query, ast.Filter):
            child = self._block(query.child, env)
            keep = self._filter_keep(query, env)
            return child if keep is None else kernels.take_rows(child, keep)

        if isinstance(query, ast.Join):
            left = self._block(query.left, env)
            right = self._block(query.right, env)
            if query.pred is None:
                return kernels.cross_join(left, right)
            return kernels.pair_columns(left, right,
                                        self._join_pairs(query, env))

        if isinstance(query, ast.LeftJoin):
            return kernels.left_pair_columns(self._block(query.left, env),
                                             self._block(query.right, env),
                                             self._left_join_pairs(query, env))

        if isinstance(query, ast.Proj):
            return kernels.select_columns(self._block(query.child, env),
                                          query.cols)

        if isinstance(query, ast.Sort):
            child = self._block(query.child, env)
            return kernels.take_rows(child, self._sort_order(query, env))

        if isinstance(query, ast.Group):
            child = self._block(query.child, env)
            groups = self._groups(query.child, env, query.keys, child)
            key_columns = self._key_columns(query.child, env, query.keys,
                                            child, groups)
            return kernels.group_block(child, query.keys, query.agg_func,
                                       query.agg_col, groups, key_columns)

        if isinstance(query, ast.Partition):
            child = self._block(query.child, env)
            groups = self._groups(query.child, env, query.keys, child)
            return kernels.partition_block(child, query.keys, query.agg_func,
                                           query.agg_col, groups)

        if isinstance(query, ast.Arithmetic):
            return kernels.arithmetic_block(self._block(query.child, env),
                                           query.func, query.cols)

        raise EvaluationError(f"unknown query node {type(query).__name__}")

    # ------------------------------------------------------ tracking kernels
    def _tracked_block(self, query: ast.Query, env: ast.Env) -> TrackedBlock:
        key = (query, env)
        hit = self._tracked_blocks.get(key)
        if hit is not None:
            return hit
        block = self._compute_tracked_block(query, env)
        self._tracked_blocks[key] = block
        return block

    def _compute_tracked_block(self, query: ast.Query,
                               env: ast.Env) -> TrackedBlock:
        """One node of ``[[q(T̄)]]★``: the value shadow is the concrete
        block (shared with — and cached by — the concrete path), and the
        expression grid is gathered through the same cached row selections
        the concrete kernel used."""
        if isinstance(query, ast.TableRef):
            values = self._block(query, env)
            return TrackedBlock(
                tracked.table_ref_exprs(query.name, values.n_rows,
                                        values.n_cols), values)

        if isinstance(query, ast.Filter):
            child = self._tracked_block(query.child, env)
            keep = self._filter_keep(query, env)
            exprs = child.expr_columns if keep is None else \
                tracked.take_expr_columns(child.expr_columns, keep)
            return TrackedBlock(exprs, self._block(query, env))

        if isinstance(query, ast.Join):
            left = self._tracked_block(query.left, env)
            right = self._tracked_block(query.right, env)
            if query.pred is None:
                exprs = tracked.cross_join_exprs(
                    left.expr_columns, right.expr_columns,
                    left.n_rows, right.n_rows)
            else:
                exprs = tracked.pair_expr_columns(
                    left.expr_columns, right.expr_columns,
                    self._join_pairs(query, env))
            return TrackedBlock(exprs, self._block(query, env))

        if isinstance(query, ast.LeftJoin):
            left = self._tracked_block(query.left, env)
            right = self._tracked_block(query.right, env)
            exprs = tracked.left_pair_expr_columns(
                left.expr_columns, right.expr_columns,
                self._left_join_pairs(query, env))
            return TrackedBlock(exprs, self._block(query, env))

        if isinstance(query, ast.Proj):
            child = self._tracked_block(query.child, env)
            return TrackedBlock(
                tracked.select_expr_columns(child.expr_columns, query.cols),
                self._block(query, env))

        if isinstance(query, ast.Sort):
            child = self._tracked_block(query.child, env)
            return TrackedBlock(
                tracked.take_expr_columns(child.expr_columns,
                                          self._sort_order(query, env)),
                self._block(query, env))

        if isinstance(query, ast.Group):
            child = self._tracked_block(query.child, env)
            groups = self._groups(query.child, env, query.keys, child.values)
            exprs = list(self._group_key_exprs(query.child, env, query.keys,
                                               child, groups))
            members = self._group_members(query.child, env, query.keys,
                                          query.agg_col, child, groups)
            exprs.append(tracked.group_agg_expr_column(members,
                                                       query.agg_func))
            return TrackedBlock(exprs, self._block(query, env))

        if isinstance(query, ast.Partition):
            child = self._tracked_block(query.child, env)
            groups = self._groups(query.child, env, query.keys, child.values)
            new_col = tracked.partition_expr_column(
                child.expr_columns[query.agg_col], groups,
                analytic_spec(query.agg_func), child.n_rows)
            return TrackedBlock(list(child.expr_columns) + [new_col],
                                self._block(query, env))

        if isinstance(query, ast.Arithmetic):
            child = self._tracked_block(query.child, env)
            new_col = tracked.arithmetic_expr_column(
                child.expr_columns, query.func, query.cols, child.n_rows)
            return TrackedBlock(list(child.expr_columns) + [new_col],
                                self._block(query, env))

        raise EvaluationError(f"unknown query node {type(query).__name__}")

    # ------------------------------------------------------- shared partials
    def _filter_keep(self, query: ast.Filter, env: ast.Env) -> list[int] | None:
        """Surviving row indices (``None`` = all), cached per node."""
        key = (query, env)
        hit = self._selections.get(key)
        if hit is None:
            child = self._block(query.child, env)
            hit = kernels.filter_indices(child, query.pred)
            self._selections[key] = _ALL_ROWS if hit is None else hit
            return hit
        return None if hit is _ALL_ROWS else hit

    def _join_pairs(self, query: ast.Join, env: ast.Env) -> list:
        """Surviving (left, right) row pairs, cached per node."""
        key = (query, env)
        hit = self._selections.get(key)
        if hit is None:
            hit = kernels.join_pairs(self._block(query.left, env),
                                     self._block(query.right, env),
                                     query.pred)
            self._selections[key] = hit
        return hit

    def _left_join_pairs(self, query: ast.LeftJoin, env: ast.Env) -> list:
        key = (query, env)
        hit = self._selections.get(key)
        if hit is None:
            hit = kernels.left_join_pairs(self._block(query.left, env),
                                          self._block(query.right, env),
                                          query.pred)
            self._selections[key] = hit
        return hit

    def _sort_order(self, query: ast.Sort, env: ast.Env) -> list[int]:
        key = (query, env)
        hit = self._selections.get(key)
        if hit is None:
            hit = kernels.sort_indices(self._block(query.child, env),
                                       query.cols, query.ascending)
            self._selections[key] = hit
        return hit

    def _groups(self, child_query: ast.Query, env: ast.Env,
                keys, child_block: kernels.ColumnBlock):
        """``extractGroups`` shared across sibling aggregation candidates —
        and across the concrete and tracking paths (the tracked value
        shadow *is* the concrete block, so one grouping serves both)."""
        key = (child_query, env, keys)
        hit = self._groupings.get(key)
        if hit is None:
            hit = kernels.group_indices(child_block, keys)
            self._groupings[key] = hit
        return hit

    def _key_columns(self, child_query: ast.Query, env: ast.Env,
                     keys, child_block: kernels.ColumnBlock, groups):
        """Group key output columns, shared (by identity, so the column-type
        cache hits too) across sibling aggregation candidates."""
        key = (child_query, env, keys, "key_cols")
        hit = self._groupings.get(key)
        if hit is None:
            hit = kernels.group_key_columns(child_block, keys, groups)
            self._groupings[key] = hit
        return hit

    def _group_key_exprs(self, child_query: ast.Query, env: ast.Env,
                         keys, child: TrackedBlock, groups):
        """Key provenance columns (``group{...}`` terms), shared across all
        (agg_col, agg_func) sibling candidates of one (child, keys)."""
        key = (child_query, env, keys, "key_exprs")
        hit = self._groupings.get(key)
        if hit is None:
            hit = tracked.group_key_expr_columns(child.expr_columns, keys,
                                                 groups)
            self._groupings[key] = hit
        return hit

    def _group_members(self, child_query: ast.Query, env: ast.Env,
                       keys, agg_col: int, child: TrackedBlock, groups):
        """Per-group member terms of one column, shared across all sibling
        aggregation *functions* over the same target column."""
        key = (child_query, env, keys, agg_col, "members")
        hit = self._groupings.get(key)
        if hit is None:
            hit = tracked.group_member_exprs(child.expr_columns[agg_col],
                                             groups)
            self._groupings[key] = hit
        return hit
