"""Provenance-tracking evaluation ``[[q(T̄)]]★`` (paper Fig. 9).

Every operator is a term rewriter: the output is a *provenance-embedded
table* whose cells are :class:`~repro.provenance.expr.Expr` terms recording
how each value was derived from input cells.  A parallel grid of concrete
values is maintained because grouping, filtering and sorting decisions are
driven by concrete data (``extractGroups([[T★[c̄]]])`` in the figure).

Aggregation terms are simplified on construction (``sum`` flattening, group
flattening), matching §3.1's discussion of semantically equivalent
aggregations — e.g. a ``cumsum`` over per-group ``sum``s becomes one flat
``sum`` whose arguments are the underlying input cells (Fig. 4, row 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import MutableMapping

from repro.errors import EvaluationError, HoleError
from repro.lang import ast
from repro.lang.functions import analytic_spec, apply_function
from repro.lang.holes import is_concrete
from repro.lang.naming import output_columns
from repro.provenance.expr import CellRef, Const, Expr, FuncApp, GroupSet
from repro.provenance.simplify import simplify
from repro.semantics.groups import extract_groups, group_position_map
from repro.table.table import Table
from repro.table.values import Value, value_sort_key


@dataclass(frozen=True)
class TrackedTable:
    """A provenance-embedded table T★ with its concrete shadow.

    ``exprs[i][j]`` records the provenance of cell ``(i, j)``;
    ``values[i][j]`` is its concrete value ``[[exprs[i][j]]]``.
    """

    columns: tuple[str, ...]
    exprs: tuple[tuple[Expr, ...], ...]
    values: tuple[tuple[Value, ...], ...]

    @property
    def n_rows(self) -> int:
        return len(self.exprs)

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    def to_table(self, name: str = "t") -> Table:
        """``[[T★]]`` — evaluate every cell (paper §3.1)."""
        return Table.from_rows(name, self.columns, self.values)


def evaluate_tracking(query: ast.Query, env: ast.Env,
                      cache: MutableMapping | None = None) -> TrackedTable:
    """Provenance-tracking evaluation; raises :class:`HoleError` on holes.

    ``cache`` maps ``(query, env)`` to tracked tables and is consulted for
    every subtree; it is owned by the caller (normally an
    :class:`~repro.engine.base.EvalEngine`).  When omitted, a scratch cache
    local to this call is used.
    """
    if not is_concrete(query):
        raise HoleError(f"cannot track a partial query: {query}")
    if cache is None:
        cache = {}
    return _track(query, env, cache)


def track_missing(query: ast.Query, env: ast.Env,
                  cache: MutableMapping) -> TrackedTable:
    """Compute (and cache) a query the caller already probed ``cache`` for
    (the engines' hot path — skips the redundant top-level probe)."""
    if not is_concrete(query):
        raise HoleError(f"cannot track a partial query: {query}")
    return _compute(query, env, cache)


def _track(query: ast.Query, env: ast.Env,
           cache: MutableMapping) -> TrackedTable:
    hit = cache.get((query, env))
    if hit is not None:
        return hit
    return _compute(query, env, cache)


def _compute(query: ast.Query, env: ast.Env,
             cache: MutableMapping) -> TrackedTable:
    columns = tuple(output_columns(query, env))
    exprs, values = _grids(query, env, cache)
    tracked = TrackedTable(columns, exprs, values)
    cache[(query, env)] = tracked
    return tracked


def _grids(query: ast.Query, env: ast.Env, cache: MutableMapping):
    if isinstance(query, ast.TableRef):
        table = env.get(query.name)
        exprs = tuple(
            tuple(CellRef(query.name, i, j) for j in range(table.n_cols))
            for i in range(table.n_rows))
        return exprs, table.rows

    if isinstance(query, ast.Filter):
        child = _track(query.child, env, cache)
        keep = [i for i, row in enumerate(child.values)
                if query.pred.evaluate(row)]
        return (tuple(child.exprs[i] for i in keep),
                tuple(child.values[i] for i in keep))

    if isinstance(query, ast.Join):
        left = _track(query.left, env, cache)
        right = _track(query.right, env, cache)
        exprs, values = [], []
        for i in range(left.n_rows):
            for j in range(right.n_rows):
                combined = left.values[i] + right.values[j]
                if query.pred is None or query.pred.evaluate(combined):
                    exprs.append(left.exprs[i] + right.exprs[j])
                    values.append(combined)
        return tuple(exprs), tuple(values)

    if isinstance(query, ast.LeftJoin):
        left = _track(query.left, env, cache)
        right = _track(query.right, env, cache)
        pad_exprs = tuple(Const(None) for _ in range(right.n_cols))
        pad_values = (None,) * right.n_cols
        exprs, values = [], []
        for i in range(left.n_rows):
            matched = False
            for j in range(right.n_rows):
                combined = left.values[i] + right.values[j]
                if query.pred.evaluate(combined):
                    matched = True
                    exprs.append(left.exprs[i] + right.exprs[j])
                    values.append(combined)
            if not matched:
                exprs.append(left.exprs[i] + pad_exprs)
                values.append(left.values[i] + pad_values)
        return tuple(exprs), tuple(values)

    if isinstance(query, ast.Proj):
        child = _track(query.child, env, cache)
        return (tuple(tuple(row[c] for c in query.cols) for row in child.exprs),
                tuple(tuple(row[c] for c in query.cols) for row in child.values))

    if isinstance(query, ast.Sort):
        child = _track(query.child, env, cache)
        order = sorted(
            range(child.n_rows),
            key=lambda i: tuple(value_sort_key(child.values[i][c])
                                for c in query.cols),
            reverse=not query.ascending)
        return (tuple(child.exprs[i] for i in order),
                tuple(child.values[i] for i in order))

    if isinstance(query, ast.Group):
        child = _track(query.child, env, cache)
        key_rows = [[row[k] for k in query.keys] for row in child.values]
        groups = extract_groups(key_rows)
        exprs, values = [], []
        for g in groups:
            # Key columns collapse to group{...} terms (Fig. 9): the user may
            # reference any member in the demonstration.
            key_exprs = tuple(
                simplify(GroupSet(tuple(child.exprs[i][k] for i in g)))
                for k in query.keys)
            agg_expr = simplify(FuncApp(
                query.agg_func, tuple(child.exprs[i][query.agg_col] for i in g)))
            agg_vals = [child.values[i][query.agg_col] for i in g]
            exprs.append(key_exprs + (agg_expr,))
            values.append(tuple(child.values[g[0]][k] for k in query.keys)
                          + (apply_function(query.agg_func, agg_vals),))
        return tuple(exprs), tuple(values)

    if isinstance(query, ast.Partition):
        child = _track(query.child, env, cache)
        key_rows = [[row[k] for k in query.keys] for row in child.values]
        groups = extract_groups(key_rows)
        spec = analytic_spec(query.agg_func)
        # One row→(group, position) index for the whole partition (probing
        # group membership per row would be quadratic in row count), and one
        # member list per group shared by all of its rows.
        positions = group_position_map(groups)
        member_exprs = [[child.exprs[k][query.agg_col] for k in g]
                        for g in groups]
        member_vals = [[child.values[k][query.agg_col] for k in g]
                       for g in groups]
        exprs, values = [], []
        for i in range(child.n_rows):
            gi, pos = positions[i]
            arg_exprs = spec.row_args(member_exprs[gi], pos)
            arg_vals = spec.row_args(member_vals[gi], pos)
            new_expr = simplify(FuncApp(spec.term_name, tuple(arg_exprs)))
            exprs.append(child.exprs[i] + (new_expr,))
            values.append(child.values[i]
                          + (apply_function(spec.term_name, arg_vals),))
        return tuple(exprs), tuple(values)

    if isinstance(query, ast.Arithmetic):
        child = _track(query.child, env, cache)
        exprs, values = [], []
        for i in range(child.n_rows):
            arg_exprs = tuple(child.exprs[i][c] for c in query.cols)
            arg_vals = [child.values[i][c] for c in query.cols]
            exprs.append(child.exprs[i] + (simplify(FuncApp(query.func, arg_exprs)),))
            values.append(child.values[i] + (apply_function(query.func, arg_vals),))
        return tuple(exprs), tuple(values)

    raise EvaluationError(f"unknown query node {type(query).__name__}")
