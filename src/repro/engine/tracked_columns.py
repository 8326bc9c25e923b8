"""Column-major provenance tracking: :class:`TrackedBlock` + expr kernels.

The provenance-tracking semantics ``[[q(T̄)]]★`` (paper Fig. 9) pairs every
concrete cell with an :class:`~repro.provenance.expr.Expr` term recording
its derivation.  The row rewriter (:mod:`repro.semantics.tracking`)
rebuilds full row tuples — expressions *and* values — at every node; this
module is the columnar counterpart:

* a :class:`TrackedBlock` keeps the provenance grid as a tuple of
  *expression columns* next to a shared concrete
  :class:`~repro.engine.columns.ColumnBlock` (the value shadow **is** the
  concrete evaluation, so the engine reuses the very blocks — and the very
  ``extractGroups`` results, filter masks, join pairs and sort orders — the
  concrete path already cached);
* append-only operators (projection, partition, arithmetic) share their
  input's expression columns instead of copying terms cell by cell;
* aggregation/analytic terms are built with *shallow* simplification:
  tracked expressions are always in simplified form (simplification is
  idempotent), so only the top-level flattening/dedup of
  :func:`repro.provenance.simplify.simplify` needs to run when a new term
  is constructed over them — no re-walk of the argument subtrees;
* window terms are built per *group*, not per row: an ``"all"``-style
  analytic constructs one term shared by every row of its group, a
  ``"prefix"`` analytic (``cumsum``) extends one running flattened argument
  list, and a ``"ranked"`` analytic reuses one simplified member tuple —
  turning the row rewriter's O(n²) term construction per group into O(n)
  constructions.

Every kernel reproduces the row rewriter's output **term-for-term**: the
same ``simplify`` results, the same ``group{...}`` member order, the same
NULL padding.  The registry-wide differential suite holds both backends to
byte-identical :class:`~repro.semantics.tracking.TrackedTable`s.

Column identity is a structural key
-----------------------------------
Because kernels share expression columns (and individual terms) by object
reference wherever the semantics allow — sibling candidates of one
instantiation family share every column except the one their differing
parameter produces — ``id(column)`` identifies a column's *content* for as
long as the column object is alive.  The Definition-1 checker
(:mod:`repro.provenance.incremental`) judges each term object of a column
once, and the demo analysis (:mod:`repro.provenance.analysis`) keys its
per-column match-mask memo on exactly that identity (pinning the column
in the entry), which is what turns a k-column candidate check into a
one-column incremental one.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.engine.columns import ColumnBlock
from repro.lang.functions import AnalyticSpec, function_spec
from repro.provenance.expr import CellRef, Const, Expr, FuncApp, GroupSet
from repro.semantics.tracking import TrackedTable

#: Shared NULL-provenance term for left-join padding (terms are immutable).
NULL_EXPR = Const(None)

ExprColumn = Sequence[Expr]


class TrackedBlock:
    """A provenance grid in column-major form, next to its value shadow.

    ``expr_columns[j][i]`` is the provenance term of cell ``(i, j)``;
    ``values`` is the concrete :class:`ColumnBlock` of the same query —
    shared by reference with the engine's concrete cache.  Consumers must
    never mutate an expression column in place: kernels share columns
    across blocks freely.
    """

    __slots__ = ("expr_columns", "values")

    def __init__(self, expr_columns: Sequence[ExprColumn],
                 values: ColumnBlock) -> None:
        self.expr_columns = tuple(expr_columns)
        self.values = values

    @property
    def n_rows(self) -> int:
        return self.values.n_rows

    @property
    def n_cols(self) -> int:
        return len(self.expr_columns)

    def to_tracked_table(self, columns: Sequence[str]) -> TrackedTable:
        """Materialize the row-major :class:`TrackedTable` (engine boundary)."""
        n_rows = self.values.n_rows
        if self.expr_columns:
            exprs = tuple(zip(*self.expr_columns))
            values = tuple(zip(*self.values.columns))
        else:
            exprs = tuple(() for _ in range(n_rows))
            values = tuple(() for _ in range(n_rows))
        return TrackedTable(tuple(columns), exprs, values)

    def __repr__(self) -> str:
        return f"TrackedBlock({self.n_rows}x{self.n_cols})"


# ----------------------------------------------------- term constructors
#
# Tracked expressions are always simplified (every constructor below and in
# the row rewriter emits simplified terms, and simplify() is idempotent), so
# building a new term over them only needs simplify()'s *top-level* rule —
# flatten one level, merge partial flags, dedup group members — not the full
# bottom-up re-walk.  The results are structurally identical to
# simplify(FuncApp(...)) / simplify(GroupSet(...)) on the same inputs.

def agg_term(func: str, args: Sequence[Expr]) -> FuncApp:
    """``simplify(FuncApp(func, args))`` for already-simplified ``args``."""
    if function_spec(func).flattenable:
        flat: list[Expr] = []
        partial = False
        for arg in args:
            if isinstance(arg, FuncApp) and arg.func == func:
                flat.extend(arg.args)
                partial = partial or arg.partial
            else:
                flat.append(arg)
        return FuncApp(func, tuple(flat), partial=partial)
    return FuncApp(func, tuple(args))


def group_term(members: Sequence[Expr]) -> GroupSet:
    """``simplify(GroupSet(members))`` for already-simplified ``members``."""
    flat: list[Expr] = []
    for member in members:
        if isinstance(member, GroupSet):
            flat.extend(member.members)
        else:
            flat.append(member)
    seen: set[Expr] = set()
    out: list[Expr] = []
    for m in flat:
        if m not in seen:
            seen.add(m)
            out.append(m)
    return GroupSet(tuple(out))


# ------------------------------------------------------------- selection

def table_ref_exprs(name: str, n_rows: int,
                    n_cols: int) -> list[list[Expr]]:
    """The leaf provenance grid: every cell references itself."""
    return [[CellRef(name, i, j) for i in range(n_rows)]
            for j in range(n_cols)]


def take_expr_columns(expr_columns: Sequence[ExprColumn],
                      indices: Sequence[int]) -> list[list[Expr]]:
    """Gather a row selection through every expression column."""
    return [[col[i] for i in indices] for col in expr_columns]


def select_expr_columns(expr_columns: Sequence[ExprColumn],
                        cols: Sequence[int]) -> list[ExprColumn]:
    """Projection: shares the selected columns without copying terms."""
    return [expr_columns[c] for c in cols]


# ----------------------------------------------------------------- joins

def cross_join_exprs(left: Sequence[ExprColumn], right: Sequence[ExprColumn],
                     n_left_rows: int, n_right_rows: int) -> list[list[Expr]]:
    """Cross product in nested-loop (left-major) order."""
    columns = [[e for e in col for _ in range(n_right_rows)] for col in left]
    columns += [list(col) * n_left_rows for col in right]
    return columns


def pair_expr_columns(left: Sequence[ExprColumn],
                      right: Sequence[ExprColumn],
                      pairs: Sequence[tuple[int, int]]) -> list[list[Expr]]:
    """Join output for an explicit (left row, right row) pair list."""
    left_idx = [p[0] for p in pairs]
    right_idx = [p[1] for p in pairs]
    columns = [[col[i] for i in left_idx] for col in left]
    columns += [[col[j] for j in right_idx] for col in right]
    return columns


def left_pair_expr_columns(left: Sequence[ExprColumn],
                           right: Sequence[ExprColumn],
                           pairs: Sequence[tuple[int, int | None]]
                           ) -> list[list[Expr]]:
    """Left-join output; ``None`` right rows pad with ``Const(None)``."""
    left_idx = [p[0] for p in pairs]
    columns = [[col[i] for i in left_idx] for col in left]
    columns += [[NULL_EXPR if j is None else col[j] for _, j in pairs]
                for col in right]
    return columns


# ------------------------------------------------- grouping and analytics

def group_member_exprs(column: ExprColumn,
                       groups: Sequence[Sequence[int]]
                       ) -> tuple[tuple[Expr, ...], ...]:
    """Per-group member tuples of one expression column.

    Cached by the engine per ``(child, keys, column)`` so all sibling
    aggregation functions over the same target column share one gather.
    """
    return tuple(tuple(column[i] for i in g) for g in groups)


def group_key_expr_columns(expr_columns: Sequence[ExprColumn],
                           keys: Sequence[int],
                           groups: Sequence[Sequence[int]]
                           ) -> list[list[Expr]]:
    """Key output columns of a group-aggregation: ``group{...}`` terms
    collapsing each group's key cells (Fig. 9) — shared by the engine
    across every (agg_col, agg_func) sibling candidate."""
    return [[group_term([expr_columns[k][i] for i in g]) for g in groups]
            for k in keys]


def group_agg_expr_column(members: Sequence[tuple[Expr, ...]],
                          agg_func: str) -> list[Expr]:
    """The aggregated output column: one flattened term per group."""
    return [agg_term(agg_func, m) for m in members]


def partition_expr_column(column: ExprColumn,
                          groups: Sequence[Sequence[int]],
                          spec: AnalyticSpec, n_rows: int) -> list[Expr]:
    """The analytic output column, one term per row, built per group.

    Each style branch constructs exactly the terms the row rewriter's
    ``simplify(FuncApp(term, spec.row_args(members, pos)))`` yields — with
    per-group instead of per-row term construction wherever the argument
    shape allows.
    """
    term = spec.term_name
    out: list[Expr] = [NULL_EXPR] * n_rows
    if spec.style == "all":
        # Every row of a group carries the same term over the whole group:
        # construct it once and share it (terms are immutable).
        for g in groups:
            shared = agg_term(term, [column[i] for i in g])
            for i in g:
                out[i] = shared
        return out
    if spec.style == "prefix":
        # Running prefix: extend one flattened argument list instead of
        # re-flattening each prefix from scratch (simplify() of a prefix is
        # the simplify() of the previous prefix plus one more argument).
        flattenable = function_spec(term).flattenable
        for g in groups:
            flat: list[Expr] = []
            partial = False
            for i in g:
                member = column[i]
                if flattenable and isinstance(member, FuncApp) \
                        and member.func == term:
                    flat.extend(member.args)
                    partial = partial or member.partial
                else:
                    flat.append(member)
                out[i] = FuncApp(term, tuple(flat), partial=partial)
        return out
    if spec.style == "ranked":
        # rank terms: (own value, *group) — one shared member tuple per
        # group, re-prefixed per row (rank terms are not flattenable).
        for g in groups:
            members = tuple(column[i] for i in g)
            for pos, i in enumerate(g):
                out[i] = FuncApp(term, (members[pos], *members))
        return out
    # Generic reference path (future analytic styles).
    for g in groups:
        members = [column[i] for i in g]
        for pos, i in enumerate(g):
            out[i] = agg_term(term, tuple(spec.row_args(members, pos)))
    return out


def arithmetic_expr_column(expr_columns: Sequence[ExprColumn],
                           func: str, cols: Sequence[int],
                           n_rows: int) -> list[Expr]:
    """Row-wise arithmetic terms: ``func(row[cols])`` as a new column."""
    arg_cols = [expr_columns[c] for c in cols]
    return [agg_term(func, args) for args in zip(*arg_cols)] if cols else \
        [agg_term(func, ()) for _ in range(n_rows)]
