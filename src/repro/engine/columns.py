"""Column-major table representation and vectorized operator kernels.

A :class:`ColumnBlock` is a tuple of columns (each a list of cell values).
The columnar backend keeps *every intermediate result* in this form:

* projection / partition / arithmetic **share** untouched column lists with
  their input (zero-copy) instead of rebuilding one tuple per row;
* filter and sort compute a row-index selection once and gather each column
  through it;
* no intermediate :class:`~repro.table.table.Table` is materialized, so the
  per-node schema inference the row interpreter pays (a type probe of every
  cell) disappears from the hot path.

Every kernel reproduces the row interpreter's semantics exactly — same
predicate evaluation, same ``extractGroups`` ordering, same stable sort,
same NULL handling — so the two backends are byte-for-byte interchangeable.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence

from repro.lang.functions import analytic_spec, apply_function
from repro.lang.predicates import AndPred, ColCmp, ConstCmp, FalsePred, \
    Predicate, TruePred, compare_values
from repro.semantics.groups import extract_groups
from repro.table.table import Table
from repro.table.values import value_sort_key


class ColumnBlock:
    """An immutable-by-convention column-major block of cells.

    ``columns[j][i]`` is the cell at row ``i``, column ``j``.  ``n_rows`` is
    carried explicitly so zero-column blocks stay well-defined.  Consumers
    must never mutate a column in place — kernels share column lists across
    blocks freely.
    """

    __slots__ = ("columns", "n_rows")

    def __init__(self, columns: Sequence[Sequence], n_rows: int) -> None:
        self.columns = tuple(columns)
        self.n_rows = n_rows

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @staticmethod
    def from_table(table: Table) -> "ColumnBlock":
        columns = [[row[j] for row in table.rows] for j in range(table.n_cols)]
        return ColumnBlock(columns, table.n_rows)

    def row_tuples(self) -> list[tuple]:
        """Materialize row-major tuples (only done at engine boundaries)."""
        if not self.columns:
            return [() for _ in range(self.n_rows)]
        return list(zip(*self.columns))

    def __repr__(self) -> str:
        return f"ColumnBlock({self.n_rows}x{self.n_cols})"


# ------------------------------------------------------------------ selection

def take_rows(block: ColumnBlock, indices: Sequence[int]) -> ColumnBlock:
    """Gather a row selection through every column."""
    columns = [[col[i] for i in indices] for col in block.columns]
    return ColumnBlock(columns, len(indices))


def select_columns(block: ColumnBlock, cols: Sequence[int]) -> ColumnBlock:
    """Projection: reuses the selected column lists without copying cells."""
    return ColumnBlock([block.columns[c] for c in cols], block.n_rows)


# ----------------------------------------------------------------- predicates

def predicate_mask(pred: Predicate, block: ColumnBlock) -> list[bool]:
    """Evaluate a predicate column-wise; falls back to row-wise for exotic
    predicate types so semantics always match ``pred.evaluate``."""
    n = block.n_rows
    if isinstance(pred, TruePred):
        return [True] * n
    if isinstance(pred, FalsePred):
        return [False] * n
    if isinstance(pred, ConstCmp):
        col, op, const = block.columns[pred.col], pred.op, pred.const
        return [compare_values(op, v, const) for v in col]
    if isinstance(pred, ColCmp):
        left, right = block.columns[pred.left], block.columns[pred.right]
        op = pred.op
        return [compare_values(op, a, b) for a, b in zip(left, right)]
    if isinstance(pred, AndPred):
        mask = [True] * n
        for part in pred.parts:
            part_mask = predicate_mask(part, block)
            mask = [m and p for m, p in zip(mask, part_mask)]
        return mask
    rows = block.row_tuples()
    return [pred.evaluate(row) for row in rows]


def filter_indices(block: ColumnBlock, pred: Predicate) -> list[int] | None:
    """Surviving row indices, or ``None`` when every row passes.

    The ``None`` form lets callers share the input block outright (and is
    how the engine's selection cache distinguishes "no gather needed").
    """
    mask = predicate_mask(pred, block)
    if all(mask):
        return None
    return [i for i, m in enumerate(mask) if m]


# ---------------------------------------------------------------------- joins

def pair_columns(left: ColumnBlock, right: ColumnBlock,
                 pairs: Sequence[tuple[int, int]]) -> ColumnBlock:
    """Assemble the join output for an explicit (left row, right row) list."""
    left_idx = [p[0] for p in pairs]
    right_idx = [p[1] for p in pairs]
    columns = [[col[i] for i in left_idx] for col in left.columns]
    columns += [[col[j] for j in right_idx] for col in right.columns]
    return ColumnBlock(columns, len(pairs))


def cross_join(left: ColumnBlock, right: ColumnBlock) -> ColumnBlock:
    """Pure cross product in nested-loop order (left-major)."""
    nl, nr = left.n_rows, right.n_rows
    columns = [[v for v in col for _ in range(nr)] for col in left.columns]
    columns += [col * nl if isinstance(col, list) else list(col) * nl
                for col in right.columns]
    return ColumnBlock(columns, nl * nr)


def join_pairs(left: ColumnBlock, right: ColumnBlock,
               pred: Predicate) -> list[tuple[int, int]]:
    """(left row, right row) index pairs surviving ``pred``, in nested-loop
    order — identical to the row interpreter's combined-row scan."""
    nl, nr = left.n_rows, right.n_rows
    n_left_cols = left.n_cols
    if isinstance(pred, ColCmp):
        # The common synthesis case: one comparison, each side resolvable to
        # a single column of one input — compare the two columns directly.
        a, b, op = pred.left, pred.right, pred.op
        if a < n_left_cols <= b:
            la, rb = left.columns[a], right.columns[b - n_left_cols]
            return [(i, j) for i, av in enumerate(la)
                    for j, bv in enumerate(rb) if compare_values(op, av, bv)]
        if a < n_left_cols and b < n_left_cols:
            ca, cb = left.columns[a], left.columns[b]
            keep = [i for i in range(nl) if compare_values(op, ca[i], cb[i])]
            return [(i, j) for i in keep for j in range(nr)]
        if a >= n_left_cols and b >= n_left_cols:
            ca, cb = right.columns[a - n_left_cols], right.columns[b - n_left_cols]
            keep = [j for j in range(nr) if compare_values(op, ca[j], cb[j])]
            return [(i, j) for i in range(nl) for j in keep]
    # General fallback: materialize each combined row for the predicate.
    left_rows = left.row_tuples()
    right_rows = right.row_tuples()
    return [(i, j) for i, lrow in enumerate(left_rows)
            for j, rrow in enumerate(right_rows)
            if pred.evaluate(lrow + rrow)]


def left_join_pairs(left: ColumnBlock, right: ColumnBlock,
                    pred: Predicate) -> list[tuple[int, int | None]]:
    """(left row, right row | None) pairs of a left outer join, in the row
    interpreter's output order — ``None`` marks a NULL-padded miss."""
    by_left: dict[int, list[int]] = {}
    for i, j in join_pairs(left, right, pred):
        by_left.setdefault(i, []).append(j)
    pairs: list[tuple[int, int | None]] = []
    for i in range(left.n_rows):
        js = by_left.get(i)
        if js:
            pairs.extend((i, j) for j in js)
        else:
            pairs.append((i, None))
    return pairs


def left_pair_columns(left: ColumnBlock, right: ColumnBlock,
                      pairs: Sequence[tuple[int, int | None]]) -> ColumnBlock:
    """Assemble a left-join output from :func:`left_join_pairs`."""
    left_idx = [p[0] for p in pairs]
    columns = [[col[i] for i in left_idx] for col in left.columns]
    columns += [[None if j is None else col[j] for _, j in pairs]
                for col in right.columns]
    return ColumnBlock(columns, len(pairs))


# ----------------------------------------------------------------------- sort

def sort_indices(block: ColumnBlock, cols: Sequence[int],
                 ascending: bool) -> list[int]:
    """The stable sort permutation (row indices in output order)."""
    key_cols = [block.columns[c] for c in cols]
    return sorted(
        range(block.n_rows),
        key=lambda i: tuple(value_sort_key(col[i]) for col in key_cols),
        reverse=not ascending)


# ----------------------------------------------------- grouping and analytics

def group_indices(block: ColumnBlock,
                  keys: Sequence[int]) -> list[list[int]]:
    """``extractGroups`` over the key columns (first-occurrence order)."""
    if not keys:
        # One global group (matches extract_groups over empty key tuples).
        return [list(range(block.n_rows))] if block.n_rows else []
    key_cols = [block.columns[k] for k in keys]
    key_rows = list(zip(*key_cols)) if block.n_rows else []
    return extract_groups(key_rows)


def group_key_columns(block: ColumnBlock, keys: Sequence[int],
                      groups: Sequence[Sequence[int]]) -> list[list]:
    """The key (representative) output columns of a group-aggregation."""
    return [[block.columns[k][g[0]] for g in groups] for k in keys]


def group_block(block: ColumnBlock, keys: Sequence[int], agg_func: str,
                agg_col: int,
                groups: Sequence[Sequence[int]] | None = None,
                key_columns: Sequence[list] | None = None) -> ColumnBlock:
    """Group-aggregation: one output row per group.

    ``groups`` and ``key_columns`` let the engine reuse one
    ``extractGroups`` result (and the identical key output columns) across
    all (agg_col, agg_func) sibling candidates sharing this child and key
    set.
    """
    if groups is None:
        groups = group_indices(block, keys)
    if key_columns is None:
        key_columns = group_key_columns(block, keys, groups)
    agg_values = block.columns[agg_col]
    columns = list(key_columns)
    columns.append([apply_function(agg_func, [agg_values[i] for i in g])
                    for g in groups])
    return ColumnBlock(columns, len(groups))


def partition_block(block: ColumnBlock, keys: Sequence[int], agg_func: str,
                    agg_col: int,
                    groups: Sequence[Sequence[int]] | None = None
                    ) -> ColumnBlock:
    """Partition-aggregation: all rows kept, one analytic value per row.

    ``groups`` — see :func:`group_block`.
    """
    if groups is None:
        groups = group_indices(block, keys)
    spec = analytic_spec(agg_func)
    agg_values = block.columns[agg_col]
    new_col: list = [None] * block.n_rows
    for g in groups:
        group_values = [agg_values[i] for i in g]
        _analytic_group(new_col, g, group_values, spec)
    return ColumnBlock(list(block.columns) + [new_col], block.n_rows)


def _analytic_group(out: list, g: Sequence[int], values: list,
                    spec) -> None:
    """One group's analytic column, computed in a single pass.

    Each fast path replays the exact arithmetic of the per-row reference
    (``apply_function(spec.term_name, spec.row_args(values, pos))``) — same
    operation order, same NULL handling — so results are bit-identical;
    shapes without a fast path fall back to that reference directly.
    """
    term = spec.term_name
    if spec.style == "all":
        # Every row sees the whole group: one application, shared by all.
        value = apply_function(term, tuple(values))
        for i in g:
            out[i] = value
        return
    if spec.style == "prefix" and term in ("sum", "avg", "max", "min"):
        # Running accumulation over non-null prefix values.  The reference
        # folds left-to-right from the same seed, so floats match bitwise.
        acc = 0 if term in ("sum", "avg") else None
        count = 0
        for pos, i in enumerate(g):
            v = values[pos]
            if v is not None:
                count += 1
                if term in ("sum", "avg"):
                    acc = acc + v
                elif acc is None:
                    acc = v
                elif term == "max":
                    acc = v if value_sort_key(v) > value_sort_key(acc) else acc
                else:
                    acc = v if value_sort_key(v) < value_sort_key(acc) else acc
            if term == "sum":
                out[i] = acc
            elif term == "avg":
                out[i] = acc / count if count else None
            else:
                out[i] = acc
        return
    if spec.style == "ranked" and term in ("rank", "rank_desc"):
        # rank(v) = 1 + |{u in group : u strictly better}|; counting through
        # one sorted key array replaces the reference's per-row O(n) scan.
        keys_sorted = sorted(value_sort_key(v) for v in values
                             if v is not None)
        for pos, i in enumerate(g):
            own = value_sort_key(values[pos])
            if term == "rank":
                out[i] = 1 + bisect_left(keys_sorted, own)
            else:
                out[i] = 1 + len(keys_sorted) - bisect_right(keys_sorted, own)
        return
    # Generic reference path (dense ranks, future analytics).
    for pos, i in enumerate(g):
        out[i] = apply_function(term, spec.row_args(values, pos))


def arithmetic_block(block: ColumnBlock, func: str,
                     cols: Sequence[int]) -> ColumnBlock:
    """Row-wise arithmetic: appends ``func(cols)`` as a new column."""
    if not cols:
        new_col = [apply_function(func, []) for _ in range(block.n_rows)]
    else:
        arg_cols = [block.columns[c] for c in cols]
        new_col = [apply_function(func, args) for args in zip(*arg_cols)]
    return ColumnBlock(list(block.columns) + [new_col], block.n_rows)
