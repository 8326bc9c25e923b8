"""NumPy-backed ColumnBlock kernels: the ``"numpy"`` engine backend.

:class:`NumpyEngine` is the :class:`~repro.engine.columnar.ColumnarEngine`
with its comparison-heavy kernels — filter predicates, join pair-building,
sort orders, group extraction, aggregation, window partitions and row-wise
arithmetic — replaced by vectorized NumPy implementations.  Everything
else (structural-key subtree caches, shared selections,
:class:`~repro.engine.tracked_columns.TrackedBlock` provenance tracking,
the incremental consistency checker) is inherited unchanged, which is how
the backend guarantees byte-identical results: the NumPy layer only ever
computes *selections* (row indices, join pairs, sort permutations, group
index lists) and *new value columns*, and both are converted back to the
exact Python objects the pure-python kernels would have produced.

Typed columns and the object-dtype escape hatch
-----------------------------------------------
``ColumnBlock`` columns stay plain Python lists (they are shared by
identity with the tracking path and the column-type cache); the engine
materializes a typed :class:`NDColumn` *shadow* per column, memoized by
column object identity.  A column is typed only when vectorized semantics
are provably identical to the reference kernels:

* ``int`` — every cell a Python ``int`` (never ``bool``) with magnitude
  ≤ 2⁵² so int64 arithmetic cannot overflow and float64 round-trips are
  exact;
* ``float`` — every cell a finite Python ``float`` (NaN/inf ordering and
  ``math.isclose`` edge cases stay on the reference path);
* ``str`` — every cell a ``str`` (NumPy's UCS-4 comparisons are
  code-point lexicographic, same as Python's).

Anything else — ``None`` cells, booleans, mixed classes, huge ints —
classifies as ``object`` and the kernel in question falls back to the
pure-python implementation in :mod:`repro.engine.columns`, cell-for-cell
the reference semantics.  ``value_eq``'s float tolerance is replicated
vectorized from the same :data:`~repro.table.values.FLOAT_REL_TOL` /
:data:`~repro.table.values.FLOAT_ABS_TOL` constants (including the
``a == b`` short-circuit, so infinities compare like ``math.isclose``).

Float accumulation uses ``np.add.accumulate`` / per-group fold orders that
NumPy documents as sequential left folds — bit-identical to the reference
``sum()`` loops; reductions NumPy computes pairwise (``np.sum``) are *not*
used for floats.  The synthesis loop's consistency masks are term-level
and remain pure-python today.  The cross-backend fuzz harness
(``tests/test_backend_fuzz.py``) and the registry-wide differential
suites enforce all of this.

Gate on import: :func:`make_numpy_engine` (wired into
``repro.engine.make_engine``) returns a ``ColumnarEngine`` with a logged
warning when NumPy is absent, so ``backend="numpy"`` is always safe to
request.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence

from repro.engine import columns as kernels
from repro.engine.cache import BoundedCache
from repro.engine.columnar import ALL_ROWS, DEFAULT_BLOCK_CACHE, \
    ColumnarEngine
from repro.lang import ast
from repro.lang.functions import analytic_spec
from repro.lang.predicates import AndPred, ColCmp, ConstCmp, FalsePred, \
    Predicate, TruePred
from repro.table.values import FLOAT_ABS_TOL, FLOAT_REL_TOL

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-NumPy CI leg
    np = None

HAVE_NUMPY = np is not None

_LOG = logging.getLogger("repro.engine")

#: Magnitude bound for typed int columns: int64-safe under add/sub and
#: exactly representable as float64 (so int-vs-float comparisons and int
#: divisions agree with Python's arbitrary-precision arithmetic).
INT_SAFE = 2**52
#: Tighter bound under which an int64 product cannot overflow.
_MUL_SAFE = 2**31

#: Sort-key classes of :func:`repro.table.values.value_sort_key`:
#: numbers < strings < booleans < NULL.
_CLASS_NUMBER, _CLASS_STRING, _CLASS_BOOL, _CLASS_NULL = 0, 1, 2, 3


def numpy_version() -> str | None:
    """The installed NumPy version, or ``None`` when unavailable."""
    return np.__version__ if HAVE_NUMPY else None


# ------------------------------------------------------------------ columns

class NDColumn:
    """A typed NumPy shadow of one ColumnBlock column.

    ``kind`` is ``"int"`` / ``"float"`` / ``"str"`` with ``array`` the
    typed ndarray, or ``"object"`` (``array is None``) when the column
    holds values the vectorized kernels must not touch.
    """

    __slots__ = ("kind", "array")

    def __init__(self, kind: str, array) -> None:
        self.kind = kind
        self.array = array

    @property
    def is_object(self) -> bool:
        return self.array is None

    @property
    def sort_class(self) -> int:
        return _CLASS_STRING if self.kind == "str" else _CLASS_NUMBER

    def __repr__(self) -> str:
        return f"NDColumn({self.kind})"


_OBJECT = NDColumn("object", None)


def classify_column(column: Sequence) -> NDColumn:
    """Type a column, or return the object escape hatch.

    ``type()`` identity (not ``isinstance``) keeps ``bool`` out of int
    columns — ``True == 1`` in Python but sorts in a different class.
    """
    if not len(column):
        return _OBJECT
    cls = type(column[0])
    for v in column:
        if type(v) is not cls:
            return _OBJECT
    if cls is int:
        if all(-INT_SAFE <= v <= INT_SAFE for v in column):
            return NDColumn("int", np.asarray(column, dtype=np.int64))
        return _OBJECT
    if cls is float:
        array = np.asarray(column, dtype=np.float64)
        if np.isfinite(array).all() and \
                not (np.signbit(array) & (array == 0.0)).any():
            # -0.0 stays on the object path: NumPy's min/max reductions
            # and accumulate seeds pick the other signed zero than the
            # reference fold (0.0 == -0.0, so == assertions can't tell,
            # but repr/CSV output would become backend-dependent).
            return NDColumn("float", array)
        return _OBJECT
    if cls is str:
        # NumPy's UCS-4 arrays truncate trailing NUL codepoints, so
        # "a\x00" would compare equal to "a" — keep such strings (found by
        # the cross-backend fuzz harness) on the object path.
        if any("\x00" in v for v in column):
            return _OBJECT
        return NDColumn("str", np.asarray(column, dtype=np.str_))
    return _OBJECT


def classify_value(value) -> tuple[int, object] | None:
    """(sort class, comparable value) of a constant, or ``None`` for
    values the vectorized comparisons must not touch."""
    if value is None or isinstance(value, bool):
        # None compares False everywhere; bools live in their own class
        # but a bool column is never typed, so keep constants symmetric.
        return (_CLASS_NULL if value is None else _CLASS_BOOL, value)
    if isinstance(value, int):
        return (_CLASS_NUMBER, value) if -INT_SAFE <= value <= INT_SAFE \
            else None
    if isinstance(value, float):
        return (_CLASS_NUMBER, value) if math.isfinite(value) else None
    if isinstance(value, str):
        # See classify_column: NUL-bearing strings lose their trailing
        # codepoints in NumPy's fixed-width unicode representation.
        return None if "\x00" in value else (_CLASS_STRING, value)
    return None


# -------------------------------------------------------------- comparisons

def _vec_eq(a, b, isclose: bool):
    """Vectorized ``value_eq`` over same-class operands.

    ``isclose`` replays ``math.isclose(a, b, rel_tol, abs_tol)`` exactly:
    ``a == b or |a-b| <= max(rel_tol * max(|a|, |b|), abs_tol)``.
    """
    if not isclose:
        return a == b
    with np.errstate(over="ignore"):
        # |a-b| may overflow to inf for finite extremes; inf <= tol is
        # False, exactly what math.isclose concludes — only NumPy's
        # warning must not escape (backend-dependent under -W error).
        tol = np.maximum(FLOAT_REL_TOL * np.maximum(np.abs(a), np.abs(b)),
                         FLOAT_ABS_TOL)
        return (a == b) | (np.abs(a - b) <= tol)


def _vec_compare(op: str, a, b, isclose: bool):
    if op == "==":
        return _vec_eq(a, b, isclose)
    if op == "!=":
        return ~_vec_eq(a, b, isclose)
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


def _class_compare(op: str, class_a: int, class_b: int, shape):
    """Cross-class comparison: constant over the whole shape.

    ``value_sort_key`` orders whole classes before values, so e.g. every
    number is ``<`` every string; ``==`` across classes is always False
    (and ``!=`` True — both operands are known non-NULL here).
    """
    if op == "==":
        result = False
    elif op == "!=":
        result = True
    elif op == "<":
        result = class_a < class_b
    elif op == "<=":
        result = class_a <= class_b
    elif op == ">":
        result = class_a > class_b
    else:
        result = class_a >= class_b
    return np.full(shape, result, dtype=bool)


def compare_const(nd: NDColumn, op: str, const):
    """Column-vs-constant boolean mask, or ``None`` to fall back."""
    if nd.is_object:
        return None
    spec = classify_value(const)
    if spec is None:
        return None
    const_class, const_value = spec
    n = len(nd.array)
    if const_value is None:
        # NULL never satisfies any comparison (SQL WHERE semantics).
        return np.zeros(n, dtype=bool)
    if nd.sort_class != const_class:
        return _class_compare(op, nd.sort_class, const_class, n)
    if nd.kind == "str":
        return _vec_compare(op, nd.array, const_value, isclose=False)
    if nd.kind == "int" and isinstance(const_value, int):
        return _vec_compare(op, nd.array, const_value, isclose=False)
    # A float is involved: value_eq compares via math.isclose.
    return _vec_compare(op, nd.array.astype(np.float64, copy=False),
                        np.float64(const_value), isclose=True)


def compare_columns(nd_a: NDColumn, nd_b: NDColumn, op: str, outer: bool):
    """Column-vs-column boolean mask (elementwise, or the full outer
    comparison matrix in nested-loop orientation), or ``None``."""
    if nd_a.is_object or nd_b.is_object:
        return None
    a, b = nd_a.array, nd_b.array
    if outer:
        a = a[:, None]
    if nd_a.sort_class != nd_b.sort_class:
        shape = (len(nd_a.array), len(nd_b.array)) if outer \
            else len(nd_a.array)
        return _class_compare(op, nd_a.sort_class, nd_b.sort_class, shape)
    if nd_a.kind == "str":
        return _vec_compare(op, a, b, isclose=False)
    if nd_a.kind == "int" and nd_b.kind == "int":
        return _vec_compare(op, a, b, isclose=False)
    return _vec_compare(op, a.astype(np.float64, copy=False),
                        b.astype(np.float64, copy=False), isclose=True)


def predicate_mask(pred: Predicate, block: kernels.ColumnBlock,
                   ndcol) -> "np.ndarray | None":
    """Vectorized :func:`repro.engine.columns.predicate_mask`, or ``None``
    when some operand needs the reference path.  ``ndcol`` maps a column
    list to its cached :class:`NDColumn`."""
    n = block.n_rows
    if isinstance(pred, TruePred):
        return np.ones(n, dtype=bool)
    if isinstance(pred, FalsePred):
        return np.zeros(n, dtype=bool)
    if isinstance(pred, ConstCmp):
        return compare_const(ndcol(block.columns[pred.col]), pred.op,
                             pred.const)
    if isinstance(pred, ColCmp):
        return compare_columns(ndcol(block.columns[pred.left]),
                               ndcol(block.columns[pred.right]),
                               pred.op, outer=False)
    if isinstance(pred, AndPred):
        mask = np.ones(n, dtype=bool)
        for part in pred.parts:
            part_mask = predicate_mask(part, block, ndcol)
            if part_mask is None:
                return None
            mask &= part_mask
        return mask
    return None


# ---------------------------------------------------------------- selections

def filter_indices(block: kernels.ColumnBlock, pred: Predicate,
                   ndcol) -> "list[int] | None | type(NotImplemented)":
    """Surviving row indices (``None`` = all rows), or ``NotImplemented``
    to fall back to the reference kernel."""
    mask = predicate_mask(pred, block, ndcol)
    if mask is None:
        return NotImplemented
    if mask.all():
        return None
    return np.flatnonzero(mask).tolist()


def join_pairs(left: kernels.ColumnBlock, right: kernels.ColumnBlock,
               pred: Predicate, ndcol):
    """Vectorized (left row, right row) pair list in nested-loop order,
    or ``NotImplemented``.  Mirrors the reference kernel's ``ColCmp``
    fast paths; other predicate shapes fall back."""
    if not isinstance(pred, ColCmp):
        return NotImplemented
    nl, nr = left.n_rows, right.n_rows
    n_left_cols = left.n_cols
    a, b, op = pred.left, pred.right, pred.op
    if a < n_left_cols <= b:
        matrix = compare_columns(ndcol(left.columns[a]),
                                 ndcol(right.columns[b - n_left_cols]),
                                 op, outer=True)
        if matrix is None:
            return NotImplemented
        ii, jj = np.nonzero(matrix)          # C order == left-major scan
        return list(zip(ii.tolist(), jj.tolist()))
    if a < n_left_cols and b < n_left_cols:
        mask = compare_columns(ndcol(left.columns[a]), ndcol(left.columns[b]),
                               op, outer=False)
        if mask is None:
            return NotImplemented
        keep = np.flatnonzero(mask)
        ii = np.repeat(keep, nr)
        jj = np.tile(np.arange(nr), len(keep))
        return list(zip(ii.tolist(), jj.tolist()))
    if a >= n_left_cols and b >= n_left_cols:
        mask = compare_columns(ndcol(right.columns[a - n_left_cols]),
                               ndcol(right.columns[b - n_left_cols]),
                               op, outer=False)
        if mask is None:
            return NotImplemented
        keep = np.flatnonzero(mask)
        ii = np.repeat(np.arange(nl), len(keep))
        jj = np.tile(keep, nl)
        return list(zip(ii.tolist(), jj.tolist()))
    return NotImplemented


def _sort_codes(nd: NDColumn) -> "np.ndarray | None":
    """An int64/float64 key array whose ascending order (and ties) equal
    ``value_sort_key`` order over the column, and which is negatable for
    descending sorts."""
    if nd.is_object:
        return None
    if nd.kind == "str":
        # Rank-encode: np.unique sorts exactly like Python str comparison,
        # and integer codes negate cleanly for descending keys.
        _, inverse = np.unique(nd.array, return_inverse=True)
        return inverse.astype(np.int64, copy=False)
    return nd.array


def sort_indices(block: kernels.ColumnBlock, cols: Sequence[int],
                 ascending: bool, ndcol):
    """Vectorized stable sort permutation, or ``NotImplemented``.

    Typed key columns hold one sort class each, so their natural order is
    ``value_sort_key`` order.  ``np.lexsort`` is stable, and descending
    order negates every key — for numeric keys that is exactly
    ``sorted(reverse=True)``: descending values, ties in original order.
    """
    codes = [_sort_codes(ndcol(block.columns[c])) for c in cols]
    if any(code is None for code in codes):
        return NotImplemented
    if not ascending:
        codes = [-code for code in codes]
    return np.lexsort(tuple(reversed(codes))).tolist()


def group_rows(block: kernels.ColumnBlock, keys: Sequence[int], ndcol):
    """Vectorized ``extractGroups``, or ``NotImplemented``.

    Only int and str key columns vectorize: their ``canonical()`` form is
    the identity, so ``np.unique`` equality is exactly the reference
    bucketing.  Float keys (canonical rounds to 9 decimals) and object
    columns stay on the reference path.
    """
    if not keys or not block.n_rows:
        return NotImplemented
    codes = []
    for k in keys:
        nd = ndcol(block.columns[k])
        if nd.is_object or nd.kind == "float":
            return NotImplemented
        _, inverse = np.unique(nd.array, return_inverse=True)
        codes.append(inverse.astype(np.int64, copy=False))
    combined = codes[0]
    for code in codes[1:]:
        combined = combined * (int(code.max()) + 1) + code
    order = np.argsort(combined, kind="stable")
    sorted_codes = combined[order]
    boundaries = np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1
    groups = [g.tolist() for g in np.split(order, boundaries)]
    # Stable argsort keeps each group's rows in table order, so g[0] is the
    # group's first occurrence — sort groups into first-occurrence order.
    groups.sort(key=lambda g: g[0])
    return groups


# -------------------------------------------------------------- aggregation

def _group_layout(groups: Sequence[Sequence[int]]):
    """(flat gather indices, reduceat offsets, group sizes)."""
    flat = np.concatenate([np.asarray(g, dtype=np.intp) for g in groups])
    sizes = np.asarray([len(g) for g in groups], dtype=np.intp)
    offsets = np.zeros(len(sizes), dtype=np.intp)
    np.cumsum(sizes[:-1], out=offsets[1:])
    return flat, offsets, sizes


def _ordinal_view(nd: NDColumn):
    """(key array, decoder) for order-based reductions.

    ``np.maximum``/``np.minimum`` have no unicode loops, so string columns
    reduce over their ``np.unique`` rank codes and decode the winners back
    through the unique-value array; numeric columns reduce directly
    (decoder ``None``).  Rank codes preserve exact ``value_sort_key``
    order within the column's class, so the decoded extremum is the very
    value the reference fold keeps.
    """
    if nd.kind != "str":
        return nd.array, None
    uniq, inverse = np.unique(nd.array, return_inverse=True)
    return inverse.astype(np.int64, copy=False), uniq


def _int_sums_exact(nd: NDColumn, n_values: int) -> bool:
    """True when every partial int64 sum of up to ``n_values`` cells is
    exact in int64 *and* float64 (Python int arithmetic never rounds, so
    vectorized sums must provably not either)."""
    if nd.kind != "int" or not n_values:
        return False
    return int(np.abs(nd.array).max()) * n_values <= INT_SAFE


def group_aggregate(nd: NDColumn, agg_func: str,
                    groups: Sequence[Sequence[int]]):
    """One aggregated Python value per group, or ``NotImplemented``.

    Vectorizes the order-insensitive/exact cases: int sums (and the
    int-sum-over-count ``avg``) when every partial sum is provably exact,
    min/max of any typed column, and ``count`` (typed columns hold no
    NULLs).  Float ``sum``/``avg`` keep the reference left-fold so
    summation order — and therefore bit patterns — match the row engine.
    """
    if not groups:
        return []
    if nd.is_object:
        return NotImplemented
    if agg_func == "count":
        return [len(g) for g in groups]
    flat, offsets, sizes = _group_layout(groups)
    if agg_func in ("max", "min"):
        reducer = np.maximum if agg_func == "max" else np.minimum
        keys, decode = _ordinal_view(nd)
        winners = reducer.reduceat(keys[flat], offsets)
        if decode is not None:
            winners = decode[winners]
        return winners.tolist()
    if agg_func in ("sum", "avg") and \
            _int_sums_exact(nd, int(sizes.max())):
        sums = np.add.reduceat(nd.array[flat], offsets).tolist()
        if agg_func == "sum":
            return sums
        return [s / int(n) for s, n in zip(sums, sizes.tolist())]
    return NotImplemented


def partition_column(nd: NDColumn, spec, groups: Sequence[Sequence[int]],
                     n_rows: int):
    """The analytic output column as a Python list, or ``NotImplemented``.

    * ``"all"`` — one vectorized group aggregate broadcast to its rows
      (same shared-per-group value the reference kernel emits);
    * ``"prefix"`` — ``np.add.accumulate`` / ``maximum.accumulate`` per
      group; NumPy documents accumulation as the sequential left fold, so
      float ``cumsum``/``cumavg`` bit-match the reference loop;
    * ``"ranked"`` — ``rank``/``rank_desc`` via one ``searchsorted`` per
      group (the reference's sorted-keys + bisect, vectorized).

    ``dense_rank`` variants (tolerance-based distinctness) and object
    columns fall back.
    """
    if nd.is_object or not groups:
        return NotImplemented
    term = spec.term_name
    out: list = [None] * n_rows
    if spec.style == "all":
        agg = group_aggregate(nd, term, groups)
        if agg is NotImplemented:
            return NotImplemented
        for value, g in zip(agg, groups):
            for i in g:
                out[i] = value
        return out
    if spec.style == "prefix":
        if term not in ("sum", "avg", "max", "min"):
            return NotImplemented
        if term in ("sum", "avg"):
            if nd.kind == "str":
                # The reference raises TypeError summing strings — that is
                # an ill-typed-candidate signal the fallback must deliver.
                return NotImplemented
            if nd.kind == "int" and \
                    not _int_sums_exact(nd, max(len(g) for g in groups)):
                return NotImplemented
        keys, decode = _ordinal_view(nd)
        for g in groups:
            values = keys[np.asarray(g, dtype=np.intp)]
            if term in ("sum", "avg"):
                acc = np.add.accumulate(values)
                if term == "avg":
                    acc = acc / np.arange(1, len(g) + 1)
            elif term == "max":
                acc = np.maximum.accumulate(values)
            else:
                acc = np.minimum.accumulate(values)
            if decode is not None:
                acc = decode[acc]
            for i, value in zip(g, acc.tolist()):
                out[i] = value
        return out
    if spec.style == "ranked" and term in ("rank", "rank_desc"):
        keys, _ = _ordinal_view(nd)
        for g in groups:
            values = keys[np.asarray(g, dtype=np.intp)]
            keys_sorted = np.sort(values, kind="stable")
            if term == "rank":
                ranks = np.searchsorted(keys_sorted, values, side="left") + 1
            else:
                ranks = len(g) - np.searchsorted(keys_sorted, values,
                                                 side="right") + 1
            for i, rank in zip(g, ranks.tolist()):
                out[i] = rank
        return out
    return NotImplemented


# --------------------------------------------------------------- arithmetic

def arithmetic_column(nd_x: NDColumn, nd_y: NDColumn, func: str, n_rows: int):
    """``func(x, y)`` as a Python value list, or ``NotImplemented``.

    Binary arithmetic over typed numeric columns: int ``add``/``sub``
    stay int64 (magnitudes are INT_SAFE-bounded, so no overflow), int
    ``mul`` additionally requires :data:`_MUL_SAFE` operands; every
    division routes through float64 — exact, because both operands are
    exactly representable, and a correctly-rounded float64 quotient of
    exact operands equals Python's correctly-rounded ``int / int``.
    Zero divisors and NULL operands are the reference's ``None``.
    """
    if nd_x.is_object or nd_y.is_object or \
            nd_x.sort_class != _CLASS_NUMBER or \
            nd_y.sort_class != _CLASS_NUMBER:
        return NotImplemented
    x, y = nd_x.array, nd_y.array
    both_int = nd_x.kind == "int" and nd_y.kind == "int"
    # Python float arithmetic overflows silently to inf; NumPy warns.
    # Results are the same IEEE values either way — only the warning
    # channel differs, and under warnings-as-errors it would become a
    # backend-dependent exception, so silence the whole block.
    if func in ("add", "sub", "mul"):
        if func == "mul" and both_int and (
                np.abs(x).max(initial=0) > _MUL_SAFE
                or np.abs(y).max(initial=0) > _MUL_SAFE):
            return NotImplemented
        if not both_int:
            x = x.astype(np.float64, copy=False)
            y = y.astype(np.float64, copy=False)
        with np.errstate(over="ignore"):
            if func == "add":
                return (x + y).tolist()
            if func == "sub":
                return (x - y).tolist()
            return (x * y).tolist()
    if func not in ("div", "percent", "pct_change"):
        return NotImplemented
    xf = x.astype(np.float64, copy=False)
    yf = y.astype(np.float64, copy=False)
    zero = y == 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if func == "div":
            result = xf / yf
        elif func == "percent":
            result = xf / yf * 100
        else:
            if both_int:
                diff = (x - y).astype(np.float64)
            else:
                diff = xf - yf
            result = diff / yf * 100
    values = result.tolist()
    if zero.any():
        for i in np.flatnonzero(zero).tolist():
            values[i] = None
    return values


# ------------------------------------------------------------------- engine

class NumpyEngine(ColumnarEngine):
    """Columnar engine with NumPy kernels on the comparison hot paths.

    Subclasses :class:`ColumnarEngine` and overrides only the shared
    selection/column computations; caches, batching, tracking and the
    consistency checker are inherited, so the two backends share one
    behavior by construction wherever NumPy offers no win.
    """

    name = "numpy"

    def __init__(self, *args, **kwargs) -> None:
        if not HAVE_NUMPY:  # pragma: no cover - guarded by make_engine
            raise RuntimeError("NumpyEngine requires NumPy")
        super().__init__(*args, **kwargs)
        # id(column list) -> (column, NDColumn); the entry pins the column
        # alive so the id cannot be recycled (same pattern as _col_types).
        self._nd_columns: BoundedCache = BoundedCache(DEFAULT_BLOCK_CACHE)

    def reset(self) -> None:
        super().reset()
        self._nd_columns.clear()

    def _ndcol(self, column) -> NDColumn:
        entry = self._nd_columns.get(id(column))
        if entry is not None and entry[0] is column:
            return entry[1]
        nd = classify_column(column)
        self._nd_columns[id(column)] = (column, nd)
        return nd

    # ------------------------------------------------- vectorized selections
    def _filter_keep(self, query: ast.Filter, env: ast.Env):
        key = (query, env)
        hit = self._selections.get(key)
        if hit is None:
            child = self._block(query.child, env)
            keep = filter_indices(child, query.pred, self._ndcol)
            if keep is NotImplemented:
                keep = kernels.filter_indices(child, query.pred)
            self._selections[key] = ALL_ROWS if keep is None else keep
            return keep
        return None if hit is ALL_ROWS else hit

    def _join_pairs(self, query: ast.Join, env: ast.Env) -> list:
        key = (query, env)
        hit = self._selections.get(key)
        if hit is None:
            left = self._block(query.left, env)
            right = self._block(query.right, env)
            hit = join_pairs(left, right, query.pred, self._ndcol)
            if hit is NotImplemented:
                hit = kernels.join_pairs(left, right, query.pred)
            self._selections[key] = hit
        return hit

    def _left_join_pairs(self, query: ast.LeftJoin, env: ast.Env) -> list:
        key = (query, env)
        hit = self._selections.get(key)
        if hit is None:
            left = self._block(query.left, env)
            right = self._block(query.right, env)
            matched = join_pairs(left, right, query.pred, self._ndcol)
            if matched is NotImplemented:
                matched = kernels.join_pairs(left, right, query.pred)
            hit = kernels.left_pairs_from_matched(matched, left.n_rows)
            self._selections[key] = hit
        return hit

    def _sort_order(self, query: ast.Sort, env: ast.Env) -> list[int]:
        key = (query, env)
        hit = self._selections.get(key)
        if hit is None:
            child = self._block(query.child, env)
            hit = sort_indices(child, query.cols, query.ascending,
                               self._ndcol)
            if hit is NotImplemented:
                hit = kernels.sort_indices(child, query.cols, query.ascending)
            self._selections[key] = hit
        return hit

    def _groups(self, child_query: ast.Query, env: ast.Env,
                keys, child_block: kernels.ColumnBlock):
        key = (child_query, env, keys)
        hit = self._groupings.get(key)
        if hit is None:
            hit = group_rows(child_block, keys, self._ndcol)
            if hit is NotImplemented:
                hit = kernels.group_indices(child_block, keys)
            self._groupings[key] = hit
        return hit

    # --------------------------------------------------- vectorized columns
    def _compute_block(self, query: ast.Query,
                       env: ast.Env) -> kernels.ColumnBlock:
        if isinstance(query, ast.Group):
            child = self._block(query.child, env)
            groups = self._groups(query.child, env, query.keys, child)
            key_columns = self._key_columns(query.child, env, query.keys,
                                            child, groups)
            agg = group_aggregate(self._ndcol(child.columns[query.agg_col]),
                                  query.agg_func, groups)
            if agg is not NotImplemented:
                columns = list(key_columns)
                columns.append(agg)
                return kernels.ColumnBlock(columns, len(groups))
            return kernels.group_block(child, query.keys, query.agg_func,
                                       query.agg_col, groups, key_columns)

        if isinstance(query, ast.Partition):
            child = self._block(query.child, env)
            groups = self._groups(query.child, env, query.keys, child)
            new_col = partition_column(
                self._ndcol(child.columns[query.agg_col]),
                analytic_spec(query.agg_func), groups, child.n_rows)
            if new_col is not NotImplemented:
                return kernels.ColumnBlock(list(child.columns) + [new_col],
                                           child.n_rows)
            return kernels.partition_block(child, query.keys, query.agg_func,
                                           query.agg_col, groups)

        if isinstance(query, ast.Arithmetic) and len(query.cols) == 2:
            child = self._block(query.child, env)
            new_col = arithmetic_column(
                self._ndcol(child.columns[query.cols[0]]),
                self._ndcol(child.columns[query.cols[1]]),
                query.func, child.n_rows)
            if new_col is not NotImplemented:
                return kernels.ColumnBlock(list(child.columns) + [new_col],
                                           child.n_rows)
            return kernels.arithmetic_block(child, query.func, query.cols)

        return super()._compute_block(query, env)


_warned_fallback = False


def make_numpy_engine(**kwargs):
    """The ``"numpy"`` backend factory behind ``make_engine``.

    Falls back to a :class:`ColumnarEngine` with a logged warning when
    NumPy is not importable — results are identical either way, only the
    kernel speed differs, so the knob is always safe to set.
    """
    if HAVE_NUMPY:
        return NumpyEngine(**kwargs)
    global _warned_fallback
    if not _warned_fallback:
        _LOG.warning(
            "backend='numpy' requested but NumPy is not installed; "
            "falling back to the pure-python columnar engine "
            "(pip install -e .[numpy] to enable the vectorized kernels)")
        _warned_fallback = True
    return ColumnarEngine(**kwargs)
