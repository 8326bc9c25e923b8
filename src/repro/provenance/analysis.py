"""One reading of a demonstration against one environment.

Definition 1 (``E ≺ [[q(T̄)]]★``) and Definition 3 (``E ◁ T◦``) ask one
question: do injective row and column assignments embed the
demonstration into a table?  They differ only in the test of one table
cell against one demonstration cell.  So everything the two checks, the
value baseline and hole-domain ordering read from a demonstration is
derived here, once per (demonstration, env), in a :class:`DemoAnalysis`:

* the simplified cells, column-major (Definition 1 matches against them);
* each cell's input references, as bits of the env's
  :class:`~repro.provenance.refs.RefIndex` (the engine's, so terms are
  numbered once), and its head kind (Definition 3);
* each cell's value, or :data:`NO_VALUE` for a partial ``f♦`` cell
  (Definition 3's value shadows and the value baseline; ``None`` is a
  real value);
* per concrete child query, the child columns the demonstration points
  at (hole-domain ordering).

:meth:`DemoAnalysis.embeds` is the one embedding routine.  A check
supplies its :class:`CellTest`; the routine judges each distinct cell of a
column once, broadcasts the verdict over the cell's row bits, memoizes the
resulting masks per column identity (pinning the column), applies the
column-level prune and runs
:func:`~repro.util.matching.bitset_embedding_exists`.  Table columns are
shared by identity across sibling queries — tracked columns by the
engine's kernels, abstract columns by the analyzer — so a sibling pays for
its new column only.

Each engine owns its analyses (:meth:`~repro.engine.base.EvalEngine.demo_analysis`),
next to its ref indexes: no module-global state, and ``reset()`` drops
them with the rest of the engine's caches.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence
from functools import reduce
from operator import or_
from typing import NamedTuple

from repro.engine.cache import BoundedCache
from repro.errors import ExpressionError
from repro.lang.functions import function_spec
from repro.provenance.demo import Demonstration
from repro.provenance.expr import CellRef, FuncApp
from repro.provenance.simplify import simplify
from repro.util.matching import bitset_embedding_exists, column_options

#: The value of a demonstration cell that cannot be computed (a partial
#: ``f♦`` term).
NO_VALUE = object()

#: Column mask matrices (one memo for every cell test), and children's
#: suggested columns, one analysis keeps.
DEFAULT_MASK_CACHE = 50_000
DEFAULT_SUGGESTION_CACHE = 5_000


class CellTest(NamedTuple):
    """How one consistency check tests a table cell against a demo cell.

    ``demands(analysis)`` gives, per demo column and row, what the demo
    cell asks of a host cell (built once per analysis);
    ``fits(cell, demand)`` is the test.  Cells with one ``key(cell)`` are
    judged once per column.  Tests are module constants: analyses key their
    memos by a test's identity.
    """

    key: Callable[[object], Hashable]
    demands: Callable[["DemoAnalysis"], Sequence[Sequence[object]]]
    fits: Callable[[object, object], bool]


class DemoAnalysis:
    """A demonstration read against one env; see the module doc.

    Column-major throughout: ``columns[j][i]``, ``refs[j][i]``,
    ``heads[j][i]`` and ``values[j][i]`` describe demo cell ``(i, j)``.
    Refs, heads and values read the cells as given; ``columns`` holds them
    simplified (a no-op for :meth:`Demonstration.of` grids).
    """

    __slots__ = ("demo", "env", "n_rows", "n_cols", "columns", "refs",
                 "heads", "_index", "_values", "_demands", "_masks",
                 "_key_needs", "_agg_needs", "_suggestions")

    def __init__(self, demo: Demonstration, env, index) -> None:
        self.demo = demo
        self.env = env
        self.n_rows, self.n_cols = demo.n_rows, demo.n_cols
        cells = tuple(zip(*demo.cells))
        self.columns = tuple(tuple(map(simplify, column)) for column in cells)
        self.refs = tuple(tuple(map(index.bits, column)) for column in cells)
        self.heads = tuple(tuple(function_spec(e.func).kind
                                 if isinstance(e, FuncApp) else "ref"
                                 for e in column) for column in cells)
        self._index = index
        self._values = None
        self._demands: dict[CellTest, Sequence] = {}
        self._masks: BoundedCache = BoundedCache(DEFAULT_MASK_CACHE)
        # Hole-domain ordering: per all-reference demo column the refs a
        # key column must cover, and each function-headed cell's refs.
        self._key_needs = tuple(
            reduce(or_, refs, 0) for column, refs in zip(cells, self.refs)
            if all(isinstance(e, CellRef) for e in column))
        self._agg_needs = tuple(
            need for column, refs in zip(cells, self.refs)
            for e, need in zip(column, refs)
            if need and isinstance(e, FuncApp))
        self._suggestions: BoundedCache = BoundedCache(
            DEFAULT_SUGGESTION_CACHE)

    @property
    def values(self) -> tuple[tuple[object, ...], ...]:
        """Each cell's value under the env, :data:`NO_VALUE` where partial
        (computed on first use)."""
        if self._values is None:
            self._values = tuple(tuple(map(self._value, column))
                                 for column in zip(*self.demo.cells))
        return self._values

    def _value(self, expr) -> object:
        try:
            return expr.evaluate(self.env)
        except ExpressionError:
            return NO_VALUE

    # ------------------------------------------------------------ embedding
    def embeds(self, columns: Sequence[Sequence], n_rows: int,
               test: CellTest, stats=None) -> bool:
        """Do injective row and column assignments embed the demonstration
        into the table of ``columns`` (``n_rows`` rows each) under
        ``test``?

        With ``stats`` (the engine's, for Definition 1), mask matrices
        computed and reused count as ``col_match_evals``/``col_match_hits``
        and a column-stage refutation as ``consistency_col_pruned``.
        """
        options = None
        if self.n_rows <= n_rows and self.n_cols <= len(columns):
            memo, test_id = self._masks, id(test)
            matrices = []
            for column in columns:
                # An entry pins its column and test, so neither id can be
                # recycled while it lives.
                hit = memo.get((id(column), test_id))
                if hit is not None and hit[0] is column:
                    if stats is not None:
                        stats.col_match_hits += 1
                    matrices.append(hit[2])
                    continue
                if stats is not None:
                    stats.col_match_evals += 1
                matrix = self._matrix(column, test)
                memo[(id(column), test_id)] = (column, test, matrix)
                matrices.append(matrix)
            options = column_options(matrices, self.n_cols)
        if options is None:
            if stats is not None:
                stats.consistency_col_pruned += 1
            return False
        return bitset_embedding_exists(options, self.n_rows, n_rows)

    def _matrix(self, column, test: CellTest
                ) -> tuple[tuple[int, ...] | None, ...]:
        """The column's masks: per demo column ``j``, per demo row ``i``,
        the bits of the column's rows whose cell fits demo cell ``(i, j)``;
        ``None`` for ``j`` when some demo row has no such row."""
        demands = self._demands.get(test)
        if demands is None:
            demands = self._demands[test] = test.demands(self)
        distinct: dict = {}
        cell_key, bit = test.key, 1
        for cell in column:
            k = cell_key(cell)
            entry = distinct.get(k)
            if entry is None:
                distinct[k] = [cell, bit]
            else:
                entry[1] |= bit
            bit <<= 1
        cells = list(distinct.values())
        fits = test.fits
        matrix = []
        for demo_column in demands:
            masks: list[int] | None = []
            for demand in demo_column:
                mask = 0
                for cell, rows in cells:
                    if fits(cell, demand):
                        mask |= rows
                if not mask:
                    masks = None
                    break
                masks.append(mask)
            matrix.append(None if masks is None else tuple(masks))
        return tuple(matrix)

    # ------------------------------------------------- hole-domain ordering
    def suggested_columns(self, child, engine
                          ) -> tuple[frozenset[int], frozenset[int]]:
        """``(key columns, aggregation columns)`` of the concrete ``child``
        that the demonstration points at, once per child.

        A key column covers every reference of some all-reference demo
        column; an aggregation column covers the references of some
        function-headed demo cell.  ``engine`` is the one that owns this
        analysis; the child's refs come from its tracked block.
        """
        hit = self._suggestions.get(child)
        if hit is None:
            block = engine.tracked_blocks_many((child,), self.env)[0]
            col_refs = self._index.column_bits(block.expr_columns)
            hit = self._suggestions[child] = (
                _covering(col_refs, self._key_needs),
                _covering(col_refs, self._agg_needs))
        return hit


def _covering(col_refs, needs) -> frozenset[int]:
    """The columns whose refs cover some ``needs`` entry."""
    return frozenset(c for c, refs in enumerate(col_refs)
                     if any(not need & ~refs for need in needs))
