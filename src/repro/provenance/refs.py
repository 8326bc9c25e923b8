"""The ``ref`` function (paper §4): input-cell references used by a term.

``ref`` drives the abstract consistency check (Definition 3): a demonstration
cell can only be realized by an abstract output cell whose over-approximated
provenance is a superset of the demonstration cell's references.

On the hot path reference sets are ints: a :class:`RefIndex` numbers an
environment's input cells, so a set of references is a bitset, union is
``|`` and ``need ⊆ have`` is ``need & ~have == 0``.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import reduce
from operator import or_

from repro.engine.cache import BoundedCache
from repro.provenance.expr import CellRef, Const, Expr, FuncApp, GroupSet

#: Compound terms whose bitsets one index remembers.
DEFAULT_TERM_CACHE = 50_000


def refs_of(expr: Expr) -> frozenset[CellRef]:
    """All :class:`CellRef` leaves of a term."""
    if isinstance(expr, CellRef):
        return frozenset((expr,))
    if isinstance(expr, Const):
        return frozenset()
    if isinstance(expr, (FuncApp, GroupSet)):
        out: frozenset[CellRef] = frozenset()
        for child in expr.children():
            out |= refs_of(child)
        return out
    raise TypeError(f"not a provenance term: {expr!r}")


class RefIndex:
    """Bit numbering of one environment's input cells.

    Tables are laid out in env order: cell ``T[row, col]`` is bit
    ``offset(T) + row * arity(T) + col``, where ``offset(T)`` counts the
    cells of the tables before ``T``.  The layout depends only on the
    tables' names and shapes, so two indexes over one env agree bit for
    bit.  A reference to no cell of the env (unknown table, row or column
    out of range) maps to one extra bit past the last cell, which no
    abstract cell ever holds — exactly as such a reference is in no
    frozenset of real cells.

    Tracked terms are immutable and shared by reference across the tracked
    tables of one engine, so the bitset of each compound term is numbered
    once and remembered by the term's identity.  Each entry pins its term,
    so the id cannot be recycled while the entry lives.

    An index is owned by an engine (see
    :meth:`~repro.engine.base.EvalEngine.ref_index`), which numbers its
    tracked terms and its demo analyses with it; it is never
    module-global and never pickled.
    """

    __slots__ = ("_layout", "_offsets", "_tables", "_foreign", "_terms")

    def __init__(self, env) -> None:
        #: name -> (offset, arity, rows); the first table of a name wins,
        #: as in ``Env.get``.
        self._layout: dict[str, tuple[int, int, int]] = {}
        self._offsets: list[int] = []
        self._tables: list[tuple[str, int]] = []
        offset = 0
        for table in env.tables:
            arity, rows = table.n_cols, table.n_rows
            self._layout.setdefault(table.name, (offset, arity, rows))
            if arity and rows:
                self._offsets.append(offset)
                self._tables.append((table.name, arity))
            offset += rows * arity
        self._foreign = 1 << offset
        self._terms: BoundedCache = BoundedCache(DEFAULT_TERM_CACHE)

    def __reduce__(self):
        raise TypeError("a RefIndex is process-local and never pickled")

    def bits(self, expr: Expr) -> int:
        """The bitset of ``refs_of(expr)``."""
        if isinstance(expr, CellRef):
            slot = self._layout.get(expr.table)
            if slot is None:
                return self._foreign
            offset, arity, rows = slot
            if not (0 <= expr.row < rows and 0 <= expr.col < arity):
                return self._foreign
            return 1 << (offset + expr.row * arity + expr.col)
        if isinstance(expr, Const):
            return 0
        if isinstance(expr, (FuncApp, GroupSet)):
            hit = self._terms.get(id(expr))
            if hit is not None and hit[0] is expr:
                return hit[1]
            out = 0
            for child in expr.children():
                out |= self.bits(child)
            self._terms[id(expr)] = (expr, out)
            return out
        raise TypeError(f"not a provenance term: {expr!r}")

    def column_bits(self, columns) -> tuple[int, ...]:
        """Per-column union of the bitsets of a tracked block's expression
        ``columns``."""
        bits = self.bits
        return tuple(reduce(or_, map(bits, column), 0) for column in columns)

    def decode(self, bits: int) -> frozenset[CellRef]:
        """The cell references of a bitset (the inverse of :meth:`bits`
        on references to cells of the env)."""
        if not 0 <= bits < self._foreign:
            raise ValueError("bitset holds a bit outside the env's cells")
        out = []
        while bits:
            low = bits & -bits
            pos = low.bit_length() - 1
            bits ^= low
            t = bisect_right(self._offsets, pos) - 1
            name, arity = self._tables[t]
            row, col = divmod(pos - self._offsets[t], arity)
            out.append(CellRef(name, row, col))
        return frozenset(out)
