"""Abstract tables: columns of over-approximated provenance sets.

Each abstract cell carries

* ``refs`` — a set of input-cell references over-approximating every input
  value that can flow into this position under *any* instantiation of the
  partial query (the paper's ``T◦[i, j]``), as a bitset over the env's
  :class:`~repro.provenance.refs.RefIndex` numbering, and
* an optional concrete shadow value (``known`` + ``value``) — exact cell
  values survive operators that only move rows around, and they are what
  lets the analyzer apply the *strong* abstraction tier (grouping needs
  concrete key values: ``extractGroups([[T◦[c̄]]])``).

Tables are column-major: a tuple of cell columns.  Operators that keep
their child's columns (filter, sort, projection) reuse the column objects,
and those that add one (partition, arithmetic) append it to them, so
sibling partial queries share every column their parameters do not
change.  The analyzer and the Definition-3 check key their memos by the
identity of such pinned columns, and key by content only through
:func:`column_key`, which tells apart the values ``value_eq`` tells apart.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.table.values import Value


#: What kind of term a cell can hold under the tracking semantics:
#: ``ref`` — raw input references (and group{} collapses of them);
#: ``aggregate`` / ``ranker`` / ``arithmetic`` — terms headed by a function
#: of that registry kind; ``window`` — an uninstantiated partition output
#: (either an aggregate or a ranker); ``any`` — no information.
HEAD_REF = "ref"
HEAD_AGGREGATE = "aggregate"
HEAD_RANKER = "ranker"
HEAD_ARITHMETIC = "arithmetic"
HEAD_WINDOW = "window"
HEAD_ANY = "any"
HEADS = (HEAD_REF, HEAD_AGGREGATE, HEAD_RANKER, HEAD_ARITHMETIC, HEAD_WINDOW,
         HEAD_ANY)


def head_matches(demo_kind: str, host_head: str) -> bool:
    """Can a cell with producer ``host_head`` generalize a demo cell whose
    outermost term has ``demo_kind``?"""
    if host_head == HEAD_ANY:
        return True
    if host_head == HEAD_WINDOW:
        return demo_kind in (HEAD_AGGREGATE, HEAD_RANKER)
    return demo_kind == host_head


class AbstractCell(NamedTuple):
    """One cell of an abstract table (a tuple: C-level hash and equality).

    Only known cells carry a value, so a cell's fields, with its value's
    type, are its signature (see :func:`column_key`).
    """

    refs: int
    value: Value = None
    known: bool = False
    head: str = HEAD_ANY

    @staticmethod
    def unknown(refs: int, head: str = HEAD_ANY) -> "AbstractCell":
        return AbstractCell(refs, None, False, head)


def column_key(column: tuple[AbstractCell, ...]) -> tuple:
    """A content key for a cell column that is equal only for columns
    ``value_eq`` cannot tell apart.

    Python equates ``True`` with ``1`` and ``False`` with ``0``, and
    ``value_eq`` does not, so the key pairs the cells with their value
    types.
    """
    return column, tuple([cell.value.__class__ for cell in column])


class AbstractTable(NamedTuple):
    """An abstract output ``T◦``: ``n_rows`` rows, stored as ``columns`` of
    :class:`AbstractCell` (a tuple, like its cells).

    A table without rows has no columns either (it has no cells), as the
    row grid it abstracts.  ``rows_exact`` records whether the row *set* is
    exact or a superset of every possible instantiation's rows (it becomes
    a superset once an uninstantiated filter/join predicate is passed
    through).  Aggregate shadow values may only be computed over exact row
    sets.  Columns are shared between tables and must never be mutated.
    """

    columns: tuple[tuple[AbstractCell, ...], ...]
    n_rows: int
    rows_exact: bool = True

    @classmethod
    def from_rows(cls, rows, rows_exact: bool = True) -> "AbstractTable":
        """The table whose rows are ``rows`` (tuples of cells)."""
        rows = tuple(rows)
        return cls(tuple(zip(*rows)) if rows else (), len(rows), rows_exact)

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def rows(self) -> tuple[tuple[AbstractCell, ...], ...]:
        """The cells row by row (a read view, built on each access)."""
        if not self.columns:
            return ((),) * self.n_rows
        return tuple(zip(*self.columns))

    def cell(self, i: int, j: int) -> AbstractCell:
        return self.columns[j][i]

    def column(self, j: int) -> list[AbstractCell]:
        return list(self.columns[j])

    def column_known(self, cols: tuple[int, ...]) -> bool:
        """True when every cell of every listed column has a known value."""
        return all(cell.known for c in cols for cell in self.columns[c])
