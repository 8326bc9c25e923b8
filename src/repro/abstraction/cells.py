"""Abstract tables: grids of over-approximated provenance sets.

Each abstract cell carries

* ``refs`` — a set of input-cell references over-approximating every input
  value that can flow into this position under *any* instantiation of the
  partial query (the paper's ``T◦[i, j]``), as a bitset over the env's
  :class:`~repro.provenance.refs.RefIndex` numbering, and
* an optional concrete shadow value (``known`` + ``value``) — exact cell
  values survive operators that only move rows around, and they are what
  lets the analyzer apply the *strong* abstraction tier (grouping needs
  concrete key values: ``extractGroups([[T◦[c̄]]])``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.lang.ast import install_cached_hash
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

    Only known cells carry a value, so a cell's fields are also its
    signature for deduplication.
    """

    refs: int
    value: Value = None
    known: bool = False
    head: str = HEAD_ANY

    @staticmethod
    def unknown(refs: int, head: str = HEAD_ANY) -> "AbstractCell":
        return AbstractCell(refs, None, False, head)


@dataclass(frozen=True)
class AbstractTable:
    """An abstract output ``T◦``: rows of :class:`AbstractCell`.

    ``rows_exact`` records whether the row *set* is exact or a superset of
    every possible instantiation's rows (it becomes a superset once an
    uninstantiated filter/join predicate is passed through).  Aggregate
    shadow values may only be computed over exact row sets.
    """

    rows: tuple[tuple[AbstractCell, ...], ...]
    rows_exact: bool = True

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def cell(self, i: int, j: int) -> AbstractCell:
        return self.rows[i][j]

    def column(self, j: int) -> list[AbstractCell]:
        return [row[j] for row in self.rows]

    def column_known(self, cols: tuple[int, ...]) -> bool:
        """True when every cell of every listed column has a known value."""
        return all(row[c].known for row in self.rows for c in cols)


# Tables key the analyzer's caches and the verdict memo: hash each once.
install_cached_hash(AbstractTable)
