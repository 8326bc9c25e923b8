"""User demonstrations E (paper Fig. 3, Fig. 8 right).

A demonstration is a small table of expressions showing how output cells are
computed from input cells — e.g. the running example's

    c1        c2        c3
    T[1,1]    T[1,2]    percent(sum(T[1,4], T[2,4]), T[1,5])
    T[7,1]    T[7,2]    percent(sum♦(T[1,4], T[2,4], T[8,4]), T[7,5])

where the ``sum♦`` marks omitted values (♦).  Cells are simplified on
construction so that matching never worries about nested flattenable
aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.errors import ExpressionError
from repro.provenance.expr import Expr, FuncApp
from repro.provenance.simplify import simplify


@dataclass(frozen=True)
class Demonstration:
    """An ``n_rows × n_cols`` grid of demonstration expressions."""

    cells: tuple[tuple[Expr, ...], ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise ExpressionError("empty demonstration")
        width = len(self.cells[0])
        if width == 0:
            raise ExpressionError("demonstration rows must have cells")
        for row in self.cells:
            if len(row) != width:
                raise ExpressionError("ragged demonstration rows")

    @staticmethod
    def of(rows: Sequence[Sequence[Expr]]) -> "Demonstration":
        return Demonstration(
            tuple(tuple(simplify(e) for e in row) for row in rows))

    @property
    def n_rows(self) -> int:
        return len(self.cells)

    @property
    def n_cols(self) -> int:
        return len(self.cells[0])

    @property
    def size(self) -> int:
        """Number of demonstrated cells (the paper's 'demonstration size')."""
        return self.n_rows * self.n_cols

    def cell(self, i: int, j: int) -> Expr:
        return self.cells[i][j]

    def is_partial(self) -> bool:
        """True when any cell contains an ``f♦`` application."""

        def has_partial(e: Expr) -> bool:
            if isinstance(e, FuncApp) and e.partial:
                return True
            return any(has_partial(c) for c in e.children())

        return any(has_partial(e) for row in self.cells for e in row)

    def __repr__(self) -> str:
        body = "; ".join(
            "[" + ", ".join(map(repr, row)) + "]" for row in self.cells)
        return f"Demonstration({body})"
