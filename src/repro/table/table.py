"""The ordered-bag table (paper §3.1).

A :class:`Table` is an ordered bag of tuples: row order is preserved (it
matters for ``sort`` / ``cumsum`` / ``rank``) but equality ignores it.  Cells
may hold any :data:`repro.table.values.Value` — including, in
provenance-embedded tables, provenance expressions; the container is agnostic
and the semantics layers decide what cells mean.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.errors import TableError
from repro.table.schema import Schema, infer_type
from repro.table.values import Value, canonical, row_eq


@dataclass(frozen=True, eq=True)
class Table:
    """An immutable ordered bag of rows with a schema.

    ``name`` identifies input tables in provenance references (``T[i, j]``);
    derived tables typically carry a synthetic name.
    """

    name: str
    schema: Schema
    rows: tuple[tuple[Value, ...], ...]

    def __post_init__(self) -> None:
        arity = self.schema.arity
        for i, row in enumerate(self.rows):
            if len(row) != arity:
                raise TableError(
                    f"table {self.name!r}: row {i} has {len(row)} cells, expected {arity}")

    def __hash__(self) -> int:
        # Tables key evaluation caches through Env, and the dataclass hash
        # walks every cell on every lookup; compute it once.  (Safe: all
        # fields are immutable, and equal tables hash the same fields.)
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.name, self.schema, self.rows))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        # The cached hash is process-local (str hashing is seeded); it must
        # never travel through pickle to another interpreter.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    # ------------------------------------------------------------------ build
    @staticmethod
    def from_rows(name: str, columns: Sequence[str],
                  rows: Iterable[Sequence[Value]],
                  primary_key: Sequence[str] = (),
                  foreign_keys: Sequence = ()) -> "Table":
        """Build a table, inferring column types from the data."""
        row_tuples = tuple(tuple(r) for r in rows)
        n_cols = len(columns)
        for i, row in enumerate(row_tuples):
            if len(row) != n_cols:
                raise TableError(f"row {i} has {len(row)} cells, expected {n_cols}")
        types = tuple(
            infer_type([row[j] for row in row_tuples]) for j in range(n_cols))
        schema = Schema(tuple(columns), types,
                        primary_key=tuple(primary_key),
                        foreign_keys=tuple(foreign_keys))
        return Table(name, schema, row_tuples)

    # ------------------------------------------------------------ inspection
    @property
    def columns(self) -> tuple[str, ...]:
        return self.schema.columns

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return self.schema.arity

    def cell(self, row: int, col: int) -> Value:
        return self.rows[row][col]

    def row(self, i: int) -> tuple[Value, ...]:
        return self.rows[i]

    def column_values(self, col: int | str) -> list[Value]:
        if isinstance(col, str):
            col = self.schema.index_of(col)
        return [row[col] for row in self.rows]

    def col_index(self, col: int | str) -> int:
        if isinstance(col, str):
            return self.schema.index_of(col)
        if not 0 <= col < self.n_cols:
            raise TableError(
                f"column index {col} out of range for table {self.name!r} "
                f"with {self.n_cols} columns")
        return col

    # ------------------------------------------------------------ operations
    def project(self, cols: Sequence[int | str], name: str | None = None) -> "Table":
        """Project (and possibly reorder / rename by position) columns."""
        idxs = [self.col_index(c) for c in cols]
        columns = [self.schema.columns[i] for i in idxs]
        if len(columns) != len(set(columns)):
            columns = [f"{c}_{k}" for k, c in enumerate(columns)]
        rows = [tuple(row[i] for i in idxs) for row in self.rows]
        return Table.from_rows(name or self.name, columns, rows)

    def cross(self, other: "Table", name: str | None = None) -> "Table":
        """Cross product; right-hand columns renamed on clash.

        Renaming is collision-free and deterministic: a clashing column
        first tries ``{other.name}.{c}``, then counts up ``..._2``, ``..._3``
        … until free — so crossing a table with itself (where the qualified
        name already exists) still yields a valid schema.
        """
        columns = list(self.columns)
        for c in other.columns:
            candidate = c if c not in columns else f"{other.name}.{c}"
            k = 2
            while candidate in columns:
                candidate = f"{other.name}.{c}_{k}"
                k += 1
            columns.append(candidate)
        rows = [left + right for left in self.rows for right in other.rows]
        return Table.from_rows(name or f"{self.name}x{other.name}", columns, rows)

    def take_rows(self, indices: Sequence[int], name: str | None = None) -> "Table":
        rows = [self.rows[i] for i in indices]
        return Table.from_rows(name or self.name, self.columns, rows)

    # -------------------------------------------------------------- equality
    def same_rows(self, other: "Table") -> bool:
        """Bag equality of rows (ignores order, column names and table name)."""
        if self.n_cols != other.n_cols or self.n_rows != other.n_rows:
            return False
        mine = Counter(tuple(canonical(v) for v in row) for row in self.rows)
        theirs = Counter(tuple(canonical(v) for v in row) for row in other.rows)
        if mine == theirs:
            return True
        # Canonicalization is equality-compatible for the value domain we
        # use, but fall back to a quadratic matching to be safe with floats.
        return self._quadratic_bag_eq(other)

    def _quadratic_bag_eq(self, other: "Table") -> bool:
        used = [False] * other.n_rows
        for row in self.rows:
            for j, other_row in enumerate(other.rows):
                if not used[j] and row_eq(list(row), list(other_row)):
                    used[j] = True
                    break
            else:
                return False
        return True

    # --------------------------------------------------------------- display
    def __str__(self) -> str:  # pragma: no cover - cosmetic
        from repro.table.io import format_table
        return format_table(self)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {self.n_rows}x{self.n_cols})"
