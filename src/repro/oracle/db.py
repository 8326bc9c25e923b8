"""Database connections the oracle executes against.

SQLite ships with the standard library and is always available.  DuckDB is
optional: when the module is not installed every DuckDB entry point skips
cleanly (``HAVE_DUCKDB`` is the gate), and CI runs a leg with it installed
so the dialect cannot rot.

Both adapters speak the same tiny surface — ``run`` (DDL / DML),
``insert_many`` (bulk parameterized insert) and ``fetch_all`` (query →
list of row tuples) — which is all :class:`repro.oracle.core.Oracle`
needs.  Driver exceptions are normalized to :class:`OracleError` so the
differential layer can treat "the database rejected our SQL" as a finding
rather than a crash.
"""

from __future__ import annotations

import sqlite3
from collections.abc import Sequence

from repro.errors import OracleError

try:  # pragma: no cover - exercised only where duckdb is installed
    import duckdb

    HAVE_DUCKDB = True
except ImportError:  # pragma: no cover
    duckdb = None
    HAVE_DUCKDB = False


class SqliteConnection:
    """An in-memory SQLite database."""

    db = "sqlite"

    def __init__(self) -> None:
        self._con = sqlite3.connect(":memory:")

    def run(self, sql: str, params: Sequence = ()) -> None:
        try:
            self._con.execute(sql, tuple(params))
        except sqlite3.Error as err:
            raise OracleError(f"sqlite: {err}") from err

    def insert_many(self, sql: str, rows: Sequence[Sequence]) -> None:
        try:
            self._con.executemany(sql, [tuple(r) for r in rows])
        except sqlite3.Error as err:
            raise OracleError(f"sqlite: {err}") from err

    def fetch_all(self, sql: str) -> list[tuple]:
        try:
            return [tuple(r) for r in self._con.execute(sql).fetchall()]
        except sqlite3.Error as err:
            raise OracleError(f"sqlite: {err}") from err

    def close(self) -> None:
        self._con.close()


class DuckdbConnection:
    """An in-memory DuckDB database (requires the ``duckdb`` module)."""

    db = "duckdb"

    def __init__(self) -> None:
        if not HAVE_DUCKDB:
            raise OracleError(
                "duckdb is not installed; install it or use the sqlite oracle")
        self._con = duckdb.connect(":memory:")

    def run(self, sql: str, params: Sequence = ()) -> None:
        try:
            self._con.execute(sql, tuple(params))
        except duckdb.Error as err:
            raise OracleError(f"duckdb: {err}") from err

    def insert_many(self, sql: str, rows: Sequence[Sequence]) -> None:
        try:
            self._con.executemany(sql, [tuple(r) for r in rows])
        except duckdb.Error as err:
            raise OracleError(f"duckdb: {err}") from err

    def fetch_all(self, sql: str) -> list[tuple]:
        try:
            return [tuple(r) for r in self._con.execute(sql).fetchall()]
        except duckdb.Error as err:
            raise OracleError(f"duckdb: {err}") from err

    def close(self) -> None:
        self._con.close()


def connect(db: str):
    """A fresh in-memory connection for dialect driver ``db``."""
    if db == "sqlite":
        return SqliteConnection()
    if db == "duckdb":
        return DuckdbConnection()
    raise OracleError(f"unknown oracle database {db!r}")
