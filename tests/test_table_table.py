"""Unit tests for the ordered-bag table."""

import pytest

from repro.errors import SchemaError, TableError
from repro.table import Table
from repro.table.schema import ForeignKey, Schema


class TestConstruction:
    def test_from_rows_infers_types(self, tiny_table):
        assert tiny_table.schema.types == ("string", "number", "number")

    def test_ragged_rows_rejected(self):
        with pytest.raises(TableError):
            Table.from_rows("t", ["a", "b"], [[1, 2], [3]])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table.from_rows("t", ["a", "a"], [[1, 2]])

    def test_empty_table(self):
        t = Table.from_rows("t", ["a"], [])
        assert t.n_rows == 0
        assert t.schema.types == ("null",)

    def test_primary_key_metadata(self):
        t = Table.from_rows("t", ["id", "x"], [[1, 2]], primary_key=["id"])
        assert t.schema.primary_key == ("id",)

    def test_foreign_key_metadata(self):
        fk = ForeignKey("cid", "customers", "id")
        t = Table.from_rows("t", ["cid"], [[1]], foreign_keys=[fk])
        assert t.schema.foreign_keys == (fk,)


class TestAccessors:
    def test_cell(self, tiny_table):
        assert tiny_table.cell(0, 0) == "A"
        assert tiny_table.cell(4, 2) == 15

    def test_column_values_by_name(self, tiny_table):
        assert tiny_table.column_values("Sales") == [10, 20, 15, 20, 15]

    def test_col_index_name(self, tiny_table):
        assert tiny_table.col_index("Quarter") == 1

    def test_col_index_out_of_range(self, tiny_table):
        with pytest.raises(TableError):
            tiny_table.col_index(9)

    def test_col_index_unknown_name(self, tiny_table):
        with pytest.raises(SchemaError):
            tiny_table.col_index("Nope")


class TestOperations:
    def test_project_reorders(self, tiny_table):
        p = tiny_table.project([2, 0])
        assert p.columns == ("Sales", "ID")
        assert p.rows[0] == (10, "A")

    def test_project_duplicate_column_renames(self, tiny_table):
        p = tiny_table.project([0, 0])
        assert len(set(p.columns)) == 2

    def test_cross_product(self, tiny_table):
        other = Table.from_rows("u", ["K"], [[1], [2]])
        crossed = tiny_table.cross(other)
        assert crossed.n_rows == 10
        assert crossed.n_cols == 4

    def test_cross_renames_clashes(self, tiny_table):
        other = Table.from_rows("u", ["ID"], [[1]])
        crossed = tiny_table.cross(other)
        assert len(set(crossed.columns)) == 4

    def test_cross_with_itself_is_collision_free(self, tiny_table):
        # Self-cross: every right-hand column clashes, and the qualified
        # "{name}.{col}" fallback would clash again on a second cross.
        once = tiny_table.cross(tiny_table)
        assert len(set(once.columns)) == once.n_cols == 6
        twice = once.cross(tiny_table)
        assert len(set(twice.columns)) == twice.n_cols == 9

    def test_cross_renaming_survives_prequalified_columns(self):
        # The left table already holds the "u.K" name the rename would pick.
        left = Table.from_rows("l", ["K", "u.K"], [[1, 2]])
        right = Table.from_rows("u", ["K"], [[3]])
        crossed = left.cross(right)
        assert len(set(crossed.columns)) == 3
        assert crossed.rows == ((1, 2, 3),)

    def test_cross_renaming_is_deterministic(self, tiny_table):
        a = tiny_table.cross(tiny_table)
        b = tiny_table.cross(tiny_table)
        assert a.columns == b.columns

    def test_take_rows(self, tiny_table):
        t = tiny_table.take_rows([4, 0])
        assert t.rows[0][2] == 15
        assert t.rows[1][0] == "A"


class TestBagEquality:
    def test_same_rows_ignores_order(self, tiny_table):
        reordered = tiny_table.take_rows([4, 3, 2, 1, 0])
        assert tiny_table.same_rows(reordered)

    def test_same_rows_respects_multiplicity(self):
        a = Table.from_rows("a", ["x"], [[1], [1], [2]])
        b = Table.from_rows("b", ["x"], [[1], [2], [2]])
        assert not a.same_rows(b)

    def test_same_rows_float_int(self):
        a = Table.from_rows("a", ["x"], [[1], [2]])
        b = Table.from_rows("b", ["x"], [[1.0], [2.0]])
        assert a.same_rows(b)
