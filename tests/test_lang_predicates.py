"""Unit tests for filter/join predicates."""

from repro.lang.predicates import (
    AndPred,
    ColCmp,
    ConstCmp,
    FalsePred,
    TruePred,
)


class TestBasicPredicates:
    def test_true_false(self):
        assert TruePred().evaluate([1])
        assert not FalsePred().evaluate([1])

    def test_col_cmp(self):
        row = [3, 5]
        assert ColCmp(0, "<", 1).evaluate(row)
        assert not ColCmp(0, ">", 1).evaluate(row)
        assert ColCmp(0, "!=", 1).evaluate(row)

    def test_col_eq_with_floats(self):
        assert ColCmp(0, "==", 1).evaluate([2, 2.0])

    def test_const_cmp(self):
        assert ConstCmp(0, ">=", 10).evaluate([10])
        assert not ConstCmp(0, "<", 10).evaluate([10])

    def test_string_comparison(self):
        assert ConstCmp(0, "==", "Math").evaluate(["Math", 1])
        assert not ConstCmp(0, "==", "Math").evaluate(["History", 1])

    def test_null_comparisons_false(self):
        assert not ColCmp(0, "==", 1).evaluate([None, None])
        assert not ConstCmp(0, "<", 5).evaluate([None])

    def test_and(self):
        pred = AndPred((ConstCmp(0, ">", 1), ConstCmp(0, "<", 5)))
        assert pred.evaluate([3])
        assert not pred.evaluate([7])


class TestColumnsUsed:
    def test_col_cmp(self):
        assert ColCmp(1, "<", 3).columns_used() == frozenset((1, 3))

    def test_const_cmp(self):
        assert ConstCmp(2, "==", "x").columns_used() == frozenset((2,))

    def test_and_union(self):
        pred = AndPred((ColCmp(0, "<", 1), ConstCmp(4, ">", 0)))
        assert pred.columns_used() == frozenset((0, 1, 4))

    def test_true_uses_nothing(self):
        assert TruePred().columns_used() == frozenset()


class TestHashability:
    def test_predicates_usable_as_dict_keys(self):
        d = {ColCmp(0, "<", 1): "a", ConstCmp(0, "==", 5): "b"}
        assert d[ColCmp(0, "<", 1)] == "a"

    def test_equality_is_structural(self):
        assert ColCmp(0, "<", 1) == ColCmp(0, "<", 1)
        assert ColCmp(0, "<", 1) != ColCmp(0, "<=", 1)

    def test_constants_of_other_types_differ(self):
        # Python equates True with 1; value_eq, and so the filter, does not.
        assert ConstCmp(1, "==", True) != ConstCmp(1, "==", 1)
        assert ConstCmp(1, "==", False) != ConstCmp(1, "==", 0)
        assert ConstCmp(1, "==", 1) == ConstCmp(1, "==", 1)
        assert len({ConstCmp(1, "==", True), ConstCmp(1, "==", 1)}) == 2


class TestEngineCacheKeys:
    """Every ``(query, env)`` cache keys on predicates."""

    def test_bool_and_int_constants_are_not_one_filter(self):
        from repro.engine import make_engine
        from repro.lang import ast
        from repro.table import Table
        env = ast.Env.of(Table.from_rows("T", ["k", "b"],
                                         [["a", True], ["c", 1]]))

        def filtered(engine, const):
            query = ast.Filter(ast.TableRef("T"), ConstCmp(1, "==", const))
            return engine.evaluate(query, env).rows

        for backend in ("columnar", "row"):
            engine = make_engine(backend)
            assert filtered(engine, True) == (("a", True),)
            assert filtered(engine, 1) == filtered(make_engine(backend), 1) \
                == (("c", 1),)
