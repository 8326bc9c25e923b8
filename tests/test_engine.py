"""The evaluation engine layer: caches, backends, isolation."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.engine import (
    BoundedCache,
    ColumnarEngine,
    ColumnBlock,
    RowEngine,
    capabilities,
    make_engine,
    resolve_backend,
)
from repro.engine.columns import (
    arithmetic_block,
    cross_join,
    filter_indices,
    group_block,
    join_pairs,
    left_join_pairs,
    partition_block,
    predicate_mask,
    select_columns,
    sort_indices,
)
from repro.errors import HoleError
from repro.lang import (
    Arithmetic,
    Env,
    Filter,
    Group,
    Hole,
    Join,
    LeftJoin,
    Partition,
    Proj,
    Sort,
    TableRef,
)
from repro.lang.predicates import AndPred, ColCmp, ConstCmp, TruePred
from repro.table.table import Table


@pytest.fixture
def table():
    return Table.from_rows(
        "T", ["City", "Quarter", "Amount"],
        [["A", 1, 10], ["A", 2, 20], ["B", 1, 30], ["B", 2, 40], ["A", 1, 5]])


@pytest.fixture
def env(table):
    return Env.of(table)


@pytest.fixture
def lookup():
    return Table.from_rows("L", ["City", "Region"],
                           [["A", "north"], ["B", "south"]])


class TestBoundedCache:
    def test_roundtrip(self):
        c = BoundedCache(10)
        c["a"] = 1
        assert c["a"] == 1
        assert c.get("missing") is None
        assert len(c) == 1

    def test_eviction_is_lru(self):
        c = BoundedCache(2)
        c["a"], c["b"] = 1, 2
        _ = c["a"]          # refresh "a"
        c["c"] = 3          # evicts "b"
        assert "a" in c and "c" in c and "b" not in c

    def test_unbounded(self):
        c = BoundedCache(None)
        for i in range(1000):
            c[i] = i
        assert len(c) == 1000

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            BoundedCache(0)


class TestMakeEngine:
    def test_factory_names(self):
        assert make_engine("row").name == "row"
        assert make_engine("columnar").name == "columnar"

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            make_engine("gpu")
        with pytest.raises(ValueError, match="unknown engine backend"):
            resolve_backend("gpu")

    def test_numpy_backend_is_gone(self):
        from repro.experiments.cli import main
        from repro.synthesis.config import SynthesisConfig

        with pytest.raises(TypeError, match="backend"):
            SynthesisConfig(backend="numpy")
        with pytest.raises(ValueError, match="unknown engine backend"):
            make_engine("numpy")
        with pytest.raises(SystemExit):
            main(["validate", "--backend", "numpy"])
        import repro

        src = str(Path(repro.__file__).parents[1])
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.api; print('numpy' in sys.modules)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src})
        assert probe.stdout.strip() == "False"

    def test_capabilities_probe(self):
        caps = capabilities()
        assert caps["backends"] == ("row", "columnar")
        assert caps["default_backend"] == "columnar"
        assert "numpy_version" in caps


ENGINE_CLASSES = [RowEngine, ColumnarEngine]


@pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
class TestEngineContract:
    def test_evaluate_matches_semantics(self, engine_cls, env):
        from repro.semantics import evaluate
        q = Group(TableRef("T"), keys=(0,), agg_func="sum", agg_col=2)
        assert engine_cls().evaluate(q, env) == evaluate(q, env)

    def test_tracking_matches_semantics(self, engine_cls, env):
        from repro.semantics import evaluate_tracking
        q = Partition(TableRef("T"), keys=(0,), agg_func="cumsum", agg_col=2)
        assert engine_cls().evaluate_tracking(q, env) == evaluate_tracking(q, env)

    def test_partial_query_raises(self, engine_cls, env):
        q = Group(TableRef("T"), keys=Hole("keys"), agg_func="sum", agg_col=2)
        with pytest.raises(HoleError):
            engine_cls().evaluate(q, env)
        with pytest.raises(HoleError):
            engine_cls().evaluate_tracking(q, env)

    def test_cache_hits_counted(self, engine_cls, env):
        engine = engine_cls()
        q = Sort(TableRef("T"), cols=(2,), ascending=False)
        first = engine.evaluate(q, env)
        second = engine.evaluate(q, env)
        assert first is second
        assert engine.stats.concrete_hits == 1
        assert engine.stats.concrete_evals == 1

    def test_reset_drops_state(self, engine_cls, env):
        engine = engine_cls()
        q = TableRef("T")
        engine.evaluate(q, env)
        engine.evaluate_tracking(q, env)
        engine.reset()
        assert engine.stats.concrete_evals == 0
        engine.evaluate(q, env)
        assert engine.stats.concrete_hits == 0
        assert engine.stats.concrete_evals == 1

    def test_engines_do_not_share_state(self, engine_cls, env):
        a, b = engine_cls(), engine_cls()
        q = TableRef("T")
        a.evaluate(q, env)
        assert b.stats.concrete_evals == 0
        b.evaluate(q, env)
        assert b.stats.concrete_hits == 0  # b computed, not served from a

    def test_shared_prefix_computed_once(self, engine_cls, env):
        engine = engine_cls()
        base = Group(TableRef("T"), keys=(0,), agg_func="sum", agg_col=2)
        for func in ("sum", "max", "min", "count"):
            q = Arithmetic(Group(TableRef("T"), keys=(0,), agg_func=func,
                                 agg_col=2), func="div", cols=(1, 1))
            engine.evaluate(q, env)
        # The TableRef (and the sum-Group) subtree results were reused.
        assert engine.evaluate(base, env) is engine.evaluate(base, env)


class TestRowColumnarEquivalence:
    """The two backends are byte-for-byte interchangeable."""

    def _queries(self):
        t = TableRef("T")
        return [
            t,
            Filter(t, ConstCmp(2, ">", 10)),
            Filter(t, ColCmp(2, ">", 1)),
            Proj(t, cols=(2, 0)),
            Proj(t, cols=(0, 0)),
            Sort(t, cols=(2,), ascending=True),
            Sort(t, cols=(0,), ascending=False),
            Group(t, keys=(0,), agg_func="avg", agg_col=2),
            Group(t, keys=(0, 1), agg_func="count", agg_col=2),
            Group(t, keys=(), agg_func="sum", agg_col=2),
            Partition(t, keys=(0,), agg_func="cumsum", agg_col=2),
            Partition(t, keys=(), agg_func="rank", agg_col=2),
            Partition(t, keys=(1,), agg_func="max", agg_col=2),
            Arithmetic(t, func="div", cols=(2, 1)),
            Arithmetic(Group(t, keys=(0,), agg_func="sum", agg_col=2),
                       func="percent", cols=(1, 1)),
        ]

    def test_single_table_queries(self, env):
        row, col = RowEngine(), ColumnarEngine()
        for q in self._queries():
            assert row.evaluate(q, env) == col.evaluate(q, env), q

    def test_join_queries(self, table, lookup):
        env = Env.of(table, lookup)
        t, l = TableRef("T"), TableRef("L")
        queries = [
            Join(t, l),                                   # cross product
            Join(t, l, pred=ColCmp(0, "==", 3)),          # equi-join
            Join(t, l, pred=ColCmp(0, "==", 0)),          # degenerate (left-left)
            Join(t, l, pred=ColCmp(3, "==", 3)),          # degenerate (right-right)
            LeftJoin(t, l, pred=ColCmp(0, "==", 3)),
            LeftJoin(t, l, pred=ColCmp(2, "==", 3)),      # no matches: padding
            Join(t, l, pred=AndPred((ColCmp(0, "==", 3), TruePred()))),
        ]
        row, col = RowEngine(), ColumnarEngine()
        for q in queries:
            assert row.evaluate(q, env) == col.evaluate(q, env), q

    def test_empty_results_match(self, env):
        row, col = RowEngine(), ColumnarEngine()
        q = Group(Filter(TableRef("T"), ConstCmp(2, ">", 1_000_000)),
                  keys=(0,), agg_func="sum", agg_col=2)
        assert row.evaluate(q, env) == col.evaluate(q, env)


class TestColumnBlockKernels:
    def _block(self, table):
        return ColumnBlock.from_table(table)

    def test_roundtrip(self, table):
        block = self._block(table)
        assert block.n_rows == table.n_rows
        assert block.n_cols == table.n_cols
        assert block.row_tuples() == list(table.rows)

    def test_select_shares_columns(self, table):
        block = self._block(table)
        picked = select_columns(block, (2, 0))
        assert picked.columns[0] is block.columns[2]
        assert picked.columns[1] is block.columns[0]

    def test_append_only_operators_share_columns(self, table):
        block = self._block(table)
        part = partition_block(block, (0,), "sum", 2)
        arith = arithmetic_block(block, "add", (2, 2))
        for j in range(block.n_cols):
            assert part.columns[j] is block.columns[j]
            assert arith.columns[j] is block.columns[j]

    def test_predicate_mask_matches_rowwise(self, table):
        block = self._block(table)
        preds = [TruePred(), ConstCmp(2, ">=", 20), ColCmp(1, "<", 2),
                 AndPred((ConstCmp(0, "==", "A"), ConstCmp(2, ">", 5)))]
        for pred in preds:
            mask = predicate_mask(pred, block)
            assert mask == [pred.evaluate(r) for r in table.rows]

    def test_filter_all_pass_reuses_block(self, table):
        # None tells the engine to share the input block outright.
        block = self._block(table)
        assert filter_indices(block, TruePred()) is None
        assert filter_indices(block, ConstCmp(2, ">=", 20)) == [1, 2, 3]

    def test_cross_join_order(self):
        left = ColumnBlock([[1, 2]], 2)
        right = ColumnBlock([["x", "y"]], 2)
        crossed = cross_join(left, right)
        assert crossed.row_tuples() == [(1, "x"), (1, "y"), (2, "x"), (2, "y")]

    def test_join_blocks_pred_none_is_cross(self):
        # An always-true join pairs rows in cross_join's nested-loop order.
        left = ColumnBlock([[1, 2]], 2)
        right = ColumnBlock([["x", "y"]], 2)
        assert join_pairs(left, right, TruePred()) == \
            [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert cross_join(left, right).row_tuples() == \
            [(1, "x"), (1, "y"), (2, "x"), (2, "y")]

    def test_left_join_pads_unmatched(self):
        left = ColumnBlock([[1, 2, 3]], 3)
        right = ColumnBlock([[2, 3], ["b", "c"]], 2)
        pairs = left_join_pairs(left, right, ColCmp(0, "==", 1))
        assert pairs == [(0, None), (1, 0), (2, 1)]

    def test_sort_block_is_stable(self, table):
        block = self._block(table)
        order = sort_indices(block, (0,), ascending=True)
        # Ties on "A" keep original relative order (stable sort).
        assert [block.columns[2][i] for i in order] == [10, 20, 5, 30, 40]

    def test_group_block_first_occurrence_order(self, table):
        block = self._block(table)
        out = group_block(block, (0,), "sum", 2)
        assert out.row_tuples() == [("A", 35), ("B", 70)]


_M = TableRef("M")
_FLOATS = [0.3, 0.1 + 0.2, 1.0, 1.0 + 1e-12, 2.0, -0.0, 0.0, 1e12, 1e12 + 1.0]

#: Inputs adversarial to fixed-width or vectorized value representations:
#: strings with trailing NULs, signed zeros under min/max and accumulate
#: seeds, float overflow to inf, ints past 2**53, and float equality at
#: the ``value_eq`` tolerance.
ADVERSARIAL_CASES = {
    "trailing-nul": (
        [("a\x00", "a"), ("b", "b"), ("a", "a\x00")],
        [Filter(_M, ColCmp(0, "==", 1)), Filter(_M, ConstCmp(0, "==", "a")),
         Sort(_M, cols=(0,), ascending=True),
         Group(_M, keys=(0,), agg_func="count", agg_col=1)]),
    "signed-zero": (
        [("a", 0.0), ("a", -0.0), ("b", -0.0), ("b", 0.0)],
        [Group(_M, keys=(0,), agg_func=f, agg_col=1) for f in ("max", "min")]
        + [Partition(_M, keys=(0,), agg_func=f, agg_col=1)
           for f in ("cummax", "cummin", "cumsum")]),
    "float-overflow": (
        [(1e308, 1e308), (1e308, -1e308), (1e308, 1e-308), (2.0, 3.0)],
        [Arithmetic(_M, func=f, cols=(0, 1))
         for f in ("add", "sub", "mul", "div", "percent", "pct_change")]
        + [Filter(_M, ColCmp(0, op, 1)) for op in ("==", "!=", "<", ">=")]),
    "int-past-2**53": (
        [(2**53, 2**53 + 1), (2**53 + 1, float(2**53)), (-(2**63), 2**63),
         (1, 2)],
        [Filter(_M, ColCmp(0, op, 1)) for op in ("==", "<", ">=")]
        + [Filter(_M, ConstCmp(0, "==", 2**53 + 1)),
           Sort(_M, cols=(1,), ascending=False),
           Group(_M, keys=(), agg_func="sum", agg_col=0),
           Arithmetic(_M, func="sub", cols=(1, 0))]),
    "float-tolerance": (
        [(v,) for v in _FLOATS],
        [Filter(_M, ConstCmp(0, "==", c)) for c in (0.3, 1.0, 0.0, 1e12, 2)]),
}


class TestMixedDtypeOrdering:
    """Sort/aggregate kernels over mixed dtypes and NULLs, row vs columnar.

    The contract under test (pinned while building the cross-backend fuzz
    harness): the columnar engine orders values exactly like the row
    engine's ``value_sort_key`` — numbers < strings < booleans < NULL,
    NULLs last ascending and therefore first descending — and aggregates
    skip NULLs identically.
    """

    def _mixed_env(self):
        rows = [(3, "b", None), (None, "a", 2.0), (2.5, None, 2),
                (True, "a\x00", 10**13), ("x", "", -1), (2, "a", 2.0000001)]
        return Env.of(Table.from_rows("M", ["k", "s", "v"], rows))

    def _assert_all_backends_match(self, queries, env):
        reference = RowEngine()
        engine = ColumnarEngine()
        for query in queries:
            expected = reference.evaluate(query, env)
            actual = engine.evaluate(query, env)
            # repr, not ==: 0.0 == -0.0 would hide a signed-zero slip.
            assert repr(actual.rows) == repr(expected.rows), query
            assert actual.schema == expected.schema, query
            assert engine.evaluate_tracking(query, env) == \
                reference.evaluate_tracking(query, env), query

    def test_sort_null_ordering_matches_row_engine(self):
        env = self._mixed_env()
        t = TableRef("M")
        queries = [Sort(t, cols=(0,), ascending=True),
                   Sort(t, cols=(0,), ascending=False),
                   Sort(t, cols=(1, 2), ascending=True),
                   Sort(t, cols=(2, 1), ascending=False)]
        self._assert_all_backends_match(queries, env)

    def test_sort_null_last_ascending_first_descending(self):
        env = self._mixed_env()
        rows_asc = make_engine("columnar").evaluate(
            Sort(TableRef("M"), cols=(0,), ascending=True), env).rows
        rows_desc = make_engine("columnar").evaluate(
            Sort(TableRef("M"), cols=(0,), ascending=False), env).rows
        assert rows_asc[-1][0] is None      # NULL sorts last ascending
        assert rows_desc[0][0] is None      # and first descending
        # Class order ascending: numbers, then strings, then bools, NULL.
        assert [r[0] for r in rows_asc] == [2, 2.5, 3, "x", True, None]

    def test_aggregates_skip_nulls_identically(self):
        env = self._mixed_env()
        t = TableRef("M")
        queries = [Group(t, keys=(1,), agg_func=f, agg_col=0)
                   for f in ("max", "min", "count")]
        queries += [Partition(t, keys=(), agg_func=f, agg_col=0)
                    for f in ("max", "min", "count", "cummax", "cummin",
                              "rank", "rank_desc", "dense_rank")]
        self._assert_all_backends_match(queries, env)

    def test_rank_of_null_matches_row_engine(self):
        env = Env.of(Table.from_rows(
            "M", ["v"], [(5,), (None,), (1,), (None,), (5,)]))
        queries = [Partition(TableRef("M"), keys=(), agg_func=f, agg_col=0)
                   for f in ("rank", "rank_desc", "cumsum", "cumavg",
                             "cummax", "cummin", "count")]
        self._assert_all_backends_match(queries, env)

    @pytest.mark.parametrize("rows, queries",
                             list(ADVERSARIAL_CASES.values()),
                             ids=list(ADVERSARIAL_CASES))
    def test_adversarial_inputs_match_row_engine(self, rows, queries):
        env = Env.of(Table.from_rows(
            "M", [f"c{j}" for j in range(len(rows[0]))], rows))
        with warnings.catch_warnings():
            # Python float arithmetic overflows silently to inf; no kernel
            # may turn that into a warning (an error under -W error).
            warnings.simplefilter("error")
            self._assert_all_backends_match(queries, env)

    def test_cross_class_comparisons_match(self):
        env = self._mixed_env()
        t = TableRef("M")
        queries = [Filter(t, ConstCmp(0, op, const))
                   for op in ("==", "!=", "<", "<=", ">", ">=")
                   for const in (2, "a", True, None, 2.0000001)]
        queries += [Filter(t, ColCmp(0, op, 2))
                    for op in ("==", "!=", "<", ">=")]
        self._assert_all_backends_match(queries, env)


class TestSessionEngineContracts:
    """Regressions from review: engine supply, override hygiene, pickling."""

    def _task(self):
        from repro.benchmarks import get_task
        return get_task("fe01_total_sales_per_region")

    def test_supplied_engine_is_used(self):
        from repro.synthesis.synthesizer import Synthesizer
        task = self._task()
        engine = RowEngine()
        s = Synthesizer("provenance", task.config.replace(max_visited=100),
                        engine=engine)
        s.run(task.tables, task.demonstration)
        assert s.engine is engine
        assert engine.stats.concrete_evals + engine.stats.tracking_evals > 0

    def test_backend_override_keeps_session_state(self):
        """A session that swaps in the row reference leaves the
        synthesizer's own engine and session analyzer in place."""
        from repro.synthesis.synthesizer import Synthesizer
        task = self._task()
        s = Synthesizer("provenance", task.config.replace(max_visited=100))
        base = s.run(task.tables, task.demonstration)
        session_analyzer = s.abstraction.analyzer
        for _ in range(8):   # repeated overrides never touch the synthesizer
            session = s.session(task.tables, task.demonstration)
            session.attach_engine(make_engine("row"))
            assert session.run().queries == base.queries
            assert s.abstraction.analyzer.engine is s.engine
        assert s.run(task.tables, task.demonstration).queries == base.queries
        assert s.engine.name == "columnar"
        assert s.abstraction.analyzer is session_analyzer

    def test_cached_hashes_not_pickled(self):
        import pickle
        task = self._task()
        for obj in (task.tables[0], task.env, task.ground_truth):
            hash(obj)  # populate the per-process cache
            clone = pickle.loads(pickle.dumps(obj))
            assert "_hash" not in clone.__dict__
            assert clone == obj and hash(clone) == hash(obj)
