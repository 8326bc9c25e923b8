"""Coverage for the small supporting modules: errors, timers, rng, size,
datagen determinism, abstraction cells, the space counter."""

import time

from repro.abstraction.cells import (
    HEAD_AGGREGATE,
    HEAD_ANY,
    HEAD_ARITHMETIC,
    HEAD_RANKER,
    HEAD_REF,
    HEAD_WINDOW,
    AbstractCell,
    AbstractTable,
    head_matches,
)
from repro.benchmarks import datagen as dg
from repro.errors import (
    BenchmarkError,
    EvaluationError,
    ExpressionError,
    HoleError,
    ReproError,
    SchemaError,
    SynthesisError,
    TableError,
)
from repro.lang import Env, TableRef
from repro.lang.size import operator_count, query_depth
from repro.provenance.expr import CellRef
from repro.provenance.refs import RefIndex
from repro.util.rng import stable_rng, stable_seed
from repro.util.timer import Deadline, Stopwatch


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(TableError, ReproError)
        assert issubclass(SchemaError, TableError)
        assert issubclass(HoleError, EvaluationError)
        for err in (ExpressionError, SynthesisError, BenchmarkError):
            assert issubclass(err, ReproError)

    def test_single_catch_point(self):
        try:
            raise HoleError("x")
        except ReproError:
            pass


class TestRng:
    def test_stable_seed_deterministic(self):
        assert stable_seed("x") == stable_seed("x")
        assert stable_seed("x") != stable_seed("y")

    def test_stable_rng_streams(self):
        a = stable_rng("lbl", 1).random()
        b = stable_rng("lbl", 1).random()
        c = stable_rng("lbl", 2).random()
        assert a == b
        assert a != c


class TestTimer:
    def test_stopwatch_monotone(self):
        w = Stopwatch()
        first = w.elapsed()
        second = w.elapsed()
        assert second >= first >= 0

    def test_deadline_none_never_expires(self):
        d = Deadline(None)
        assert not d.expired()
        assert d.remaining() is None

    def test_deadline_expires(self):
        d = Deadline(0.0)
        time.sleep(0.01)
        assert d.expired()
        assert d.remaining() == 0.0


class TestSize:
    def test_operator_count_excludes_table_refs(self, ground_truth):
        assert operator_count(TableRef("T")) == 0
        assert operator_count(ground_truth) == 4  # group+partition+arith+proj

    def test_query_depth(self, ground_truth):
        assert query_depth(ground_truth) == 4
        assert query_depth(TableRef("T")) == 0


class TestDatagen:
    def test_tables_deterministic(self):
        assert dg.sales_by_region_quarter().rows == \
            dg.sales_by_region_quarter().rows
        assert dg.tpcds_store_sales().rows == dg.tpcds_store_sales().rows

    def test_seed_changes_data(self):
        assert dg.product_sales(seed=0).rows != dg.product_sales(seed=9).rows

    def test_shuffled_preserves_bag(self):
        t = dg.stock_prices()
        s = dg.shuffled(t, seed=5)
        assert s.same_rows(t)
        assert s.rows != t.rows

    def test_fk_metadata_on_star_schema(self):
        ss = dg.tpcds_store_sales()
        fk_targets = {fk.ref_table for fk in ss.schema.foreign_keys}
        assert fk_targets == {"date_dim", "item", "store"}

    def test_orders_customers_fk(self):
        orders, customers = dg.orders_with_customers()
        assert orders.schema.foreign_keys[0].ref_table == "customers"
        cust_ids = set(customers.column_values("CustomerId"))
        assert set(orders.column_values("CustomerId")) <= cust_ids


class TestAbstractCells:
    def test_head_matches_any(self):
        for kind in (HEAD_REF, HEAD_AGGREGATE, HEAD_RANKER, HEAD_ARITHMETIC):
            assert head_matches(kind, HEAD_ANY)

    def test_head_window_covers_aggregates_and_ranks(self):
        assert head_matches(HEAD_AGGREGATE, HEAD_WINDOW)
        assert head_matches(HEAD_RANKER, HEAD_WINDOW)
        assert not head_matches(HEAD_ARITHMETIC, HEAD_WINDOW)
        assert not head_matches(HEAD_REF, HEAD_WINDOW)

    def test_exact_head_match(self):
        assert head_matches(HEAD_REF, HEAD_REF)
        assert not head_matches(HEAD_REF, HEAD_AGGREGATE)

    def test_table_accessors(self, tiny_table):
        index = RefIndex(Env.of(tiny_table))
        ref = CellRef("T", 0, 0)
        cell = AbstractCell(index.bits(ref), 5, True, HEAD_REF)
        table = AbstractTable.from_rows(((cell, cell), (cell, cell)))
        assert table.n_rows == 2 and table.n_cols == 2
        assert table.column(1) == [cell, cell]
        assert table.column_known((0, 1))
        all_refs = row_refs = 0
        for row in table.rows:
            for c in row:
                all_refs |= c.refs
        for c in table.rows[0]:
            row_refs |= c.refs
        assert index.decode(all_refs) == frozenset((ref,))
        assert index.decode(row_refs) == frozenset((ref,))

    def test_unknown_cell(self):
        c = AbstractCell.unknown(0, HEAD_AGGREGATE)
        assert not c.known
        assert c.head == HEAD_AGGREGATE


class TestSpaceCounter:
    def test_counts_exact_small_space(self, tiny_table):
        from repro.experiments.space import count_search_space
        from repro.synthesis import SynthesisConfig
        env = Env.of(tiny_table)
        config = SynthesisConfig(max_operators=1,
                                 operator_pool=("group",),
                                 allow_empty_keys=False)
        count, exact = count_search_space(env, config)
        assert exact
        # keys subsets of 3 cols (size 1..2) x agg cols x compatible funcs:
        # enumerate by hand: 6 key choices; each leaves 1-2 agg cols with
        # 5 funcs for numeric, 1 (count) for string
        assert count > 10

    def test_last_hole_families_counted_not_filled(self, tiny_table):
        """Counting a last-hole family by its domain size gives the count
        of filling and popping every one of its queries."""
        from repro.engine.base import make_engine
        from repro.experiments.space import count_search_space
        from repro.lang.holes import fill, first_hole
        from repro.synthesis import SynthesisConfig, construct_skeletons
        from repro.synthesis.domains import hole_domain
        env = Env.of(tiny_table)
        config = SynthesisConfig(max_operators=2,
                                 operator_pool=("group", "arithmetic"))
        engine = make_engine()
        naive, stack = 0, list(construct_skeletons(env, config))
        while stack:
            query = stack.pop()
            position = first_hole(query)
            if position is None:
                naive += 1
                continue
            for value in hole_domain(query, position, env, config, None,
                                     engine):
                stack.append(fill(query, position, value))
        assert count_search_space(env, config) == (naive, True)
        assert naive > 100

    def test_cap_stops_early(self, tiny_table):
        from repro.experiments.space import count_search_space
        from repro.synthesis import SynthesisConfig
        env = Env.of(tiny_table)
        config = SynthesisConfig(max_operators=2)
        count, exact = count_search_space(env, config, cap=5)
        assert not exact
        assert count >= 5
