"""The abstract provenance interpreter (Fig. 11) and its three tiers."""

import pickle

import pytest

from repro.abstraction import (
    ProvenanceAbstraction,
    abstract_consistent,
    abstract_eval,
)
from repro.lang import (
    Arithmetic,
    Env,
    Filter,
    Group,
    Hole,
    Join,
    Partition,
    Proj,
    Sort,
    TableRef,
)
from repro.engine import make_engine
from repro.lang.holes import fill, holes_of
from repro.provenance import Demonstration, cell, func, partial_func
from repro.provenance.expr import CellRef
from repro.provenance.refs import RefIndex, refs_of
from repro.semantics import evaluate_tracking
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.domains import hole_domain
from repro.table import Table

H = Hole


@pytest.fixture
def env(tiny_table):
    return Env.of(tiny_table)


def _refs(table_name, *pairs):
    return frozenset(CellRef(table_name, i, j) for i, j in pairs)


def _cell_refs(abs_t, env, i, j):
    """The references of abstract cell ``(i, j)``, decoded from its bitset."""
    return RefIndex(env).decode(abs_t.cell(i, j).refs)


class TestBaseAndLift:
    def test_concrete_query_lifts_tracking(self, env):
        q = Group(TableRef("T"), keys=(0,), agg_func="sum", agg_col=2)
        abs_t = abstract_eval(q, env)
        tracked = evaluate_tracking(q, env)
        for i in range(abs_t.n_rows):
            for j in range(abs_t.n_cols):
                expr = tracked.exprs[i][j]
                assert abs_t.cell(i, j).refs == RefIndex(env).bits(expr)
                assert _cell_refs(abs_t, env, i, j) == refs_of(expr)
                assert abs_t.cell(i, j).known

    def test_table_ref_cells(self, env):
        abs_t = abstract_eval(TableRef("T"), env)
        assert _cell_refs(abs_t, env, 2, 1) == _refs("T", (2, 1))


class TestWeakTier:
    def test_weak_partition_new_column_is_everything(self, env):
        q = Partition(TableRef("T"), keys=H("keys"), agg_func=H("agg_func"),
                      agg_col=H("agg_col"))
        abs_t = abstract_eval(q, env)
        assert abs_t.n_cols == 4
        everything = _refs("T", *[(i, j) for i in range(5) for j in range(3)])
        assert _cell_refs(abs_t, env, 0, 3) == everything
        # existing columns pass through untouched
        assert _cell_refs(abs_t, env, 1, 0) == _refs("T", (1, 0))

    def test_weak_group_collapses_columns(self, env):
        q = Group(TableRef("T"), keys=H("keys"), agg_func=H("agg_func"),
                  agg_col=H("agg_col"))
        abs_t = abstract_eval(q, env)
        # column c may draw from any row of column c
        assert _cell_refs(abs_t, env, 0, 1) == \
            _refs("T", *[(i, 1) for i in range(5)])
        assert abs_t.n_rows == 5  # up to one group per row

    def test_weak_arithmetic_uses_own_row(self, env):
        q = Arithmetic(TableRef("T"), func=H("func"), cols=H("cols"))
        abs_t = abstract_eval(q, env)
        assert _cell_refs(abs_t, env, 1, 3) == \
            _refs("T", (1, 0), (1, 1), (1, 2))


class TestMediumTier:
    def _abstract_valued_child(self):
        # The inner group's aggregate column has *unknown values* (function
        # hole), so an outer operator keyed on it lands in the medium tier.
        return Group(TableRef("T"), keys=(0,), agg_func=H("agg_func"),
                     agg_col=H("agg_col"))

    def test_medium_group_restricts_to_non_keys(self, env):
        q = Group(self._abstract_valued_child(), keys=(1,),
                  agg_func=H("agg_func"), agg_col=H("agg_col"))
        abs_t = abstract_eval(q, env)
        assert abs_t.n_cols == 2
        # the only non-key child column is the group-key column (col 0),
        # whose refs are the original ID column cells
        expected = _refs("T", *[(i, 0) for i in range(5)])
        assert _cell_refs(abs_t, env, 0, 1) == expected

    def test_medium_partition_excludes_key_columns(self, env):
        q = Partition(self._abstract_valued_child(), keys=(1,),
                      agg_func=H("agg_func"), agg_col=H("agg_col"))
        abs_t = abstract_eval(q, env)
        child = abstract_eval(self._abstract_valued_child(), env)
        key_refs = frozenset().union(*(_cell_refs(child, env, i, 1)
                                       for i in range(child.n_rows)))
        for i in range(abs_t.n_rows):
            assert not (_cell_refs(abs_t, env, i, 2) & key_refs)

    def test_rows_not_exact_below_pred_hole(self, env):
        child = Filter(TableRef("T"), pred=H("pred"))
        abs_t = abstract_eval(child, env)
        assert not abs_t.rows_exact
        # but the surviving cells keep exact value shadows
        assert abs_t.cell(0, 0).known


class TestStrongTier:
    def test_strong_partition_per_group_refs(self, env):
        q = Partition(TableRef("T"), keys=(0,), agg_func=H("agg_func"),
                      agg_col=H("agg_col"))
        abs_t = abstract_eval(q, env)
        # row 0 is in group A (rows 0-2); non-key columns 1, 2
        expected = _refs("T", *[(i, j) for i in range(3) for j in (1, 2)])
        assert _cell_refs(abs_t, env, 0, 3) == expected

    def test_target_refinement_restricts_to_column(self, env):
        q = Partition(TableRef("T"), keys=(0,), agg_func=H("agg_func"),
                      agg_col=2)
        refined = abstract_eval(q, env, target_refinement=True)
        assert _cell_refs(refined, env, 0, 3) == \
            _refs("T", (0, 2), (1, 2), (2, 2))
        unrefined = abstract_eval(q, env, target_refinement=False)
        assert _cell_refs(refined, env, 0, 3) < \
            _cell_refs(unrefined, env, 0, 3)

    def test_strong_group_one_row_per_group(self, env):
        q = Group(TableRef("T"), keys=(0,), agg_func=H("agg_func"),
                  agg_col=H("agg_col"))
        abs_t = abstract_eval(q, env)
        assert abs_t.n_rows == 2

    def test_empty_keys_group_each_table_whole(self, env):
        # keys=() reads no column: the grouping memo must tell tables
        # apart by their row count.
        analyzer = ProvenanceAbstraction().analyzer
        five = analyzer.abstract_eval(TableRef("T"), env)
        two = analyzer.abstract_eval(
            Group(TableRef("T"), keys=(0,), agg_func="sum", agg_col=2), env)
        assert analyzer.grouping(five, ()) == (tuple(range(5)),)
        assert analyzer.grouping(two, ()) == ((0, 1),)

    def test_aggregate_shadow_value_when_known(self, env):
        q = Group(TableRef("T"), keys=(0,), agg_func="sum", agg_col=2)
        # wrap so the whole query is still partial
        q2 = Arithmetic(q, func=H("func"), cols=H("cols"))
        abs_t = abstract_eval(q2, env)
        assert abs_t.cell(0, 1).known
        assert abs_t.cell(0, 1).value == 45


class TestStructuralOps:
    def test_join_cross_product(self, tiny_table):
        other = Table.from_rows("N", ["ID"], [["A"], ["B"]])
        env = Env.of(tiny_table, other)
        q = Join(TableRef("T"), TableRef("N"), pred=H("pred"))
        abs_t = abstract_eval(q, env)
        assert abs_t.n_rows == 10
        assert not abs_t.rows_exact

    def test_sort_and_proj_pass_through(self, env):
        base = Partition(TableRef("T"), keys=H("keys"),
                         agg_func=H("agg_func"), agg_col=H("agg_col"))
        sorted_q = Sort(base, cols=H("cols"), ascending=H("ascending"))
        assert abstract_eval(sorted_q, env) == abstract_eval(base, env)
        proj_q = Proj(base, cols=(1, 3))
        abs_t = abstract_eval(proj_q, env)
        assert abs_t.n_cols == 2


class TestPaperPruningScenario:
    """§2.2 / Fig. 6: q_B is pruned, the correct skeleton path survives."""

    def _demo(self):
        return Demonstration.of([
            [cell("T", 0, 0), cell("T", 0, 1),
             func("percent", func("sum", cell("T", 0, 3), cell("T", 1, 3)),
                  cell("T", 0, 4))],
            [cell("T", 6, 0), cell("T", 6, 1),
             func("percent",
                  partial_func("sum", cell("T", 0, 3), cell("T", 1, 3),
                               cell("T", 7, 3)),
                  cell("T", 6, 4))],
        ])

    def test_qb_is_pruned(self, health_env):
        qb = Arithmetic(Group(TableRef("T"), keys=(0, 1, 4),
                              agg_func=H("agg_func"), agg_col=H("agg_col")),
                        func=H("func"), cols=H("cols"))
        prov = ProvenanceAbstraction()
        assert not prov.feasible(qb, health_env, self._demo())

    def test_correct_path_survives(self, health_env):
        good = Arithmetic(
            Partition(Group(TableRef("T"), keys=(0, 1, 4),
                            agg_func=H("agg_func"), agg_col=H("agg_col")),
                      keys=H("keys"), agg_func=H("agg_func"),
                      agg_col=H("agg_col")),
            func=H("func"), cols=H("cols"))
        prov = ProvenanceAbstraction()
        assert prov.feasible(good, health_env, self._demo())

    def test_fully_abstract_skeleton_survives(self, health_env):
        skel = Arithmetic(Group(TableRef("T"), keys=H("keys"),
                                agg_func=H("agg_func"), agg_col=H("agg_col")),
                          func=H("func"), cols=H("cols"))
        prov = ProvenanceAbstraction()
        assert prov.feasible(skel, health_env, self._demo())


class TestValueShadowRefinement:
    def test_wrong_function_refuted_by_value(self, env):
        # demo demands sum(10, 20, 15) = 45 for group A; a proj-with-hole on
        # top keeps the query partial without adding shielding columns
        demo = Demonstration.of([
            [cell("T", 0, 0), func("sum", cell("T", 0, 2), cell("T", 1, 2),
                                   cell("T", 2, 2))],
            [cell("T", 3, 0), func("sum", cell("T", 3, 2), cell("T", 4, 2))],
        ])
        wrong = Proj(Group(TableRef("T"), keys=(0,), agg_func="avg",
                           agg_col=2), cols=H("cols"))
        right = Proj(Group(TableRef("T"), keys=(0,), agg_func="sum",
                           agg_col=2), cols=H("cols"))
        strict = ProvenanceAbstraction(value_shadow=True)
        loose = ProvenanceAbstraction(value_shadow=False)
        assert not strict.feasible(wrong, env, demo)
        assert strict.feasible(right, env, demo)
        # without the refinement, refs cannot tell the functions apart
        assert loose.feasible(wrong, env, demo)

    def test_partial_demo_cells_never_value_checked(self, env):
        demo = Demonstration.of([
            [cell("T", 0, 0), partial_func("sum", cell("T", 0, 2))],
            [cell("T", 3, 0), partial_func("sum", cell("T", 3, 2))],
        ])
        q = Arithmetic(Group(TableRef("T"), keys=(0,), agg_func="avg",
                             agg_col=2),
                       func=H("func"), cols=H("cols"))
        # avg's value differs from any sum, but the demo cells are partial,
        # so the value refinement must not fire
        assert ProvenanceAbstraction().feasible(q, env, demo)


class TestAnalyzerRetention:
    """One analyzer per abstraction: kept while the same engine is bound
    again, replaced when another engine is bound."""

    def test_rebind_reuses_retained_analyzer(self):
        from repro.engine import RowEngine
        prov = ProvenanceAbstraction()
        first, second = RowEngine(), RowEngine()
        prov.bind_engine(first)
        analyzer = prov.analyzer
        prov.bind_engine(first)
        assert prov.analyzer is analyzer        # same engine: memo kept
        prov.bind_engine(second)
        assert prov.analyzer is not analyzer    # another engine: replaced
        assert prov.analyzer.engine is second
        assert prov.engine is second

    def test_stale_id_entry_replaced_not_reused(self):
        # An analyzer built for a *different* engine object is never
        # reused for the engine now bound, whatever the ids.
        from repro.engine import RowEngine
        from repro.abstraction.provenance_abs import ProvenanceAnalyzer
        prov = ProvenanceAbstraction()
        old_engine, new_engine = RowEngine(), RowEngine()
        stale = ProvenanceAnalyzer(old_engine)
        prov._analyzer = stale
        prov.bind_engine(new_engine)
        assert prov.analyzer is not stale
        assert prov.analyzer.engine is new_engine


def _group_sum_demo():
    """Per-ID sums of T's Sales column."""
    return Demonstration.of([
        [cell("T", 0, 0), func("sum", cell("T", 0, 2), cell("T", 1, 2),
                               cell("T", 2, 2))],
        [cell("T", 3, 0), func("sum", cell("T", 3, 2), cell("T", 4, 2))],
    ])


class TestDemoAnalysisCache:
    """The demo-analysis memo is instance-owned and identity-safe."""

    def _demo(self):
        return _group_sum_demo()

    def test_no_module_global_cache(self):
        import repro.abstraction.consistency as consistency
        assert not hasattr(consistency, "_DEMO_CACHE")

    def test_instances_do_not_share_entries(self, env):
        a, b = ProvenanceAbstraction(), ProvenanceAbstraction()
        demo = self._demo()
        q = Group(TableRef("T"), keys=(0,), agg_func=H("agg_func"),
                  agg_col=H("agg_col"))
        assert a.feasible(q, env, demo)
        assert len(a._demo_cache) > 0
        assert len(b._demo_cache) == 0

    def test_stale_env_identity_is_recomputed(self, env):
        """A recycled Env id must never surface another env's values.

        Regression: the old guard only identity-checked the *demo*, so an
        entry keyed by a garbage-collected env's id answered for whatever
        new env inherited that id.  Entries now pin and identity-check
        both objects; a poked stale entry must be ignored and recomputed.
        """
        from repro.abstraction.consistency import DemoAnalysisCache
        cache = DemoAnalysisCache()
        demo = self._demo()
        other_env = Env.of(Table.from_rows("T", ["a", "b", "c"],
                                           [["x", 0, 0]] * 5))
        poison = object()
        cache._entries[(id(demo), id(env), True)] = \
            (demo, other_env, poison, poison, poison)
        refs, values, heads = cache.analysis(demo, env, True)
        assert refs is not poison
        assert values[0][1] == 45            # sum(10, 20, 15) under *env*
        # The stale entry was replaced by one pinning the right env.
        entry = cache._entries[(id(demo), id(env), True)]
        assert entry[1] is env

    def test_reset_clears_demo_cache(self, env):
        prov = ProvenanceAbstraction()
        prov.feasible(Group(TableRef("T"), keys=(0,), agg_func=H("agg_func"),
                            agg_col=H("agg_col")), env, self._demo())
        assert len(prov._demo_cache) > 0
        assert len(prov._verdicts) > 0
        prov.reset()
        assert len(prov._demo_cache) == 0
        assert len(prov._verdicts) == 0


class TestVerdictMemo:
    """``ProvenanceAbstraction.feasible`` memoizes Definition-3 verdicts by
    (the table's interned columns, n_rows, env, demo), pinning all of them
    and identity-checking env and demo."""

    def test_equal_tables_share_one_verdict(self, env):
        prov = ProvenanceAbstraction()
        demo = _group_sum_demo()
        # Sort and Proj-with-hole pass their child's abstract table through.
        base = Group(TableRef("T"), keys=(0,), agg_func=H("agg_func"),
                     agg_col=H("agg_col"))
        assert prov.feasible(base, env, demo)
        assert prov.feasible(Sort(base, cols=H("cols"),
                                  ascending=H("ascending")), env, demo)
        assert len(prov._verdicts) == 1

    def test_stale_env_identity_is_recomputed(self, env):
        prov = ProvenanceAbstraction()
        demo = _group_sum_demo()
        q = Group(TableRef("T"), keys=(0,), agg_func=H("agg_func"),
                  agg_col=H("agg_col"))
        assert prov.feasible(q, env, demo)
        (key,) = list(prov._verdicts)
        columns = prov._verdicts[key][2]
        other_env = Env.of(Table.from_rows("T", ["a", "b", "c"],
                                           [["x", 0, 0]] * 5))
        prov._verdicts[key] = (other_env, demo, columns, False)
        assert prov.feasible(q, env, demo)
        assert prov._verdicts[key] == (env, demo, columns, True)


class TestRefIndex:
    """Bit ``offset(T) + row * arity(T) + col`` per input cell."""

    def _env(self, tiny_table):
        other = Table.from_rows("N", ["ID", "Name"], [["A", "x"], ["B", "y"]])
        return Env.of(tiny_table, other)

    def test_layout(self, tiny_table):
        index = RefIndex(self._env(tiny_table))
        assert index.bits(CellRef("T", 0, 0)) == 1
        assert index.bits(CellRef("T", 1, 2)) == 1 << 5
        assert index.bits(CellRef("N", 0, 0)) == 1 << 15
        assert index.bits(CellRef("N", 1, 1)) == 1 << 18

    def test_bits_decode_round_trip(self, tiny_table):
        env = self._env(tiny_table)
        index = RefIndex(env)
        expr = func("percent", func("sum", cell("T", 0, 2), cell("T", 1, 2)),
                    cell("N", 1, 0))
        assert index.decode(index.bits(expr)) == refs_of(expr)
        every = [CellRef(t.name, i, j) for t in env.tables
                 for i in range(t.n_rows) for j in range(t.n_cols)]
        bits = 0
        for ref in every:
            bits |= index.bits(ref)
        assert bits == (1 << len(every)) - 1
        assert index.decode(bits) == frozenset(every)

    def test_foreign_refs_fit_no_cell(self, tiny_table):
        index = RefIndex(self._env(tiny_table))
        everything = (1 << 19) - 1
        for ref in (CellRef("T", 5, 0), CellRef("T", 0, 3),
                    CellRef("Z", 0, 0), CellRef("N", -1, 0)):
            need = index.bits(ref)
            assert need and need & ~everything
            with pytest.raises(ValueError):
                index.decode(need)

    def test_never_pickled(self, env):
        with pytest.raises(TypeError):
            pickle.dumps(RefIndex(env))

    def test_engine_numbers_each_tracked_table_once(self, env):
        engine = make_engine("columnar")
        index = engine.ref_index(env)
        assert engine.ref_index(env) is index
        tracked = engine.evaluate_tracking(
            Group(TableRef("T"), keys=(0,), agg_func="sum", agg_col=2), env)
        fresh = RefIndex(env)
        expected = tuple(
            fresh.bits(tracked.exprs[0][c]) | fresh.bits(tracked.exprs[1][c])
            for c in range(tracked.n_cols))
        first = index.column_bits(tracked.exprs, tracked.n_cols)
        assert first == expected
        assert index.column_bits(tracked.exprs, tracked.n_cols) is first


class TestPickling:
    """Cached hashes and ref indexes stay in their process."""

    def test_env_and_table_pickle_without_hash_or_index(self, env):
        prov = ProvenanceAbstraction()
        q = Group(TableRef("T"), keys=(0,), agg_func=H("agg_func"),
                  agg_col=H("agg_col"))
        assert prov.feasible(q, env, _group_sum_demo())
        table = abstract_eval(q, env)
        hash(env), hash(table)
        # Tables keep no cached hash at all: memos key them by column
        # identity, never by hashing the whole grid.
        assert "_hash" in vars(env) and not hasattr(table, "__dict__")
        for obj in (env, table):
            blob = pickle.dumps(obj)
            assert b"RefIndex" not in blob
            clone = pickle.loads(blob)
            assert "_hash" not in getattr(clone, "__dict__", {})
            assert clone == obj and hash(clone) == hash(obj)


class TestRowDedup:
    """Definition 3 tells abstract cells apart by their full signature."""

    def test_rows_differing_only_in_head_are_kept(self, env):
        # Both rows may draw from the same cells and neither value is
        # known; only the second one's head can produce a sum.
        from repro.abstraction.cells import (
            HEAD_AGGREGATE,
            HEAD_ARITHMETIC,
            AbstractCell,
            AbstractTable,
        )
        index = RefIndex(env)
        refs = index.bits(CellRef("T", 0, 2)) | index.bits(CellRef("T", 1, 2))
        table = AbstractTable.from_rows(
            ((AbstractCell.unknown(refs, HEAD_ARITHMETIC),),
             (AbstractCell.unknown(refs, HEAD_AGGREGATE),)),
            rows_exact=False)
        demo = Demonstration.of([[func("sum", cell("T", 0, 2),
                                       cell("T", 1, 2))]])
        assert abstract_consistent(table, demo, env)
        assert not abstract_consistent(
            AbstractTable.from_rows(table.rows[:1], rows_exact=False), demo,
            env)


class TestBooleanValues:
    """Python equates ``True`` with ``1``; ``value_eq`` does not, and no
    memo of the pruning layer may either."""

    def test_count_sibling_does_not_decide_max(self):
        env = Env.of(Table.from_rows("T", ["k", "b"],
                                     [["a", True], ["c", True]]))
        demo = Demonstration.of([[cell("T", 0, 0),
                                  func("max", cell("T", 0, 1))]])
        q_max = Group(TableRef("T"), keys=(0,), agg_col=1, agg_func="max")
        q_count = q_max.with_params(agg_func="count")
        assert ProvenanceAbstraction().feasible(q_max, env, demo)
        prov = ProvenanceAbstraction()
        # count's cells hold 1 where max's hold True: the tables compare
        # equal, but only max's value is the demonstrated one.
        assert not prov.feasible(q_count, env, demo)
        assert prov.feasible(q_max, env, demo)


    def test_equal_looking_cells_are_judged_apart(self):
        from repro.abstraction.cells import HEAD_REF, AbstractCell, \
            AbstractTable
        env = Env.of(Table.from_rows("T", ["k", "b"], [["a", True]]))
        refs = RefIndex(env).bits(CellRef("T", 0, 1))
        # One column whose two cells compare equal but hold 1 and True.
        table = AbstractTable.from_rows(
            ((AbstractCell(refs, 1, True, HEAD_REF),),
             (AbstractCell(refs, True, True, HEAD_REF),)))
        assert abstract_consistent(table, Demonstration.of(
            [[cell("T", 0, 1)]]), env)


class TestSiblingColumnSharing:
    """Counted, not timed: siblings of one ``agg_func`` family share their
    child's column objects, so each Definition-3 check adds the masks of
    one new column."""

    def test_each_sibling_adds_one_column(self, env):
        prov = ProvenanceAbstraction()
        # The columnar engine's sibling blocks share their child's columns.
        prov.bind_engine(make_engine("columnar"))
        demo = _group_sum_demo()
        parent = Sort(Partition(TableRef("T"), keys=(0,), agg_col=2,
                                agg_func=H("agg_func")),
                      cols=H("cols"), ascending=H("ascending"))
        position = holes_of(parent)[0]
        assert position[1] == "agg_func"
        # Window aggregates give every sibling a column of its own (rank
        # and dense_rank can abstract to equal columns, which share masks).
        config = SynthesisConfig(
            analytic_functions=("sum", "max", "min", "count", "avg"))
        domain = hole_domain(parent, position, env, config, demo,
                             prov.analyzer.engine)
        assert len(domain) == 5
        first = None
        for value in domain:
            query = fill(parent, position, value)
            before = len(prov._demo_cache.masks)
            prov.feasible(query, env, demo)
            table = prov.analyzer.abstract_eval(query, env)
            if first is None:
                first = table
                assert len(prov._demo_cache.masks) - before == table.n_cols
                continue
            assert all(mine is theirs for mine, theirs
                       in zip(table.columns[:-1], first.columns[:-1]))
            assert table.columns[-1] is not first.columns[-1]
            assert len(prov._demo_cache.masks) - before == 1

    def test_reset_empties_every_memo(self, env):
        prov = ProvenanceAbstraction()
        query = Sort(Partition(TableRef("T"), keys=(0,), agg_col=2,
                               agg_func="sum"),
                     cols=H("cols"), ascending=H("ascending"))
        prov.feasible(query, env, _group_sum_demo())
        memos = (prov._demo_cache, prov._demo_cache.masks, prov._verdicts,
                 prov.engine._ref_indexes)
        assert all(len(memo) for memo in memos)
        assert any(len(memo) for memo in prov.analyzer.memos())
        prov.reset()
        assert all(len(memo) == 0 for memo in memos + prov.analyzer.memos())
