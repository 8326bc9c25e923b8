"""Skeleton construction and the expression-shape precheck."""

import pytest

from repro.lang import Arithmetic, Env, Group, Join, Partition, Sort, TableRef
from repro.lang.holes import holes_of
from repro.lang.size import operator_count
from repro.provenance import Demonstration, cell, func, partial_func
from repro.benchmarks import all_tasks
from repro.synthesis import (
    SynthesisConfig,
    SynthesisSession,
    construct_skeletons,
)
from repro.synthesis.shape import (
    demo_function_paths,
    function_paths,
    operator_chain,
    sequence_feasible,
    shape_feasible,
)
from repro.synthesis.skeletons import count_skeletons
from repro.table import Table


@pytest.fixture
def env(tiny_table):
    return Env.of(tiny_table)


class TestConstruction:
    def test_sizes_respect_budget(self, env):
        config = SynthesisConfig(max_operators=2)
        skeletons = construct_skeletons(env, config)
        assert skeletons
        assert all(1 <= operator_count(s) <= 2 for s in skeletons)

    def test_emitted_smallest_first(self, env):
        config = SynthesisConfig(max_operators=3)
        sizes = [operator_count(s) for s in construct_skeletons(env, config)]
        assert sizes == sorted(sizes)

    def test_all_parameters_are_holes(self, env):
        config = SynthesisConfig(max_operators=2)
        for skeleton in construct_skeletons(env, config):
            for node in skeleton.walk():
                if not isinstance(node, TableRef):
                    assert any(path or field
                               for path, field in holes_of(skeleton))

    def test_operator_pool_respected(self, env):
        config = SynthesisConfig(max_operators=2,
                                 operator_pool=("group", "arithmetic"))
        for skeleton in construct_skeletons(env, config):
            for node in skeleton.walk():
                assert not isinstance(node, (Partition, Sort))

    def test_sort_only_before_grouping_ops(self, env):
        config = SynthesisConfig(
            max_operators=3,
            operator_pool=("group", "partition", "arithmetic", "sort"))
        for skeleton in construct_skeletons(env, config):
            nodes = list(skeleton.walk())
            for below, above in zip(nodes, nodes[1:]):
                if isinstance(below, Sort):
                    assert isinstance(above, (Group, Partition))

    def test_join_trees_for_multi_table(self, tiny_table):
        other = Table.from_rows("N", ["ID", "X"], [["A", 1]])
        env = Env.of(tiny_table, other)
        config = SynthesisConfig(max_operators=2)
        skeletons = construct_skeletons(env, config)
        joins = [s for s in skeletons
                 if any(isinstance(n, Join) for n in s.walk())]
        assert joins
        # a join costs one operator
        assert all(operator_count(s) >= 1 for s in joins)

    def test_deterministic(self, env):
        config = SynthesisConfig(max_operators=3)
        assert construct_skeletons(env, config) == \
            construct_skeletons(env, config)


class TestFunctionPaths:
    def test_leaf_has_no_path(self):
        assert function_paths(cell("T", 0, 0)) == []

    def test_single_application(self):
        assert function_paths(func("sum", cell("T", 0, 0))) == [("aggregate",)]

    def test_nested_paths(self):
        # only maximal paths are emitted; ("arithmetic",) alone is subsumed
        e = func("percent", func("sum", cell("T", 0, 0)), cell("T", 0, 1))
        assert function_paths(e) == [("arithmetic", "aggregate")]

    def test_two_function_args_give_two_paths(self):
        e = func("div", func("sum", cell("T", 0, 0)),
                 func("max", cell("T", 0, 1)))
        assert function_paths(e) == [("arithmetic", "aggregate"),
                                     ("arithmetic", "aggregate")]

    def test_rank_kind(self):
        e = partial_func("rank", cell("T", 0, 0))
        assert function_paths(e) == [("ranker",)]


class TestShapeFeasible:
    def _demo(self):
        return Demonstration.of([[
            cell("T", 0, 0),
            func("percent", func("sum", cell("T", 0, 2)), cell("T", 0, 1)),
        ]])

    def test_needs_arith_above_aggregation(self):
        from repro.lang import Hole
        H = Hole
        good = Arithmetic(Group(TableRef("T"), keys=H("k"), agg_func=H("f"),
                                agg_col=H("c")), func=H("f"), cols=H("c"))
        bad_order = Group(Arithmetic(TableRef("T"), func=H("f"),
                                     cols=H("c")), keys=H("k"),
                          agg_func=H("f"), agg_col=H("c"))
        only_groups = Group(Group(TableRef("T"), keys=H("k"), agg_func=H("f"),
                                  agg_col=H("c")), keys=H("k"),
                            agg_func=H("f"), agg_col=H("c"))
        demo = self._demo()
        assert shape_feasible(good, demo)
        assert not shape_feasible(bad_order, demo)
        assert not shape_feasible(only_groups, demo)

    def test_ranker_requires_partition(self):
        from repro.lang import Hole
        H = Hole
        demo = Demonstration.of([[partial_func("rank", cell("T", 0, 2))]])
        group_only = Group(TableRef("T"), keys=H("k"), agg_func=H("f"),
                           agg_col=H("c"))
        partition = Partition(TableRef("T"), keys=H("k"), agg_func=H("f"),
                              agg_col=H("c"))
        assert not shape_feasible(group_only, demo)
        assert shape_feasible(partition, demo)

    def test_plain_refs_unconstrained(self):
        demo = Demonstration.of([[cell("T", 0, 0)]])
        assert shape_feasible(TableRef("T"), demo)

    def test_operator_chain_skips_non_producers(self):
        from repro.lang import Filter, Hole
        H = Hole
        q = Arithmetic(Filter(Group(TableRef("T"), keys=H("k"),
                                    agg_func=H("f"), agg_col=H("c")),
                              pred=H("p")),
                       func=H("f"), cols=H("c"))
        assert operator_chain(q) == ["group", "arithmetic"]


TASKS = all_tasks()


@pytest.mark.parametrize("precheck", (True, False), ids=("precheck", "off"))
def test_per_sequence_admission_matches_per_skeleton_check(precheck):
    """Screening operator sequences before building their skeletons gives
    exactly what building every skeleton and calling ``shape_feasible``
    on it gives: the same counters and the same lanes in the same order."""
    for task in TASKS:
        config = task.config.replace(shape_precheck=precheck)
        session = SynthesisSession(task.tables, task.demonstration, config)
        session.start()

        every = construct_skeletons(session.env, config)
        assert count_skeletons(session.env, config) == len(every)
        lanes = [s for s in every
                 if not precheck or shape_feasible(s, task.demonstration)]
        rejected = len(every) - len(lanes)
        stats = session.stats
        assert (stats.skeletons, stats.visited, stats.pruned) == \
            (len(every), rejected, rejected), task.name
        assert stats.max_skeleton_size == \
            max((operator_count(s) for s in lanes), default=0), task.name
        exported = session._worklist.export_lanes() if lanes else []
        assert [stack for _, stack in exported] == \
            [[s] for s in lanes], task.name
        assert [lane for lane, _ in exported] == list(range(len(lanes)))


def test_sequence_check_reads_the_producer_chain():
    share = func("percent", func("sum", cell("T", 0, 2)), cell("T", 0, 2))
    demo = Demonstration([[share, partial_func("rank", cell("T", 0, 1))],
                          [share, cell("T", 1, 0)]])
    paths = demo_function_paths(demo)
    assert paths == {("arithmetic", "aggregate"), ("ranker",)}
    assert sequence_feasible(("partition", "sort", "arithmetic"), paths)
    assert not sequence_feasible(("group", "arithmetic"), paths)
    assert not sequence_feasible(("arithmetic", "partition"), paths)
    assert not sequence_feasible(("filter", "proj"), paths)
    assert sequence_feasible(("filter",), frozenset())
