"""Algorithm 1: the enumerative search loop end to end (small scales)."""

import pytest

from repro.abstraction import NoAbstraction
from repro.lang import Env, Group, Partition, TableRef
from repro.provenance import Demonstration, cell, func
from repro.semantics import evaluate
from repro.synthesis import (
    SynthesisConfig,
    Synthesizer,
    same_output,
    synthesize,
)


@pytest.fixture
def env(tiny_table):
    return Env.of(tiny_table)


@pytest.fixture
def sum_demo():
    """Demonstrates 'sum Sales per ID' on the intro table."""
    return Demonstration.of([
        [cell("T", 0, 0), func("sum", cell("T", 0, 2), cell("T", 1, 2),
                               cell("T", 2, 2))],
        [cell("T", 3, 0), func("sum", cell("T", 3, 2), cell("T", 4, 2))],
    ])


class TestBasicSynthesis:
    def test_finds_group_sum(self, tiny_table, sum_demo):
        config = SynthesisConfig(max_operators=1, timeout_s=10)
        result = synthesize([tiny_table], sum_demo, config=config)
        assert result.queries
        top = result.queries[0]
        assert isinstance(top, Group)
        assert top.agg_func == "sum" and top.keys == (0,)

    def test_all_results_are_consistent(self, tiny_table, sum_demo, env):
        from repro.provenance import demo_consistent
        from repro.semantics import evaluate_tracking
        config = SynthesisConfig(max_operators=1, timeout_s=10)
        result = synthesize([tiny_table], sum_demo, config=config)
        for q in result.queries:
            tracked = evaluate_tracking(q, env)
            assert demo_consistent(tracked.exprs, sum_demo.cells)

    def test_top_n_limits_results(self, tiny_table, sum_demo):
        config = SynthesisConfig(max_operators=2, timeout_s=10, top_n=3)
        result = synthesize([tiny_table], sum_demo, config=config)
        assert len(result.queries) <= 3

    def test_stop_predicate_mode(self, tiny_table, sum_demo, env):
        gt = Group(TableRef("T"), keys=(0,), agg_func="sum", agg_col=2)
        config = SynthesisConfig(max_operators=1, timeout_s=10)
        result = synthesize([tiny_table], sum_demo, config=config,
                            stop_predicate=lambda q: same_output(q, gt, env))
        assert result.solved
        assert same_output(result.target, gt, env)
        assert result.target_rank is not None

    def test_timeout_flag(self, tiny_table, sum_demo):
        config = SynthesisConfig(max_operators=3, timeout_s=0.0)
        result = synthesize([tiny_table], sum_demo, config=config)
        assert result.stats.timed_out

    def test_max_visited_budget(self, tiny_table, sum_demo):
        config = SynthesisConfig(max_operators=2, max_visited=5)
        result = synthesize([tiny_table], sum_demo, config=config)
        assert result.stats.visited <= 5
        assert result.stats.timed_out


class TestStrategies:
    def test_worklist_finds_the_query(self, tiny_table, sum_demo, env):
        gt = Group(TableRef("T"), keys=(0,), agg_func="sum", agg_col=2)
        config = SynthesisConfig(max_operators=1, timeout_s=20)
        result = synthesize([tiny_table], sum_demo, config=config,
                            stop_predicate=lambda q: same_output(q, gt, env))
        assert result.solved

    def test_search_order_same_across_abstractions(self, tiny_table,
                                                   sum_demo):
        """§5.1: identical enumeration order for every technique — the
        consistent queries (which no abstraction may prune) come out in the
        same order."""
        config = SynthesisConfig(max_operators=1, timeout_s=20, top_n=50)
        orders = []
        for abstraction in ("provenance", "value", "type", "none"):
            result = synthesize([tiny_table], sum_demo,
                                abstraction=abstraction, config=config)
            orders.append(result.queries)
        assert orders[0] == orders[1] == orders[2] == orders[3]


class TestPruningSoundness:
    def test_no_abstraction_baseline_agrees(self, tiny_table, sum_demo):
        """Pruning must never lose a consistent query (Property 2)."""
        config = SynthesisConfig(max_operators=1, timeout_s=20, top_n=50,
                                 shape_precheck=False)
        pruned = synthesize([tiny_table], sum_demo, abstraction="provenance",
                            config=config)
        free = synthesize([tiny_table], sum_demo, abstraction=NoAbstraction(),
                          config=config)
        assert set(pruned.queries) == set(free.queries)

    def test_provenance_visits_fewer(self, tiny_table, sum_demo):
        config = SynthesisConfig(max_operators=2, timeout_s=20, top_n=10)
        pruned = synthesize([tiny_table], sum_demo, abstraction="provenance",
                            config=config)
        free = synthesize([tiny_table], sum_demo, abstraction="none",
                          config=config)
        assert pruned.stats.visited <= free.stats.visited


class TestSynthesizerFacade:
    def test_reset_clears_caches(self, tiny_table, sum_demo):
        synth = Synthesizer("provenance",
                            SynthesisConfig(max_operators=1, timeout_s=10))
        first = synth.run([tiny_table], sum_demo)
        synth.reset()
        second = synth.run([tiny_table], sum_demo)
        assert [q for q in first.queries] == [q for q in second.queries]

    def test_unknown_abstraction_rejected(self):
        with pytest.raises(ValueError):
            Synthesizer("magic")


class TestPartitionSynthesis:
    def test_finds_cumsum(self, tiny_table, env):
        gt = Partition(TableRef("T"), keys=(0,), agg_func="cumsum", agg_col=2)
        from repro.spec import generate_demonstration
        demo = generate_demonstration(gt, env, label="test-cumsum")
        config = SynthesisConfig(max_operators=1, timeout_s=15)
        result = synthesize([tiny_table], demo, config=config,
                            stop_predicate=lambda q: same_output(q, gt, env))
        assert result.solved
