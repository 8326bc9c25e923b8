"""One reading of the demonstration per (demo, env) and engine.

Counted, not timed: a search builds one
:class:`~repro.provenance.analysis.DemoAnalysis`, and the Definition-1
checker, the Definition-3 check, the value baseline and hole-domain
ordering all read that one object.
"""

import pytest

from repro.abstraction.consistency import _TESTS
from repro.benchmarks import get_task
from repro.engine import make_engine
from repro.lang import Env, TableRef
from repro.provenance import Demonstration, cell, func, partial_func
from repro.provenance.analysis import NO_VALUE, DemoAnalysis
from repro.provenance.incremental import TRACKED_TEST
from repro.provenance.refs import RefIndex
from repro.synthesis.synthesizer import Synthesizer
from repro.table import Table

TASK = "fe01_total_sales_per_region"


@pytest.fixture()
def built(monkeypatch):
    """Every analysis constructed while the test runs."""
    out = []
    init = DemoAnalysis.__init__

    def counting_init(self, demo, env, index):
        init(self, demo, env, index)
        out.append(self)

    monkeypatch.setattr(DemoAnalysis, "__init__", counting_init)
    return out


@pytest.mark.parametrize("backend", ["columnar", "row"])
def test_one_analysis_serves_every_reader(backend, built, monkeypatch):
    task = get_task(TASK)
    env, demo = task.env, task.demonstration
    engine = make_engine(backend)
    config = task.config.replace(max_visited=600)
    Synthesizer("provenance", config, engine=engine).session(env, demo).run()
    assert len(built) == 1
    (analysis,) = built
    assert engine.demo_analysis(demo, env) is analysis
    assert analysis._index is engine.ref_index(env)
    tests = {test_id for _, test_id in analysis._masks}
    assert id(TRACKED_TEST) in tests                # Definition 1
    assert id(_TESTS[True, True]) in tests          # Definition 3
    assert engine.stats.col_match_evals > 0
    assert len(analysis._suggestions) > 0           # hole-domain ordering

    reads = []
    values = DemoAnalysis.values

    def counting_values(self):
        reads.append(self)
        return values.fget(self)

    monkeypatch.setattr(DemoAnalysis, "values", property(counting_values))
    Synthesizer("value", config, engine=engine).session(env, demo).run()
    assert len(built) == 1                          # the value baseline
    assert reads and all(read is analysis for read in reads)


def test_engines_do_not_share_analyses(built):
    task = get_task(TASK)
    env, demo = task.env, task.demonstration
    a, b = make_engine(), make_engine()
    assert a.demo_analysis(demo, env) is a.demo_analysis(demo, env)
    assert a.demo_analysis(demo, env) is not b.demo_analysis(demo, env)
    assert len(built) == 2


class TestReading:
    @pytest.fixture()
    def env(self):
        return Env.of(Table.from_rows("T", ["k", "x"],
                                      [["a", 1], ["a", 2], ["b", 3]]))

    def test_column_major_facts(self, env):
        demo = Demonstration.of([
            [cell("T", 0, 0), func("sum", cell("T", 0, 1), cell("T", 1, 1))],
            [cell("T", 2, 0), partial_func("sum", cell("T", 2, 1))],
        ])
        index = RefIndex(env)
        analysis = DemoAnalysis(demo, env, index)
        assert analysis.columns[1] == (demo.cell(0, 1), demo.cell(1, 1))
        assert analysis.refs[0] == (index.bits(cell("T", 0, 0)),
                                    index.bits(cell("T", 2, 0)))
        assert analysis.heads == (("ref", "ref"),
                                  ("aggregate", "aggregate"))
        # A partial cell has no value; None would be a real one.
        assert analysis.values == (("a", "b"), (3, NO_VALUE))

    def test_suggested_columns_read_the_child_block(self, env):
        demo = Demonstration.of([
            [cell("T", 0, 0), func("sum", cell("T", 0, 1), cell("T", 1, 1))],
        ])
        engine = make_engine()
        analysis = engine.demo_analysis(demo, env)
        child = TableRef("T")
        keys, aggs = analysis.suggested_columns(child, engine)
        assert keys == frozenset({0}) and aggs == frozenset({1})
        assert analysis.suggested_columns(child, engine)[0] is keys

    def test_column_stage_refutes_without_row_search(self, env):
        """Two demo columns that only one table column can host."""
        engine = make_engine()
        demo = Demonstration.of([[cell("T", 0, 1), cell("T", 0, 1)]])
        assert not engine.consistency.demo_consistent(TableRef("T"), env,
                                                      demo)
        assert engine.stats.consistency_col_pruned == 1
