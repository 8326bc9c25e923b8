"""Real-database differential suite: engine vs SQLite / DuckDB.

The executable renderer plus the oracle loader promise end-to-end that
``to_sql(query, env, dialect)`` executed on a real database reproduces
``EvalEngine.evaluate(query, env)`` — rows *and* row order, under
``table.values`` equality.  This suite holds that promise three ways:

* every registry task's ground-truth query and its budgeted-synthesis
  ranked queries execute and match on every available database;
* 300+ seeded fuzz plans from the SQL profile
  (:func:`repro.oracle.fuzz.sql_fuzz_case`) match, with a floor on how
  many cases actually compared (a harness that silently skips everything
  would otherwise stay green);
* an engineered renderer bug (a dialect clone with the SUM-coalesce quirk
  disabled) is caught as a mismatch and shrunk to a minimal plan.

SQLite comes from the standard library; the DuckDB legs skip cleanly when
the module is absent (CI runs an oracle job with it installed).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.benchmarks import all_tasks
from repro.engine import RowEngine
from repro.lang import Env, Filter, Group, Partition, Sort, TableRef
from repro.lang.predicates import ConstCmp
from repro.lang.size import operator_count
from repro.lang.sql_render import DIALECTS
from repro.oracle import (
    HAVE_DUCKDB,
    Oracle,
    check_query,
    minimize,
    oracle_value_eq,
)
from repro.oracle.fuzz import sql_fuzz_case
from repro.synthesis.synthesizer import Synthesizer
from repro.table.table import Table

#: Same budget as the cross-backend differential sweep: deterministic
#: search prefixes, several skeletons per task, tens of seconds total.
VISITED_BUDGET = 400
#: Ranked queries per task fed to the databases.
RANKED_CAP = 4

#: Seeded SQL-profile fuzz plans (acceptance bar: >= 300).
N_FUZZ_CASES = 300
BATCH = 25
#: Of each batch, at least this many cases must actually compare — the
#: SQL profile grows plans against the engine precisely so that skips
#: (ill-typed plans, unsupported envs) stay rare.
MIN_COMPARED = 20

TASKS = all_tasks()

DB_DIALECTS = ["sqlite",
               pytest.param("duckdb",
                            marks=pytest.mark.skipif(
                                not HAVE_DUCKDB,
                                reason="duckdb not installed"))]

_ENGINE = RowEngine()


# ---------------------------------------------------------------- loader

class TestOracleLoader:
    def test_round_trip_preserves_rows_and_order(self):
        t = Table.from_rows("T", ["s", "n", "f", "b"], [
            ["O'Brien", 1, 2.5, True],
            [None, None, None, None],
            ['say "hi"', -7, 0.25, False],
        ])
        with Oracle(Env.of(t), "sqlite") as oracle:
            rows = oracle.execute(TableRef("T"))
        assert len(rows) == 3
        for expected, got in zip(t.rows, rows):
            for e, g in zip(expected, got):
                assert oracle_value_eq(e, g), (expected, got)

    def test_empty_table_loads(self):
        t = Table.from_rows("T", ["a", "b"], [])
        with Oracle(Env.of(t), "sqlite") as oracle:
            assert oracle.execute(TableRef("T")) == []

    def test_mixed_column_rejected(self):
        from repro.errors import OracleUnsupportedError

        t = Table.from_rows("T", ["a"], [[1], ["x"]])
        with pytest.raises(OracleUnsupportedError):
            Oracle(Env.of(t), "sqlite")

    def test_huge_int_rejected(self):
        from repro.errors import OracleUnsupportedError

        t = Table.from_rows("T", ["a"], [[2**64]])
        with pytest.raises(OracleUnsupportedError):
            Oracle(Env.of(t), "sqlite")

    def test_display_dialect_rejected(self):
        from repro.errors import OracleError

        t = Table.from_rows("T", ["a"], [[1]])
        with pytest.raises(OracleError):
            Oracle(Env.of(t), "display")

    def test_bool_int_affinity(self):
        assert oracle_value_eq(True, 1)
        assert oracle_value_eq(False, 0)
        assert not oracle_value_eq(True, 0)
        assert not oracle_value_eq(True, 2)
        assert oracle_value_eq(2, 2.0)
        assert not oracle_value_eq(None, 0)


# ------------------------------------------------------------- registry

@pytest.mark.parametrize("dialect", DB_DIALECTS)
@pytest.mark.parametrize("task", TASKS, ids=[t.name for t in TASKS])
def test_ground_truth_executes_and_matches(task, dialect):
    """Every registry ground truth parses, executes and matches."""
    outcome = check_query(task.ground_truth, task.env, dialect,
                          engine=_ENGINE)
    assert outcome.status == "ok", (
        outcome.skip_reason or outcome.mismatch.describe())


#: One budgeted row-backend search per task, shared across dialects
#: (deterministic, so recomputing per dialect would only double the wall
#: clock — the same reuse the cross-backend differential sweep does).
_RANKED: dict = {}


def _ranked_queries(task):
    if task.name not in _RANKED:
        config = task.config.replace(timeout_s=None,
                                     max_visited=VISITED_BUDGET)
        result = Synthesizer("provenance", config,
                             engine=RowEngine()).run(
            task.tables, task.demonstration)
        _RANKED[task.name] = list(result.queries)[:RANKED_CAP]
    return _RANKED[task.name]


@pytest.mark.parametrize("dialect", DB_DIALECTS)
@pytest.mark.parametrize("task", TASKS, ids=[t.name for t in TASKS])
def test_ranked_queries_match_database(task, dialect):
    """Synthesized (not just ground-truth) plans survive the oracle."""
    queries = _ranked_queries(task)
    with Oracle(task.env, dialect) as oracle:
        for query in queries:
            outcome = check_query(query, task.env, dialect, oracle=oracle,
                                  engine=_ENGINE)
            assert outcome.status == "ok", (
                task.name, outcome.skip_reason
                or outcome.mismatch.describe())


# ----------------------------------------------------------------- fuzz

_FUZZ_BATCHES = [range(start, start + BATCH)
                 for start in range(0, N_FUZZ_CASES, BATCH)]


@pytest.mark.parametrize("dialect", DB_DIALECTS)
@pytest.mark.parametrize("seeds", _FUZZ_BATCHES,
                         ids=[f"{b[0]}-{b[-1]}" for b in _FUZZ_BATCHES])
def test_fuzz_plans_match_database(seeds, dialect):
    compared = 0
    for seed in seeds:
        env, query = sql_fuzz_case("sql-oracle-fuzz", seed)
        outcome = check_query(query, env, dialect, engine=_ENGINE)
        assert outcome.status != "mismatch", (
            seed, outcome.mismatch.describe())
        compared += outcome.compared
    assert compared >= MIN_COMPARED, (
        f"only {compared}/{len(seeds)} cases compared; the SQL fuzz "
        "profile is drifting outside the oracle's domain")


def test_fuzz_case_count_meets_acceptance_bar():
    assert N_FUZZ_CASES >= 300


# ---------------------------------------------------- engineered mismatch

class TestMismatchReporting:
    """Flip a dialect quirk off and the harness must catch + shrink it."""

    @pytest.fixture
    def buggy_dialect(self):
        # Plain SQL SUM is NULL over an all-NULL group where the engine's
        # sum says 0; coalesce_empty_sum papers over exactly that.
        return replace(DIALECTS["sqlite"], name="sqlite-nosumfix",
                       coalesce_empty_sum=False)

    @pytest.fixture
    def case(self):
        table = Table.from_rows("T", ["K", "X"], [
            ["a", 1], ["b", None], ["b", None], ["a", 2],
            ["c", 5], ["c", None]])
        env = Env.of(table)
        query = Sort(
            Filter(Group(TableRef("T"), keys=(0,), agg_func="sum",
                         agg_col=1),
                   ConstCmp(1, ">=", 0)),
            cols=(1,), ascending=True)
        return env, query

    def test_mismatch_detected(self, buggy_dialect, case):
        env, query = case
        outcome = check_query(query, env, buggy_dialect, engine=_ENGINE)
        assert outcome.status == "mismatch"
        report = outcome.mismatch.describe()
        assert "sqlite-nosumfix" in report
        assert "sql:" in report and "plan:" in report

    def test_mismatch_minimized(self, buggy_dialect, case):
        env, query = case
        outcome = check_query(query, env, buggy_dialect, engine=_ENGINE)
        small = minimize(outcome.mismatch, engine=_ENGINE)
        # The mismatch needs only a bare all-NULL sum over one row.
        assert operator_count(small.query) == 1
        assert sum(t.n_rows for t in small.env.tables) == 1
        assert "engine 0" in small.reason or "engine rows" in \
            small.describe()

    def test_correct_dialect_has_no_mismatch(self, case):
        env, query = case
        outcome = check_query(query, env, "sqlite", engine=_ENGINE)
        assert outcome.status == "ok"


# ------------------------------------------------------- order fidelity

@pytest.mark.parametrize("dialect", DB_DIALECTS)
def test_sorted_output_order_matches_engine(dialect):
    """Row *order* (not just content) survives execution — the satellite
    fix for Sort rendering: ordering threads to the outermost SELECT."""
    table = Table.from_rows("T", ["g", "x"], [
        ["a", 3], ["b", None], ["a", 1], ["b", 3], ["a", None], ["b", 2]])
    env = Env.of(table)
    for ascending in (True, False):
        query = Sort(TableRef("T"), cols=(1, 0), ascending=ascending)
        outcome = check_query(query, env, dialect, engine=_ENGINE)
        assert outcome.status == "ok", outcome.mismatch.describe()


@pytest.mark.parametrize("dialect", DB_DIALECTS)
def test_group_first_occurrence_order(dialect):
    table = Table.from_rows("T", ["g", "x"], [
        ["z", 1], ["a", 2], ["m", 3], ["a", 4], ["z", 5]])
    env = Env.of(table)
    query = Group(TableRef("T"), keys=(0,), agg_func="sum", agg_col=1)
    outcome = check_query(query, env, dialect, engine=_ENGINE)
    assert outcome.status == "ok", outcome.mismatch.describe()
    rows = _ENGINE.evaluate(query, env).rows
    assert [r[0] for r in rows] == ["z", "a", "m"]


@pytest.mark.parametrize("dialect", DB_DIALECTS)
def test_cumsum_over_all_null_prefix(dialect):
    table = Table.from_rows("T", ["g", "x"], [
        ["a", None], ["a", None], ["a", 3], ["b", None]])
    env = Env.of(table)
    query = Partition(TableRef("T"), keys=(0,), agg_func="cumsum",
                      agg_col=1)
    outcome = check_query(query, env, dialect, engine=_ENGINE)
    assert outcome.status == "ok", outcome.mismatch.describe()
