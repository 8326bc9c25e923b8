"""Differential backend tests.

The engine a synthesizer evaluates through trades evaluation strategy
only — never results.  Every task in the benchmark registry runs through
an injected ``RowEngine`` and ``ColumnarEngine``; ranked queries and the search counters the paper
reports (``pruned`` / ``visited``) must match exactly.

Each backend is also held to itself on every task: batched evaluation
returns what single calls return, and a cache warmed over other rows
under the same query keys answers as a fresh engine does.

Searches run under a visited-query budget (no wall clock) so the
backends traverse identical search prefixes regardless of machine speed.
"""

import pytest

from repro.benchmarks import all_tasks, instantiation_stream
from repro.engine import BACKENDS, RowEngine, make_engine
from repro.engine.base import BATCH_EVAL_ERRORS
from repro.lang.ast import Env
from repro.synthesis.synthesizer import Synthesizer

#: Enough budget to cross several skeletons on every task while keeping the
#: full 80-task differential sweep in tens of seconds.
VISITED_BUDGET = 400

#: Concrete candidates per task for the term-for-term tracking sweep.
TRACKING_CANDIDATES = 24

TASKS = all_tasks()

#: Backends differentialed against the row-engine reference, all 80 tasks.
TARGET_BACKENDS = ["columnar"]


def concrete_candidates(task, cap):
    """The first ``cap`` concrete queries of the task's instantiation
    stream — the exact population Algorithm 1 feeds ``evaluate_tracking``."""
    return instantiation_stream(task, cap, engine=RowEngine())


_POPULATIONS: dict = {}


def population(task):
    """The tracking sweep's candidates plus q_gt, computed once per task."""
    if task.name not in _POPULATIONS:
        queries = concrete_candidates(task, TRACKING_CANDIDATES)
        queries.append(task.ground_truth)
        _POPULATIONS[task.name] = queries
    return _POPULATIONS[task.name]


def evaluate_each(engine, queries, env, tracking=False):
    """One single-query call per candidate, in order; a candidate that is
    ill-typed on ``env`` maps to ``None`` (the batched ``errors="none"``
    convention)."""
    evaluate = engine.evaluate_tracking if tracking else engine.evaluate
    out = []
    for query in queries:
        try:
            out.append(evaluate(query, env))
        except BATCH_EVAL_ERRORS:
            out.append(None)
    return out


def without_first_rows(env):
    """``env`` with the first row of every table dropped: the same table
    names and schemas, so every candidate's cache key recurs, over other
    rows."""
    return Env(tuple(t.take_rows(range(1, t.n_rows)) for t in env.tables))


def _run(task, backend: str):
    config = task.config.replace(timeout_s=None, max_visited=VISITED_BUDGET)
    synthesizer = Synthesizer("provenance", config,
                              engine=make_engine(backend))
    assert synthesizer.engine.name == backend
    return synthesizer.run(task.tables, task.demonstration)


#: One reference (row-backend) search per task, shared across the target
#: backends — the run is deterministic, so recomputing it per target would
#: only double the sweep's wall clock.
_ROW_RUNS: dict = {}


def _row_run(task):
    if task.name not in _ROW_RUNS:
        _ROW_RUNS[task.name] = _run(task, "row")
    return _ROW_RUNS[task.name]


def _assert_identical_search(reference, other):
    assert reference.queries == other.queries
    ref_stats, other_stats = reference.stats.as_dict(), other.stats.as_dict()
    ref_stats.pop("elapsed_s")          # wall clock is machine noise
    other_stats.pop("elapsed_s")
    assert ref_stats == other_stats


@pytest.mark.parametrize("backend", TARGET_BACKENDS)
@pytest.mark.parametrize("task", TASKS, ids=[t.name for t in TASKS])
def test_backends_identical_search(task, backend):
    _assert_identical_search(_row_run(task), _run(task, backend))


@pytest.mark.parametrize("backend", TARGET_BACKENDS)
@pytest.mark.parametrize("task", TASKS, ids=[t.name for t in TASKS])
def test_backends_identical_ground_truth_eval(task, backend):
    """Concrete and tracking evaluation agree byte-for-byte on q_gt."""
    row, target = RowEngine(), make_engine(backend)
    env = task.env
    assert row.evaluate(task.ground_truth, env) == \
        target.evaluate(task.ground_truth, env)
    assert row.evaluate_tracking(task.ground_truth, env) == \
        target.evaluate_tracking(task.ground_truth, env)


@pytest.mark.parametrize("backend", TARGET_BACKENDS)
@pytest.mark.parametrize("task", TASKS, ids=[t.name for t in TASKS])
def test_backends_identical_tracking_terms(task, backend):
    """``evaluate_tracking`` is compared *term-for-term* across backends.

    The population is the task's real instantiation stream (sibling
    candidates sharing all but their topmost parameters) plus q_gt — the
    exact workload whose provenance grids the TrackedBlock kernels build
    through shared selections, groupings and per-group term construction.
    """
    row, target = RowEngine(), make_engine(backend)
    env = task.env
    queries = concrete_candidates(task, TRACKING_CANDIDATES)
    queries.append(task.ground_truth)
    for query in queries:
        try:
            expected = row.evaluate_tracking(query, env)
        except (TypeError, ValueError, ZeroDivisionError) as err:
            with pytest.raises(type(err)):
                target.evaluate_tracking(query, env)
            continue
        actual = target.evaluate_tracking(query, env)
        assert actual.columns == expected.columns, query
        assert actual.values == expected.values, query
        for i, (row_exp, row_act) in enumerate(zip(expected.exprs,
                                                   actual.exprs)):
            for j, (term_exp, term_act) in enumerate(zip(row_exp, row_act)):
                assert term_act == term_exp, (query, i, j)


def test_interleaved_sessions_do_not_share_state():
    """Two synthesizers advance independently: no module-global caches.

    The runs are interleaved task-by-task with a reset of one session in
    the middle — under the old global-cache design the reset clobbered the
    other session's memoized state (and both sessions inflated each other's
    hit rates); now each engine owns its caches outright.
    """
    task_a, task_b = TASKS[0], TASKS[1]
    config = {"timeout_s": None, "max_visited": 200}

    solo = Synthesizer("provenance", task_a.config.replace(**config))
    solo_result = solo.run(task_a.tables, task_a.demonstration)

    a = Synthesizer("provenance", task_a.config.replace(**config))
    b = Synthesizer("provenance", task_b.config.replace(**config))
    b.run(task_b.tables, task_b.demonstration)
    b.reset()                      # must not touch a's caches
    a_result = a.run(task_a.tables, task_a.demonstration)
    b.run(task_b.tables, task_b.demonstration)

    assert a_result.queries == solo_result.queries
    assert a_result.stats.visited == solo_result.stats.visited
    assert a_result.stats.pruned == solo_result.stats.pruned
    # b's evaluations never landed in a's engine, and vice versa.
    assert a.engine is not b.engine
    assert b.engine.stats.concrete_evals > 0
    assert a.engine.stats.concrete_evals > 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("task", TASKS, ids=[t.name for t in TASKS])
def test_batched_matches_single_evaluation(task, backend):
    """``evaluate_many`` / ``evaluate_tracking_many`` over the task's real
    candidate stream return exactly what the single calls return, in input
    order, and advance the cache counters exactly as those calls do."""
    queries, env = population(task), task.env
    batched, single = make_engine(backend), make_engine(backend)
    assert batched.evaluate_many(queries, env, errors="none") == \
        evaluate_each(single, queries, env)
    assert batched.evaluate_tracking_many(queries, env, errors="none") == \
        evaluate_each(single, queries, env, tracking=True)
    assert batched.stats.as_dict() == single.stats.as_dict()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("task", TASKS, ids=[t.name for t in TASKS])
def test_warm_engine_matches_fresh(task, backend):
    """Engine caches are keyed by environment as well as by query.

    An engine that has already evaluated, tracked and checked the task's
    own candidates over the same tables minus their first rows — identical
    query keys against different data — must still answer them over the
    real tables exactly as a fresh engine does.
    """
    queries, env = population(task), task.env
    other = without_first_rows(env)
    warm = make_engine(backend)
    evaluate_each(warm, queries, other)
    evaluate_each(warm, queries, other, tracking=True)
    warm.consistency.demo_consistent_many(queries, other, task.demonstration)

    fresh = make_engine(backend)
    assert evaluate_each(warm, queries, env) == \
        evaluate_each(fresh, queries, env)
    assert evaluate_each(warm, queries, env, tracking=True) == \
        evaluate_each(fresh, queries, env, tracking=True)
    assert warm.consistency.demo_consistent_many(
        queries, env, task.demonstration) == \
        fresh.consistency.demo_consistent_many(queries, env,
                                               task.demonstration)
