"""Generative cross-backend differential harness.

The repo's core guarantee — the choice of engine trades evaluation
strategy, never results — cannot be held by hand-picked cases alone.
This harness draws seeded random query plans over seeded random tables
from :mod:`repro.oracle.fuzz`'s backend profile (mixed dtypes, ``None``
cells, empty tables, single-row groups, tolerance-tripping floats, ints
past 2**53 — the generator lives there so the database-oracle suite
shares it) and asserts that the row and columnar backends produce

* identical concrete tables (rows *and* inferred schemas),
* identical tracked terms and value shadows (term-for-term), and
* identical demonstration-consistency verdicts (incremental checker vs
  the naive Definition-1 oracle),

raising the same error type whenever a candidate is ill-typed on the
data.  Everything is deterministic through :func:`repro.util.rng.stable_rng`
— a failure reproduces from its printed seed alone.
"""

from __future__ import annotations

import pytest

from repro.engine import make_engine
from repro.oracle.fuzz import fuzz_case as _case
from repro.oracle.fuzz import random_value as _value
from repro.provenance.consistency import demo_consistent
from repro.provenance.demo import Demonstration
from repro.provenance.expr import CellRef, Const

#: Seeded evaluation cases (acceptance bar: >= 200 generated cases).
N_EVAL_CASES = 300
#: Seeded consistency-verdict cases (tracked output subgrids, half
#: perturbed so both verdicts occur).
N_CONSISTENCY_CASES = 120
#: Cases per parametrized batch: small enough that a failing batch
#: localizes quickly, large enough to keep collection overhead low.
BATCH = 25


def _outcome(thunk):
    """(result, error type) with the error classes batch eval tolerates."""
    try:
        return thunk(), None
    except (TypeError, ValueError, ZeroDivisionError) as err:
        return None, type(err)


#: Backends differential against the row-engine reference.
TARGETS = ["columnar"]

_BATCHES = [range(start, start + BATCH)
            for start in range(0, N_EVAL_CASES, BATCH)]


@pytest.mark.parametrize("seeds", _BATCHES,
                         ids=[f"{b[0]}-{b[-1]}" for b in _BATCHES])
def test_backends_identical_on_random_plans(seeds):
    """Concrete tables and tracked terms agree on every backend."""
    for seed in seeds:
        _, env, query = _case("backend-fuzz", seed)
        reference = make_engine("row")
        expected, expected_err = _outcome(
            lambda: reference.evaluate(query, env))
        tracked, tracked_err = _outcome(
            lambda: reference.evaluate_tracking(query, env))
        for backend in TARGETS:
            engine = make_engine(backend)
            actual, err = _outcome(lambda: engine.evaluate(query, env))
            assert err == expected_err, (seed, backend, query)
            if expected is not None:
                assert actual.rows == expected.rows, (seed, backend, query)
                assert actual.schema == expected.schema, \
                    (seed, backend, query)
            actual_tracked, err = _outcome(
                lambda: engine.evaluate_tracking(query, env))
            assert err == tracked_err, (seed, backend, query)
            if tracked is not None:
                assert actual_tracked.columns == tracked.columns, \
                    (seed, backend, query)
                assert actual_tracked.values == tracked.values, \
                    (seed, backend, query)
                assert actual_tracked.exprs == tracked.exprs, \
                    (seed, backend, query)


_CONSISTENCY_BATCHES = [range(start, start + BATCH)
                        for start in range(0, N_CONSISTENCY_CASES, BATCH)]


@pytest.mark.parametrize("seeds", _CONSISTENCY_BATCHES,
                         ids=[f"{b[0]}-{b[-1]}" for b in _CONSISTENCY_BATCHES])
def test_consistency_verdicts_identical_on_random_demos(seeds):
    """Incremental-checker verdicts match the oracle on every backend.

    Demonstrations are random subgrids of the reference tracked output
    (consistent by construction), half perturbed with foreign refs or
    constants so inconsistent verdicts are exercised too.
    """
    for seed in seeds:
        rng, env, query = _case("consistency-fuzz", seed)
        reference = make_engine("row")
        tracked, _ = _outcome(
            lambda: reference.evaluate_tracking(query, env))
        if tracked is None or tracked.n_rows == 0 or tracked.n_cols == 0:
            continue
        n_demo_rows = rng.randrange(1, min(3, tracked.n_rows) + 1)
        n_demo_cols = rng.randrange(1, min(3, tracked.n_cols) + 1)
        row_pick = rng.sample(range(tracked.n_rows), n_demo_rows)
        col_pick = rng.sample(range(tracked.n_cols), n_demo_cols)
        cells = [[tracked.exprs[r][c] for c in col_pick] for r in row_pick]
        if rng.random() < 0.5:
            i = rng.randrange(n_demo_rows)
            j = rng.randrange(n_demo_cols)
            cells[i][j] = rng.choice(
                (Const(_value(rng, "mixed", none_p=0.1)),
                 CellRef("T", rng.randrange(9), rng.randrange(5))))
        demo = Demonstration.of(cells)
        oracle = demo_consistent(tracked.exprs, demo.cells)
        for backend in ["row", *TARGETS]:
            engine = make_engine(backend)
            verdict = engine.consistency.demo_consistent(query, env, demo)
            assert verdict == oracle, (seed, backend, query)


def test_fuzz_case_count_meets_acceptance_bar():
    """The harness must keep generating at least the promised case count."""
    assert N_EVAL_CASES >= 200
    assert len(TARGETS) >= 1
