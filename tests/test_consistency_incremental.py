"""Differential tests for the incremental consistency checker.

The incremental checker (:mod:`repro.provenance.incremental`) must be a
pure performance device: over each task's *real* instantiation stream —
the exact candidate population Algorithm 1 feeds the ≺ judgment — its
verdicts must be identical to the naive Definition-1 implementation
(``demo_consistent``, kept as the reference oracle) on every task in the
benchmark registry, on both engine backends.

The unit tests below pin the checker's contract: verdict caching, the
column match-state memo shared across sibling candidates, column-level
pruning, batching equivalence, and reset behavior.
"""

import pytest

from repro.benchmarks import all_tasks, instantiation_stream
from repro.engine import make_engine
from repro.provenance.consistency import demo_consistent

#: Concrete candidates per task for the registry-wide differential sweep.
CANDIDATES = 40

TASKS = all_tasks()


def concrete_candidates(task, cap=CANDIDATES):
    """The task's real instantiation stream (shared helper)."""
    return instantiation_stream(task, cap)


def assert_matches_oracle(task, backend):
    engine = make_engine(backend)
    candidates = concrete_candidates(task)
    verdicts = engine.consistency.demo_consistent_many(
        candidates, task.env, task.demonstration)
    tracked = engine.evaluate_tracking_many(candidates, task.env,
                                            errors="none")
    for query, verdict, table in zip(candidates, verdicts, tracked):
        expected = (table is not None
                    and demo_consistent(table.exprs, task.demonstration.cells))
        assert verdict == expected, f"verdict mismatch on {query}"


@pytest.mark.parametrize("task", TASKS, ids=[t.name for t in TASKS])
def test_incremental_matches_oracle_columnar(task):
    assert_matches_oracle(task, "columnar")


@pytest.mark.parametrize("task", TASKS, ids=[t.name for t in TASKS])
def test_incremental_matches_oracle_row(task):
    """The generic ``tracked_columns_many`` transpose path (row-major
    grids, shared by identity only per candidate) drives the checker to
    the oracle's verdicts too."""
    assert_matches_oracle(task, "row")


@pytest.fixture()
def task():
    return next(t for t in TASKS if t.name == "fe01_total_sales_per_region")


class TestCheckerContract:
    def test_ground_truth_consistent(self, task):
        engine = make_engine("columnar")
        assert engine.consistency.demo_consistent(
            task.ground_truth, task.env, task.demonstration)

    def test_verdict_cache(self, task):
        engine = make_engine("columnar")
        checker = engine.consistency
        checker.demo_consistent(task.ground_truth, task.env,
                                task.demonstration)
        assert engine.stats.consistency_checks == 1
        assert engine.stats.consistency_hits == 0
        checker.demo_consistent(task.ground_truth, task.env,
                                task.demonstration)
        assert engine.stats.consistency_checks == 1
        assert engine.stats.consistency_hits == 1

    def test_batched_equals_single(self, task):
        candidates = concrete_candidates(task)
        batched = make_engine("columnar")
        singles = make_engine("columnar")
        many = batched.consistency.demo_consistent_many(
            candidates, task.env, task.demonstration)
        ones = [singles.consistency.demo_consistent(q, task.env,
                                                    task.demonstration)
                for q in candidates]
        assert many == ones

    def test_sibling_family_shares_column_state(self, task):
        """Checking a sibling family only computes each shared column's
        match matrix once — the memo must hit for reused columns."""
        candidates = concrete_candidates(task)
        engine = make_engine("columnar")
        engine.consistency.demo_consistent_many(candidates, task.env,
                                                task.demonstration)
        stats = engine.stats
        assert stats.col_match_hits > 0
        # Far fewer matrices computed than (candidate, column) pairs.
        total_columns = sum(
            t.n_cols for t in engine.evaluate_tracking_many(
                candidates, task.env, errors="none") if t is not None)
        assert stats.col_match_evals < total_columns

    def test_column_level_pruning_counted(self, task):
        """Candidates whose columns cannot cover the demo are rejected
        before any row embedding and counted as column-pruned."""
        candidates = concrete_candidates(task)
        engine = make_engine("columnar")
        engine.consistency.demo_consistent_many(candidates, task.env,
                                                task.demonstration)
        stats = engine.stats
        assert 0 < stats.consistency_col_pruned <= stats.consistency_checks

    def test_ill_typed_candidate_is_inconsistent(self, task):
        """A candidate that errors under evaluation is not a solution."""
        from repro.lang import ast
        bad = ast.Arithmetic(ast.TableRef(task.tables[0].name), "div",
                             (0, 0))
        engine = make_engine("columnar")
        try:
            engine.evaluate_tracking(bad, task.env)
            ill_typed = False
        except (TypeError, ValueError, ZeroDivisionError):
            ill_typed = True
        if not ill_typed:
            pytest.skip("table admits div(c0, c0); not an error case here")
        assert engine.consistency.demo_consistent(
            bad, task.env, task.demonstration) is False

    def test_reset_clears_checker_state(self, task):
        engine = make_engine("columnar")
        engine.consistency.demo_consistent(task.ground_truth, task.env,
                                           task.demonstration)
        engine.reset()
        assert engine.stats.consistency_checks == 0
        engine.consistency.demo_consistent(task.ground_truth, task.env,
                                           task.demonstration)
        # Cold again: the verdict was recomputed, not served from cache.
        assert engine.stats.consistency_checks == 1
        assert engine.stats.consistency_hits == 0

    def test_row_and_columnar_verdicts_agree(self, task):
        candidates = concrete_candidates(task)
        row = make_engine("row")
        columnar = make_engine("columnar")
        assert row.consistency.demo_consistent_many(
            candidates, task.env, task.demonstration) == \
            columnar.consistency.demo_consistent_many(
                candidates, task.env, task.demonstration)


class TestBitsetMatching:
    def test_bitset_match_agrees_with_callback_matcher(self):
        from itertools import product

        from repro.util.matching import bipartite_match, bitset_match
        # Exhaustive 3x3 adjacency sweep: feasibility must agree with the
        # callback matcher on all 512 graphs.
        for rows in product(range(8), repeat=3):
            viaset = bitset_match(list(rows), 3)
            via_cb = bipartite_match(3, 3,
                                     lambda i, j: bool(rows[i] >> j & 1))
            assert (viaset is None) == (via_cb is None), rows

    def test_bitset_match_assignment_is_valid(self):
        from repro.util.matching import bitset_match
        adjacency = [0b011, 0b001, 0b110]
        assign = bitset_match(adjacency, 3)
        assert assign is not None
        assert sorted(assign) == sorted(set(assign))
        for i, j in enumerate(assign):
            assert adjacency[i] >> j & 1

    def test_bitset_embedding_respects_injectivity(self):
        from repro.util.matching import bitset_embedding_exists
        # Two demo columns both only compatible with output column 0.
        options = [[(0, (0b1,))], [(0, (0b1,))]]
        assert not bitset_embedding_exists(options, 1, 1)

    def test_bitset_embedding_row_masks_intersect(self):
        from repro.util.matching import bitset_embedding_exists
        # Column choices individually fine, but their row masks force the
        # single demo row onto two different output rows — the AND of the
        # masks is empty, so no embedding exists.
        options = [[(0, (0b01,))], [(1, (0b10,))]]
        assert not bitset_embedding_exists(options, 1, 2)
        # Overlapping masks embed fine.
        options = [[(0, (0b11,))], [(1, (0b10,))]]
        assert bitset_embedding_exists(options, 1, 2)
