"""Incremental demonstration-consistency checking (Definition 1, Fig. 10).

The naive judgment re-simplifies and re-matches the whole demonstration
grid against every candidate's tracked output, even though sibling
candidates of one instantiation family share all but one output column.
:class:`ConsistencyChecker` is the engine-owned incremental replacement
(PATSQL's lever — quick incremental inference of projected columns against
the example table — applied to provenance terms):

* **One reading of the demonstration.**  The checker keeps no demo state
  of its own: it reads the engine's
  :class:`~repro.provenance.analysis.DemoAnalysis` (cells simplified once
  per demonstration) and supplies only its cell test, ``E[i,j] ≺
  T★[r,c]``, to the analysis's embedding routine — the one Definition 3
  uses with its own test.

* **Match-matrix memo.**  The routine memoizes each tracked column's match
  matrix (per demo column, a bitmask over output rows for every demo row)
  by the column's identity: sibling candidates share columns by reference
  (:mod:`repro.engine.tracked_columns`), so checking a sibling that shares
  k−1 columns only matches the one new column.  Within a column,
  identity-distinct terms are judged once.

* **Column-level pruning.**  A candidate whose columns cannot cover the
  demonstration — some demo column has no compatible output column, or no
  injective column assignment exists — is rejected before any row
  embedding runs (``consistency_col_pruned`` in the engine stats).

* **Bitset embedding.**  Surviving candidates run
  :func:`repro.util.matching.bitset_embedding_exists`.

* **One batched pipeline.**  :meth:`demo_consistent_many` threads a whole
  sibling family through the engine's batched tracking evaluation
  (``tracked_columns_many``) and verdict computation in one call; the
  enumerator's sibling-family prefetch uses it so each subsequent pop is a
  verdict-cache hit.

Ownership mirrors the engine layer's session-isolation invariant: each
:class:`~repro.engine.base.EvalEngine` lazily owns one checker
(``engine.consistency``), parallel workers therefore get per-worker
checker instances, and the counters ride in the engine's mergeable
:class:`~repro.engine.base.EngineStats`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.engine.cache import BoundedCache
from repro.lang import ast
from repro.provenance.analysis import CellTest
from repro.provenance.consistency import generalizes_simplified
from repro.provenance.demo import Demonstration

DEFAULT_VERDICT_CACHE = 100_000

#: ``E[i,j] ≺ T★[r,c]`` over simplified terms (the tracking engines only
#: emit simplified terms; the analysis simplifies the demo cells).  Terms
#: are shared by reference across rows, so each object is judged once.
TRACKED_TEST = CellTest(key=id, demands=lambda analysis: analysis.columns,
                        fits=generalizes_simplified)


class ConsistencyChecker:
    """Engine-owned incremental ``E ≺ [[q(T̄)]]★`` (Definition 1) checker.

    Obtain through ``engine.consistency`` — never share one checker across
    engines: match matrices cache judgments over *that* engine's column
    objects, and the counters ride in that engine's stats.
    """

    def __init__(self, engine,
                 verdict_cache_size: int | None = DEFAULT_VERDICT_CACHE
                 ) -> None:
        self.engine = engine
        self._verdicts: BoundedCache = BoundedCache(verdict_cache_size)

    def clear(self) -> None:
        """Drop verdicts (engine reset)."""
        self._verdicts.clear()

    # ------------------------------------------------------------- checking
    def demo_consistent(self, query: ast.Query, env: ast.Env,
                        demo: Demonstration) -> bool:
        """Definition 1 for one concrete candidate (cached verdict)."""
        return self.demo_consistent_many((query,), env, demo)[0]

    def demo_consistent_many(self, queries: Sequence[ast.Query],
                             env: ast.Env,
                             demo: Demonstration) -> list[bool]:
        """Batched Definition 1 over a sibling family.

        Verdicts come back in input order.  Tracking evaluation and
        consistency checking share one batched pipeline: cache misses are
        evaluated through the engine's ``tracked_columns_many`` (column
        grids shared by identity across the family) and judged against the
        memoized match state.  A candidate that is ill-typed on the data
        (the engine's ``errors="none"`` exception set) is simply not a
        solution — verdict ``False``, exactly as the enumerator's historical
        per-candidate guard treated it.
        """
        stats = self.engine.stats
        demo_key = id(demo)
        verdicts = self._verdicts
        out = [False] * len(queries)
        missing: list[int] = []
        for idx, query in enumerate(queries):
            cached = verdicts.get((query, env, demo_key))
            if cached is not None and cached[1] is demo:
                stats.consistency_hits += 1
                out[idx] = cached[0]
            else:
                missing.append(idx)
        if not missing:
            return out
        analysis = self.engine.demo_analysis(demo, env)
        grids = self.engine.tracked_columns_many(
            [queries[idx] for idx in missing], env, errors="none")
        for idx, columns in zip(missing, grids):
            stats.consistency_checks += 1
            verdict = columns is not None and analysis.embeds(
                columns, len(columns[0]) if columns else 0, TRACKED_TEST,
                stats)
            # The entry pins the demonstration its key names by id.
            verdicts[(queries[idx], env, demo_key)] = (verdict, demo)
            out[idx] = verdict
        return out
