"""The :class:`EvalEngine` interface and backend factory.

An engine answers the two evaluation questions the rest of the system asks
of a *concrete* query:

* ``evaluate(q, env)`` — the standard semantics ``[[q(T̄)]]`` (a
  :class:`~repro.table.table.Table`);
* ``evaluate_tracking(q, env)`` — the provenance-tracking semantics
  ``[[q(T̄)]]★`` (a :class:`~repro.semantics.tracking.TrackedTable`).

and owns every byte of state those answers are memoized through.  The
synthesizer, the hole-domain inference and all three abstractions evaluate
exclusively through an engine, so swapping the backend swaps the evaluation
strategy for the whole stack while search order and results stay identical.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from collections.abc import Sequence

from repro.engine.cache import BoundedCache
from repro.errors import HoleError
from repro.lang import ast
from repro.semantics.tracking import TrackedTable
from repro.table.table import Table

#: Transposed provenance grids retained by the generic
#: :meth:`EvalEngine.tracked_columns_many` (see there).
DEFAULT_GRID_CACHE = 50_000

#: The selectable evaluation backends (``SynthesisConfig.backend``).
#: ``"numpy"`` is always selectable — construction falls back to the
#: pure-python columnar engine (with a logged warning) when NumPy is not
#: importable; see :func:`resolve_backend` / :func:`capabilities`.
BACKENDS: tuple[str, ...] = ("row", "columnar", "numpy")

#: What ``errors="none"`` batch evaluation tolerates: the evaluation
#: failures of ill-typed candidates (e.g. arithmetic over a NULL-producing
#: division) — the exact exception set the enumerator's ≺ check treats as
#: "not a solution".  ``HoleError`` is *never* swallowed: a partial query
#: in a batch is a caller bug, not a data property.
BATCH_EVAL_ERRORS: tuple[type[Exception], ...] = (TypeError, ValueError,
                                                  ZeroDivisionError)


@dataclass
class EngineStats:
    """Cache-hit counters an engine maintains across its lifetime.

    The ``consistency_*`` / ``col_match_*`` counters belong to the engine's
    incremental Definition-1 checker (``engine.consistency``): verdicts
    computed vs served from cache, candidates rejected at the column stage
    before any row embedding, and per-(column, demonstration) match
    matrices computed vs served from the memo.
    """

    concrete_evals: int = 0     # evaluate() calls that missed the cache
    concrete_hits: int = 0      # evaluate() calls served from cache
    tracking_evals: int = 0     # evaluate_tracking() cache misses
    tracking_hits: int = 0      # evaluate_tracking() cache hits
    consistency_checks: int = 0      # Definition-1 verdicts computed
    consistency_hits: int = 0        # verdicts served from the checker cache
    consistency_col_pruned: int = 0  # verdicts decided at the column stage
    col_match_evals: int = 0    # (column, demo) match matrices computed
    col_match_hits: int = 0     # match matrices served from the memo
    # Inputs reach workers pickled and every engine owns its caches, so
    # these two always read 0.  They stay because the benchmark harness
    # (perfbench/child.py) reports them.
    shm_bytes_shipped: int = 0
    cross_shard_hits: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)

    @property
    def concrete_hit_rate(self) -> float:
        """Fraction of ``evaluate()`` calls served from cache (0 when idle)."""
        total = self.concrete_evals + self.concrete_hits
        return self.concrete_hits / total if total else 0.0

    @property
    def tracking_hit_rate(self) -> float:
        """Fraction of ``evaluate_tracking()`` calls served from cache."""
        total = self.tracking_evals + self.tracking_hits
        return self.tracking_hits / total if total else 0.0

    @property
    def consistency_hit_rate(self) -> float:
        """Fraction of consistency verdicts served from cache."""
        total = self.consistency_checks + self.consistency_hits
        return self.consistency_hits / total if total else 0.0

    @property
    def col_match_hit_rate(self) -> float:
        """Fraction of column match-matrix lookups served from the memo."""
        total = self.col_match_evals + self.col_match_hits
        return self.col_match_hits / total if total else 0.0

    @property
    def col_prune_rate(self) -> float:
        """Fraction of computed verdicts decided at the column stage."""
        return (self.consistency_col_pruned / self.consistency_checks
                if self.consistency_checks else 0.0)

    @staticmethod
    def merge(*parts: "EngineStats") -> "EngineStats":
        """Sum cache counters across engines (one per parallel worker).

        Every field is a counter — iterated from the dataclass fields so a
        newly added one can never be dropped from merges.
        """
        merged = EngineStats()
        for part in parts:
            for f in fields(EngineStats):
                setattr(merged, f.name,
                        getattr(merged, f.name) + getattr(part, f.name))
        return merged

    def snapshot(self) -> "EngineStats":
        """An independent copy frozen at this instant (the engine keeps
        counting; recorded results must not drift with it)."""
        return EngineStats(**self.as_dict())

    @staticmethod
    def delta(now: "EngineStats", since: "EngineStats") -> "EngineStats":
        """Field-wise ``now - since``: the traffic accrued after ``since``.

        This is how a :class:`~repro.synthesis.session.SynthesisSession`
        accounts for a *warm* engine handed to it by a worker pool — the
        engine's lifetime counters include other requests' traffic, and a
        session may only report the slice it caused.
        """
        out = EngineStats()
        for f in fields(EngineStats):
            setattr(out, f.name, getattr(now, f.name) - getattr(since, f.name))
        return out


class EvalEngine:
    """Base class: subclasses implement the two evaluators and ``reset``."""

    name = "abstract"

    def __init__(self) -> None:
        self.stats = EngineStats()
        self._consistency = None
        self._tracked_grids: BoundedCache = BoundedCache(DEFAULT_GRID_CACHE)

    @property
    def consistency(self):
        """The engine-owned incremental Definition-1 checker.

        Created lazily, one per engine — per-worker engines therefore get
        per-worker checker instances, and ``reset()`` drops the checker's
        state with the rest of the evaluation caches.  Counters ride in
        :attr:`stats`, so :meth:`EngineStats.merge` folds checker traffic
        across parallel workers like any other cache counter.
        """
        if self._consistency is None:
            from repro.provenance.incremental import ConsistencyChecker
            self._consistency = ConsistencyChecker(self)
        return self._consistency

    def _reset_consistency(self) -> None:
        """Drop consistency-path state; subclasses call from ``reset()``."""
        if self._consistency is not None:
            self._consistency.clear()
        self._tracked_grids.clear()

    def evaluate(self, query: ast.Query, env: ast.Env) -> Table:
        """``[[q(T̄)]]`` for a concrete query (raises ``HoleError`` on holes)."""
        raise NotImplementedError

    def evaluate_tracking(self, query: ast.Query, env: ast.Env) -> TrackedTable:
        """``[[q(T̄)]]★`` for a concrete query (raises ``HoleError`` on holes)."""
        raise NotImplementedError

    def evaluate_many(self, queries: Sequence[ast.Query], env: ast.Env,
                      errors: str = "raise") -> list[Table | None]:
        """Batched :meth:`evaluate` over sibling candidates.

        Results come back in input order, one per query, and the cache
        counters advance exactly as the equivalent sequence of single
        calls would.  ``errors="none"`` maps a candidate whose evaluation
        fails with one of :data:`BATCH_EVAL_ERRORS` to ``None`` instead of
        aborting the batch (holes always raise).  Backends override this
        loop to amortize dispatch and hole-checking over the batch.
        """
        self._check_errors_mode(errors)
        out: list[Table | None] = []
        for query in queries:
            try:
                out.append(self.evaluate(query, env))
            except HoleError:
                raise
            except BATCH_EVAL_ERRORS:
                if errors == "raise":
                    raise
                out.append(None)
        return out

    def evaluate_tracking_many(self, queries: Sequence[ast.Query],
                               env: ast.Env, errors: str = "raise"
                               ) -> list[TrackedTable | None]:
        """Batched :meth:`evaluate_tracking`; see :meth:`evaluate_many`."""
        self._check_errors_mode(errors)
        out: list[TrackedTable | None] = []
        for query in queries:
            try:
                out.append(self.evaluate_tracking(query, env))
            except HoleError:
                raise
            except BATCH_EVAL_ERRORS:
                if errors == "raise":
                    raise
                out.append(None)
        return out

    def tracked_columns_many(self, queries: Sequence[ast.Query],
                             env: ast.Env,
                             errors: str = "raise") -> list[tuple | None]:
        """Column-major provenance grids for a batch of concrete queries.

        One entry per query, in input order: a tuple of expression columns
        (``grid[c][r]`` is the provenance term of cell ``(r, c)``), or
        ``None`` for an ill-typed candidate under ``errors="none"``.  The
        generic implementation transposes :meth:`evaluate_tracking_many`
        results, caching the transposed grid per ``(query, env)`` so a
        re-checked candidate hands out the *same* column objects — without
        that, the consistency checker's identity-keyed match memo could
        never hit on row-major backends.  The columnar backend overrides
        this to hand out its cached ``TrackedBlock`` columns, which are
        additionally shared by identity *across sibling candidates* — the
        structural key the checker memoizes match state on.
        """
        cache = self._tracked_grids
        out: list[tuple | None] = [None] * len(queries)
        missing: list[int] = []
        for idx, query in enumerate(queries):
            hit = cache.get((query, env))
            if hit is not None:
                self.stats.tracking_hits += 1
                out[idx] = hit
            else:
                missing.append(idx)
        if not missing:
            return out
        tables = self.evaluate_tracking_many([queries[i] for i in missing],
                                             env, errors)
        for idx, table in zip(missing, tables):
            if table is None:
                continue
            grid = tuple(zip(*table.exprs)) if table.exprs else \
                tuple(() for _ in table.columns)
            cache[(queries[idx], env)] = grid
            out[idx] = grid
        return out

    @staticmethod
    def _check_errors_mode(errors: str) -> None:
        if errors not in ("raise", "none"):
            raise ValueError(
                f"errors must be 'raise' or 'none', got {errors!r}")

    def reset(self) -> None:
        """Drop all cached evaluation state and statistics."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def make_engine(name: str = "columnar", **kwargs) -> EvalEngine:
    """Factory: ``"row"`` | ``"columnar"`` | ``"numpy"``.

    ``"numpy"`` requires NumPy at engine-construction time; when it is not
    importable the factory logs a warning once and hands back a
    :class:`~repro.engine.columnar.ColumnarEngine` — results are identical
    across backends, so the fallback only trades speed.
    """
    from repro.engine.columnar import ColumnarEngine
    from repro.engine.numpy_kernels import make_numpy_engine
    from repro.engine.row import RowEngine

    factories = {"row": RowEngine, "columnar": ColumnarEngine,
                 "numpy": make_numpy_engine}
    try:
        factory = factories[name]
    except KeyError:
        raise ValueError(
            f"unknown engine backend {name!r}; choose from {sorted(factories)}"
        ) from None
    return factory(**kwargs)


def resolve_backend(name: str) -> str:
    """The backend ``make_engine(name)`` will actually construct.

    ``"numpy"`` resolves to ``"columnar"`` when NumPy is unavailable;
    every other known name resolves to itself.  Callers that compare a
    configured backend against ``engine.name`` (the synthesizer's per-run
    override detection) must compare resolved names, or a fallback engine
    would be rebuilt on every run.
    """
    if name not in BACKENDS:
        raise ValueError(
            f"unknown engine backend {name!r}; choose from {sorted(BACKENDS)}")
    if name == "numpy":
        from repro.engine.numpy_kernels import HAVE_NUMPY

        return "numpy" if HAVE_NUMPY else "columnar"
    return name


def capabilities() -> dict:
    """Probe of the evaluation backends this process can construct.

    Reports the selectable names, what each resolves to on this host
    (``"numpy"`` degrades to ``"columnar"`` without NumPy), and the NumPy
    availability/version driving that resolution.  Experiment drivers log
    this next to results so a run's effective kernels are reconstructable.
    """
    from repro.engine.numpy_kernels import HAVE_NUMPY, numpy_version

    return {
        "backends": BACKENDS,
        "default_backend": "columnar",
        "resolved": {name: resolve_backend(name) for name in BACKENDS},
        "numpy_available": HAVE_NUMPY,
        "numpy_version": numpy_version(),
    }
