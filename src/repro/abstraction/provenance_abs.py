"""Abstract data provenance — the paper's core abstraction (Fig. 11).

Given a partial query ``q`` and inputs ``T̄``, the analyzer returns an
abstract table ``T◦ = [[q(T̄)]]◦`` whose every cell over-approximates the set
of input cells that can flow into that position under *any* instantiation of
``q`` (Property 1).  Precision climbs a ladder as parameters are filled:

* **weak** — no parameters known: a new aggregate/arithmetic column may draw
  from every cell (of the row, for row-local arithmetic; of the table, for
  grouping operators);
* **medium** — grouping/partition keys known but key *values* not yet
  concrete: the new column may draw from all rows but only non-key columns;
* **strong** — key values concrete: ``extractGroups`` determines the actual
  partition, and each new cell draws only from its own group's rows.

Two sound refinements beyond the figure (both toggleable for ablation):

* *target-column refinement* — once the aggregation column ``c_t`` is
  instantiated, the new column draws only from ``c_t`` (the figure's rules
  leave the whole ``α(c)`` parameter as one hole);
* *value shadows* — exact cell values are propagated where possible, which
  is what makes the strong tier applicable above partially-formed operators.

Concrete subqueries are evaluated under the tracking semantics and lifted,
exactly as §4 prescribes ("the analyzer will evaluate q using
provenance-tracking semantics ... to achieve stronger analysis").

Cell refs are bitsets over the env's :class:`~repro.provenance.refs.RefIndex`
numbering: every union below is an integer ``|``.

All memoization lives in :class:`ProvenanceAnalyzer` *instances* (bounded
caches) — there is no module-global evaluation state, so independent
synthesis sessions never share or clobber each other's results.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.abstraction.base import Abstraction
from repro.abstraction.cells import (
    HEAD_AGGREGATE,
    HEAD_ANY,
    HEAD_ARITHMETIC,
    HEAD_REF,
    HEAD_WINDOW,
    AbstractCell,
    AbstractTable,
)
from repro.abstraction.consistency import DemoAnalysisCache, \
    abstract_consistent
from repro.engine.cache import BoundedCache
from repro.errors import EvaluationError
from repro.lang import ast
from repro.lang.functions import analytic_spec, apply_function, function_spec
from repro.lang.holes import Hole, is_concrete
from repro.provenance.demo import Demonstration
from repro.provenance.expr import FuncApp, GroupSet
from repro.provenance.refs import RefIndex
from repro.semantics.groups import extract_groups, group_index_map

DEFAULT_EVAL_CACHE = 100_000
DEFAULT_HELPER_CACHE = 50_000


def _expr_head(expr) -> str:
    """Producer kind of a tracked term (group{} collapses are transparent —
    the ≺ judgment descends into any member)."""
    if isinstance(expr, GroupSet):
        return _expr_head(expr.members[0])
    if isinstance(expr, FuncApp):
        return function_spec(expr.func).kind
    return HEAD_REF


def _analytic_head(func_name: str | None) -> str:
    """Head of a partition output column for a (possibly unknown) α′."""
    if func_name is None:
        return HEAD_WINDOW
    return function_spec(analytic_spec(func_name).term_name).kind


def _union_refs(cells) -> int:
    out = 0
    for c in cells:
        out |= c.refs
    return out


def _join_heads(cells) -> str:
    """Common head of a cell collection; ``any`` when they disagree."""
    heads = {c.head for c in cells}
    if len(heads) == 1:
        return next(iter(heads))
    return HEAD_ANY


class ProvenanceAnalyzer:
    """``[[q(T̄)]]◦`` with all memoization owned by this instance.

    Concrete subqueries are evaluated through ``engine`` (tracked tables are
    lifted to abstract cells), so the analyzer reuses the synthesis session's
    subtree caches.
    """

    def __init__(self, engine=None,
                 eval_cache_size: int | None = DEFAULT_EVAL_CACHE,
                 helper_cache_size: int | None = DEFAULT_HELPER_CACHE) -> None:
        if engine is None:
            from repro.engine.row import RowEngine
            engine = RowEngine()
        self.engine = engine
        self._tables: BoundedCache = BoundedCache(eval_cache_size)
        self._column_heads: BoundedCache = BoundedCache(helper_cache_size)
        self._column_unions: BoundedCache = BoundedCache(helper_cache_size)
        self._table_unions: BoundedCache = BoundedCache(helper_cache_size)
        self._groupings: BoundedCache = BoundedCache(helper_cache_size)
        self._group_key_cells: BoundedCache = BoundedCache(helper_cache_size)
        self._group_pool_refs: BoundedCache = BoundedCache(helper_cache_size)
        self._ref_indexes: BoundedCache = BoundedCache(helper_cache_size)

    def clear(self) -> None:
        """Drop memoized abstract results (between experiment runs)."""
        self._tables.clear()
        self._column_heads.clear()
        self._column_unions.clear()
        self._table_unions.clear()
        self._groupings.clear()
        self._group_key_cells.clear()
        self._group_pool_refs.clear()
        self._ref_indexes.clear()

    def ref_index(self, env: ast.Env) -> RefIndex:
        """This analyzer's bit numbering of ``env``'s input cells."""
        index = self._ref_indexes.get(env)
        if index is None:
            index = self._ref_indexes[env] = RefIndex(env)
        return index

    # ---------------------------------------------------------------- entry
    def abstract_eval(self, query: ast.Query, env: ast.Env,
                      target_refinement: bool = True) -> AbstractTable:
        """``[[q(T̄)]]◦`` for a (possibly partial) query."""
        key = (query, env, target_refinement)
        hit = self._tables.get(key)
        if hit is not None:
            return hit
        table = self._eval(query, env, target_refinement)
        self._tables[key] = table
        return table

    def _eval(self, query: ast.Query, env: ast.Env,
              refine: bool) -> AbstractTable:
        if is_concrete(query):
            return self._lift_tracked(query, env)

        if isinstance(query, ast.Filter):
            child = self.abstract_eval(query.child, env, refine)
            # An unknown predicate keeps at most these rows: same cells, row
            # set no longer exact.
            return AbstractTable(child.rows, rows_exact=False)

        if isinstance(query, ast.Join):
            return self._abstract_join(query, env, refine, outer=False)

        if isinstance(query, ast.LeftJoin):
            return self._abstract_join(query, env, refine, outer=True)

        if isinstance(query, ast.Proj):
            child = self.abstract_eval(query.child, env, refine)
            if isinstance(query.cols, Hole):
                return child
            rows = tuple(tuple(row[c] for c in query.cols)
                         for row in child.rows)
            return AbstractTable(rows, rows_exact=child.rows_exact)

        if isinstance(query, ast.Sort):
            # Sorting permutes rows; the abstraction is order-insensitive, so
            # the child's abstract table is already sound.
            return self.abstract_eval(query.child, env, refine)

        if isinstance(query, ast.Group):
            return self._abstract_group(query, env, refine)

        if isinstance(query, ast.Partition):
            return self._abstract_partition(query, env, refine)

        if isinstance(query, ast.Arithmetic):
            return self._abstract_arithmetic(query, env, refine)

        raise EvaluationError(f"no abstract rule for {type(query).__name__}")

    def _lift_tracked(self, query: ast.Query, env: ast.Env) -> AbstractTable:
        return self.lift_tracked_many((query,), env)[0]

    def lift_tracked_many(self, queries, env: ast.Env) -> list[AbstractTable]:
        """Lift a batch of concrete subqueries through the engine's batched
        tracking evaluation (§4: concrete subqueries are evaluated under
        the tracking semantics for stronger analysis) — one engine dispatch
        for the whole sibling family."""
        bits = self.ref_index(env).bits
        out = []
        for tracked in self.engine.evaluate_tracking_many(queries, env):
            rows = tuple(
                tuple(AbstractCell(bits(expr), value, True, _expr_head(expr))
                      for expr, value in zip(expr_row, value_row))
                for expr_row, value_row in zip(tracked.exprs, tracked.values))
            out.append(AbstractTable(rows, rows_exact=True))
        return out

    # ------------------------------------------------------- cached helpers
    def column_heads(self, child: AbstractTable) -> tuple[str, ...]:
        hit = self._column_heads.get(child)
        if hit is None:
            hit = tuple(_join_heads(child.column(j))
                        for j in range(child.n_cols))
            self._column_heads[child] = hit
        return hit

    def column_unions(self, child: AbstractTable) -> tuple[int, ...]:
        hit = self._column_unions.get(child)
        if hit is None:
            hit = tuple(_union_refs(child.column(j))
                        for j in range(child.n_cols))
            self._column_unions[child] = hit
        return hit

    def table_union(self, child: AbstractTable) -> int:
        hit = self._table_unions.get(child)
        if hit is None:
            hit = _union_refs(c for row in child.rows for c in row)
            self._table_unions[child] = hit
        return hit

    def grouping(self, child: AbstractTable,
                 keys: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """``extractGroups`` over concrete key shadows, cached per
        (child, keys).

        Every (agg_col, agg_func) sibling in the search shares this grouping
        — caching it is the difference between linear and quadratic
        enumeration cost around grouping operators.
        """
        key = (child, keys)
        hit = self._groupings.get(key)
        if hit is None:
            key_rows = [[row[k].value for k in keys] for row in child.rows]
            hit = tuple(tuple(g) for g in extract_groups(key_rows))
            self._groupings[key] = hit
        return hit

    def group_key_cells(self, child: AbstractTable, keys: tuple[int, ...]
                        ) -> tuple[tuple[AbstractCell, ...], ...]:
        key = (child, keys)
        hit = self._group_key_cells.get(key)
        if hit is None:
            groups = self.grouping(child, keys)
            heads = self.column_heads(child)
            hit = tuple(
                tuple(AbstractCell(_union_refs(child.rows[i][k] for i in g),
                                   child.rows[g[0]][k].value, True, heads[k])
                      for k in keys)
                for g in groups)
            self._group_key_cells[key] = hit
        return hit

    def group_pool_refs(self, child: AbstractTable, keys: tuple[int, ...],
                        agg_pool: tuple[int, ...]) -> tuple[int, ...]:
        """Per-group union of refs over the aggregation candidate columns."""
        key = (child, keys, agg_pool)
        hit = self._group_pool_refs.get(key)
        if hit is None:
            groups = self.grouping(child, keys)
            out = []
            for g in groups:
                refs = 0
                for i in g:
                    for c in agg_pool:
                        refs |= child.rows[i][c].refs
                out.append(refs)
            hit = tuple(out)
            self._group_pool_refs[key] = hit
        return hit

    # ------------------------------------------------------- operator rules
    def _abstract_join(self, query, env: ast.Env, refine: bool,
                       outer: bool) -> AbstractTable:
        left = self.abstract_eval(query.left, env, refine)
        right = self.abstract_eval(query.right, env, refine)
        pred = query.pred
        pred_known = not isinstance(pred, Hole)
        rows = []
        for lrow in left.rows:
            for rrow in right.rows:
                if pred_known and pred is not None and not outer:
                    # Concrete inner-join predicate over known values:
                    # apply it.
                    if all(c.known for c in lrow + rrow):
                        if not pred.evaluate([c.value for c in lrow + rrow]):
                            continue
                rows.append(lrow + rrow)
        if outer:
            pad = tuple(AbstractCell(0, None, True, HEAD_REF)
                        for _ in range(right.n_cols))
            rows.extend(lrow + pad for lrow in left.rows)
        exact = False  # the surviving row set depends on the predicate
        if pred is None and not outer:
            exact = left.rows_exact and right.rows_exact
        return AbstractTable(tuple(rows), rows_exact=exact)

    def _abstract_group(self, query: ast.Group, env: ast.Env,
                        refine: bool) -> AbstractTable:
        child = self.abstract_eval(query.child, env, refine)
        n, m = child.n_rows, child.n_cols
        agg_col = None if isinstance(query.agg_col, Hole) else query.agg_col
        agg_func = None if isinstance(query.agg_func, Hole) else query.agg_func

        if isinstance(query.keys, Hole):
            # Weak: grouping unknown — every original column is a candidate
            # key whose cells may collapse any subset of rows; the new column
            # may draw from anywhere.
            col_unions = self.column_unions(child)
            heads = self.column_heads(child)
            everything = self.table_union(child)
            row = tuple(AbstractCell.unknown(u, h)
                        for u, h in zip(col_unions, heads)) \
                + (AbstractCell.unknown(everything, HEAD_AGGREGATE),)
            return AbstractTable(tuple(row for _ in range(max(n, 1))),
                                 rows_exact=False)

        keys = query.keys
        agg_pool = (agg_col,) if (refine and agg_col is not None) \
            else tuple(c for c in range(m) if c not in keys)

        if not child.column_known(keys):
            # Medium: keys known, key values not yet concrete.
            col_unions = self.column_unions(child)
            heads = self.column_heads(child)
            key_cells = tuple(AbstractCell.unknown(col_unions[k], heads[k])
                              for k in keys)
            new_refs = 0
            for c in agg_pool:
                new_refs |= col_unions[c]
            row = key_cells + (AbstractCell.unknown(new_refs, HEAD_AGGREGATE),)
            return AbstractTable(tuple(row for _ in range(max(n, 1))),
                                 rows_exact=False)

        # Strong: extractGroups over the concrete key values.
        groups = self.grouping(child, keys)
        key_cell_rows = self.group_key_cells(child, keys)
        pool_refs = self.group_pool_refs(child, keys, agg_pool)
        out_rows = []
        for g, key_cells, new_refs in zip(groups, key_cell_rows, pool_refs):
            new_cell = _aggregate_shadow(child, g, agg_col, agg_func, new_refs)
            out_rows.append(key_cells + (new_cell,))
        return AbstractTable(tuple(out_rows), rows_exact=child.rows_exact)

    def _abstract_partition(self, query: ast.Partition, env: ast.Env,
                            refine: bool) -> AbstractTable:
        child = self.abstract_eval(query.child, env, refine)
        n, m = child.n_rows, child.n_cols
        agg_col = None if isinstance(query.agg_col, Hole) else query.agg_col
        agg_func = None if isinstance(query.agg_func, Hole) else query.agg_func

        new_head = _analytic_head(agg_func)

        if isinstance(query.keys, Hole):
            # Weak: any row may share a partition with any other.
            everything = self.table_union(child)
            rows = tuple(row + (AbstractCell.unknown(everything, new_head),)
                         for row in child.rows)
            return AbstractTable(rows, rows_exact=child.rows_exact)

        keys = query.keys
        agg_pool = (agg_col,) if (refine and agg_col is not None) \
            else tuple(c for c in range(m) if c not in keys)

        if not child.column_known(keys):
            # Medium: keys known, partition membership unknown.
            col_unions = self.column_unions(child)
            new_refs = 0
            for c in agg_pool:
                new_refs |= col_unions[c]
            rows = tuple(row + (AbstractCell.unknown(new_refs, new_head),)
                         for row in child.rows)
            return AbstractTable(rows, rows_exact=child.rows_exact)

        # Strong: partition membership is determined by the concrete key
        # values.
        groups = self.grouping(child, keys)
        pool_refs = self.group_pool_refs(child, keys, agg_pool)
        row_group = group_index_map(groups)
        rows = []
        for i, row in enumerate(child.rows):
            gi = row_group[i]
            new_cell = _partition_shadow(child, groups[gi], i, agg_col,
                                         agg_func, pool_refs[gi])
            rows.append(row + (new_cell,))
        return AbstractTable(tuple(rows), rows_exact=child.rows_exact)

    def _abstract_arithmetic(self, query: ast.Arithmetic, env: ast.Env,
                             refine: bool) -> AbstractTable:
        child = self.abstract_eval(query.child, env, refine)
        func = None if isinstance(query.func, Hole) else query.func

        if isinstance(query.cols, Hole):
            # Weak: the new value may use any cell of its own row.
            rows = tuple(
                row + (AbstractCell.unknown(_union_refs(row),
                                            HEAD_ARITHMETIC),)
                for row in child.rows)
            return AbstractTable(rows, rows_exact=child.rows_exact)

        cols = query.cols
        rows = []
        for row in child.rows:
            refs = _union_refs(row[c] for c in cols)
            if func is not None and all(row[c].known for c in cols):
                value = apply_function(func, [row[c].value for c in cols])
                rows.append(row + (AbstractCell(refs, value, True,
                                                HEAD_ARITHMETIC),))
            else:
                rows.append(row + (AbstractCell.unknown(refs,
                                                        HEAD_ARITHMETIC),))
        return AbstractTable(tuple(rows), rows_exact=child.rows_exact)


def _aggregate_shadow(child: AbstractTable, group_rows,
                      agg_col: int | None, agg_func: str | None,
                      refs: int) -> AbstractCell:
    """Compute the aggregate's exact value when everything needed is known."""
    if agg_col is None or agg_func is None or not child.rows_exact:
        return AbstractCell.unknown(refs, HEAD_AGGREGATE)
    member_cells = [child.rows[i][agg_col] for i in group_rows]
    if not all(c.known for c in member_cells):
        return AbstractCell.unknown(refs, HEAD_AGGREGATE)
    value = apply_function(agg_func, [c.value for c in member_cells])
    return AbstractCell(refs, value, True, HEAD_AGGREGATE)


def _partition_shadow(child: AbstractTable, group_rows, row: int,
                      agg_col: int | None, agg_func: str | None,
                      refs: int) -> AbstractCell:
    head = _analytic_head(agg_func)
    if agg_col is None or agg_func is None or not child.rows_exact:
        return AbstractCell.unknown(refs, head)
    spec = analytic_spec(agg_func)
    if spec.order_dependent:
        # Row order below may differ from the eventual concrete order
        # (uninstantiated sorts pass through unchanged), so prefix-based
        # functions get no shadow value.
        return AbstractCell.unknown(refs, head)
    member_cells = [child.rows[i][agg_col] for i in group_rows]
    if not all(c.known for c in member_cells):
        return AbstractCell.unknown(refs, head)
    args = spec.row_args([c.value for c in member_cells], group_rows.index(row))
    return AbstractCell(refs, apply_function(spec.term_name, args), True, head)


def abstract_eval(query: ast.Query, env: ast.Env,
                  target_refinement: bool = True,
                  engine=None) -> AbstractTable:
    """``[[q(T̄)]]◦`` via a transient analyzer (direct API / tests).

    Synthesis sessions should use a persistent :class:`ProvenanceAnalyzer`
    (as :class:`ProvenanceAbstraction` does) so results are memoized across
    calls.
    """
    return ProvenanceAnalyzer(engine).abstract_eval(query, env,
                                                    target_refinement)


class ProvenanceAbstraction(Abstraction):
    """Sickle's pruning: abstract provenance + Definition 3 consistency."""

    name = "provenance"

    #: Retained analyzers: the pinned session analyzer plus up to three
    #: override analyzers (per-run backend overrides must not accumulate).
    MAX_ANALYZERS = 4

    def __init__(self, target_refinement: bool = True,
                 value_shadow: bool = True, head_typing: bool = True) -> None:
        self.target_refinement = target_refinement
        self.value_shadow = value_shadow
        self.head_typing = head_typing
        self._analyzer: ProvenanceAnalyzer | None = None
        # One analyzer per engine ever bound: a transient rebind (per-run
        # backend override) must not discard the session's memoization.
        # Explicit retention policy: the *first-bound* (session) analyzer
        # is pinned for the abstraction's lifetime; override analyzers are
        # kept in an LRU order (most recently re-bound last) and the least
        # recently used override is evicted past MAX_ANALYZERS.
        self._analyzers: OrderedDict[int, ProvenanceAnalyzer] = OrderedDict()
        self._session_key: int | None = None
        # Demo analyses are memoized per instance (Definition 3 checks the
        # same demonstration thousands of times per run) — no module-global
        # evaluation state anywhere in the stack.
        self._demo_cache = DemoAnalysisCache()
        # Definition-3 verdicts per (abstract table, env, demo): sibling
        # partial queries often abstract to equal tables.  Each entry pins
        # its env and demo, so their ids cannot be recycled while it lives,
        # and both are identity-checked on a hit.
        self._verdicts: BoundedCache = BoundedCache(DEFAULT_HELPER_CACHE)

    def bind_engine(self, engine) -> None:
        super().bind_engine(engine)
        key = id(engine)
        analyzer = self._analyzers.get(key)
        if analyzer is not None and analyzer.engine is engine:
            # Rebind of a retained engine: refresh its LRU recency.
            self._analyzers.move_to_end(key)
        else:
            # New engine — or a stale entry whose engine was collected and
            # its id recycled (the identity check above catches it); the
            # fresh analyzer replaces the stale one under the same key.
            analyzer = ProvenanceAnalyzer(engine)
            self._analyzers[key] = analyzer
            self._analyzers.move_to_end(key)
            if self._session_key is None:
                self._session_key = key
            while len(self._analyzers) > self.MAX_ANALYZERS:
                for candidate in self._analyzers:   # LRU first
                    if candidate != self._session_key:
                        del self._analyzers[candidate]
                        break
        self._analyzer = analyzer

    @property
    def analyzer(self) -> ProvenanceAnalyzer:
        if self._analyzer is None:
            self.bind_engine(self._engine())
        return self._analyzer

    def feasible(self, query: ast.Query, env: ast.Env,
                 demo: Demonstration) -> bool:
        # Partial queries face Definition 3 here; once fully instantiated
        # they instead face Definition 1 through the engine-owned
        # incremental checker (``engine.consistency``) — the two layers
        # share the bitset embedding core in :mod:`repro.util.matching`.
        table = self.analyzer.abstract_eval(query, env, self.target_refinement)
        key = (table, id(env), id(demo))
        hit = self._verdicts.get(key)
        if hit is not None and hit[0] is env and hit[1] is demo:
            return hit[2]
        verdict = abstract_consistent(table, demo, env,
                                      value_shadow=self.value_shadow,
                                      head_typing=self.head_typing,
                                      demo_cache=self._demo_cache)
        self._verdicts[key] = (env, demo, verdict)
        return verdict

    def reset(self) -> None:
        super().reset()
        for analyzer in self._analyzers.values():
            analyzer.clear()
        if self._analyzer is not None:
            self._analyzer.clear()
        self._demo_cache.clear()
        self._verdicts.clear()
