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
numbering (the engine's, so each tracked term is numbered once): every
union below is an integer ``|``.

Tables are column-major, and the work is column-incremental.  Sibling
partial queries differ in one output column: filter, sort and projection
reuse their child's column objects, partition and arithmetic append one
column to them, and lifted concrete subqueries reuse every column lifted
from the same engine columns.  Every column built passes through
:meth:`ProvenanceAnalyzer.interned`, so equal columns are one object, and
every helper is keyed by the identity of the columns it reads: a sibling
pays for its new column only — here, in the Definition-3 verdict memo
that :class:`ProvenanceAbstraction` keeps, and in the mask memo of the
engine's demo analysis.

All memoization lives in :class:`ProvenanceAnalyzer` and
:class:`ProvenanceAbstraction` *instances* (bounded caches) — there is no
module-global evaluation state, so independent synthesis sessions never
share or clobber each other's results.
"""

from __future__ import annotations

from repro.abstraction.base import Abstraction
from repro.abstraction.cells import (
    HEAD_AGGREGATE,
    HEAD_ANY,
    HEAD_ARITHMETIC,
    HEAD_REF,
    HEAD_WINDOW,
    AbstractCell,
    AbstractTable,
    column_key,
)
from repro.abstraction.consistency import abstract_consistent
from repro.engine.cache import BoundedCache
from repro.errors import EvaluationError
from repro.lang import ast
from repro.lang.functions import analytic_spec, apply_function, function_spec
from repro.lang.holes import Hole, is_concrete
from repro.provenance.demo import Demonstration
from repro.provenance.expr import FuncApp, GroupSet
from repro.semantics.groups import extract_groups

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


class ProvenanceAnalyzer:
    """``[[q(T̄)]]◦`` with all memoization owned by this instance.

    Concrete subqueries are evaluated through ``engine`` (tracked tables are
    lifted to abstract cells, numbered by the engine's ref index), so the
    analyzer reuses the synthesis session's subtree caches.

    Rules reuse their child's column objects and append new ones, so the
    helper memos below are keyed by the *identity* of the columns they
    read (plus ``n_rows`` where no column need be read: ``keys=()``
    groups a table without a key column).  Each entry pins its columns,
    so their ids cannot be recycled while the entry lives; a sibling
    family over one child therefore computes each helper once.
    """

    def __init__(self, engine=None,
                 eval_cache_size: int | None = DEFAULT_EVAL_CACHE,
                 helper_cache_size: int | None = DEFAULT_HELPER_CACHE) -> None:
        if engine is None:
            from repro.engine.row import RowEngine
            engine = RowEngine()
        self.engine = engine
        self._tables: BoundedCache = BoundedCache(eval_cache_size)
        self._canonical: BoundedCache = BoundedCache(helper_cache_size)
        self._lifted_columns: BoundedCache = BoundedCache(helper_cache_size)
        self._column_facts: BoundedCache = BoundedCache(helper_cache_size)
        self._unknown_columns: BoundedCache = BoundedCache(helper_cache_size)
        self._row_unions: BoundedCache = BoundedCache(helper_cache_size)
        self._groupings: BoundedCache = BoundedCache(helper_cache_size)
        self._group_key_columns: BoundedCache = BoundedCache(helper_cache_size)
        self._group_pool_refs: BoundedCache = BoundedCache(helper_cache_size)

    def memos(self) -> tuple[BoundedCache, ...]:
        """Every memo this analyzer owns."""
        return (self._tables, self._canonical, self._lifted_columns,
                self._column_facts, self._unknown_columns, self._row_unions,
                self._groupings, self._group_key_columns,
                self._group_pool_refs)

    def clear(self) -> None:
        """Drop memoized abstract results (between experiment runs)."""
        for memo in self.memos():
            memo.clear()

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
            return AbstractTable(child.columns, child.n_rows,
                                 rows_exact=False)

        if isinstance(query, ast.Join):
            return self._abstract_join(query, env, refine, outer=False)

        if isinstance(query, ast.LeftJoin):
            return self._abstract_join(query, env, refine, outer=True)

        if isinstance(query, ast.Proj):
            child = self.abstract_eval(query.child, env, refine)
            if isinstance(query.cols, Hole) or not child.n_rows:
                return child
            return AbstractTable(tuple(child.columns[c] for c in query.cols),
                                 child.n_rows, child.rows_exact)

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
        for the whole sibling family.

        Each lifted column is memoized by the identity of the engine's
        expression and value columns it comes from, so siblings whose
        tracked blocks share columns share the lifted ones too.
        """
        bits = self.engine.ref_index(env).bits
        lifted = self._lifted_columns
        out = []
        for block in self.engine.tracked_blocks_many(queries, env):
            columns = []
            for exprs, values in zip(block.expr_columns,
                                     block.values.columns):
                key = (id(exprs), id(values))
                hit = lifted.get(key)
                if hit is None:
                    hit = lifted[key] = (exprs, values, self.interned(tuple([
                        AbstractCell(bits(expr), value, True,
                                     _expr_head(expr))
                        for expr, value in zip(exprs, values)])))
                columns.append(hit[2])
            n_rows = block.n_rows
            out.append(AbstractTable(tuple(columns) if n_rows else (),
                                     n_rows))
        return out

    # ------------------------------------------------------- cached helpers
    def interned(self, column: tuple) -> tuple:
        """The first column built with ``column``'s content
        (:func:`column_key`).  Every column this analyzer builds passes
        through here, so equal columns are one object and the identity
        keys downstream (Definition-3 masks and verdicts) see equal
        tables as equal."""
        key = column_key(column)
        first = self._canonical.get(key)
        if first is None:
            self._canonical[key] = first = column
        return first

    def column_facts(self, column) -> tuple[int, str, bool]:
        """``(union of refs, common head, every value known)`` of a column
        (the head is ``any`` when the cells disagree)."""
        hit = self._column_facts.get(id(column))
        if hit is not None:
            return hit[1]
        refs = 0
        heads = set()
        known = True
        for cell in column:
            refs |= cell.refs
            heads.add(cell.head)
            known = known and cell.known
        facts = (refs, heads.pop() if len(heads) == 1 else HEAD_ANY, known)
        self._column_facts[id(column)] = (column, facts)
        return facts

    def constant_column(self, refs: int, head: str,
                        n: int) -> tuple[AbstractCell, ...]:
        """``n`` copies of the unknown cell ``(refs, head)`` — a weak or
        medium tier column — built once per ``(refs, head, n)``."""
        key = (refs, head, n)
        hit = self._unknown_columns.get(key)
        if hit is None:
            hit = self.interned((AbstractCell(refs, None, False, head),) * n)
            self._unknown_columns[key] = hit
        return hit

    def unknown_column(self, refs: tuple[int, ...],
                       head: str) -> tuple[AbstractCell, ...]:
        """The column of unknown cells ``(refs[i], head)``, built once per
        content: siblings whose new cells differ only in values they do
        not know (say, over different window functions) share it.  No
        cell carries a value, so no value type can be confused in these
        keys."""
        key = (refs, head)
        hit = self._unknown_columns.get(key)
        if hit is None:
            hit = self.interned(tuple([AbstractCell(r, None, False, head)
                                       for r in refs]))
            self._unknown_columns[key] = hit
        return hit

    def row_unions(self, columns: tuple, n_rows: int) -> tuple[int, ...]:
        """Per-row union of refs across ``columns``.

        Derived from the memoized unions of all but the last column, so a
        table that appends a column to its child's (partition, arithmetic)
        pays for the appended column only.
        """
        if not columns:
            return (0,) * n_rows
        key = tuple(map(id, columns))
        hit = self._row_unions.get(key)
        if hit is not None:
            return hit[1]
        leading = self.row_unions(columns[:-1], n_rows)
        unions = tuple([u | cell.refs for u, cell in zip(leading, columns[-1])])
        self._row_unions[key] = (columns, unions)
        return unions

    def _keyed(self, child: AbstractTable, cols: tuple[int, ...]) -> tuple:
        """The listed columns and their identity key within ``child``."""
        columns = tuple(child.columns[c] for c in cols)
        return columns, (child.n_rows,) + tuple(map(id, columns))

    def grouping(self, child: AbstractTable,
                 keys: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """``extractGroups`` over concrete key shadows, cached per
        (key columns, n_rows).

        Every (agg_col, agg_func) sibling in the search shares this grouping
        — caching it is the difference between linear and quadratic
        enumeration cost around grouping operators.
        """
        key_columns, key = self._keyed(child, keys)
        hit = self._groupings.get(key)
        if hit is None:
            if key_columns:
                key_rows = list(zip(*[[cell.value for cell in column]
                                      for column in key_columns]))
            else:
                key_rows = [()] * child.n_rows
            hit = (key_columns,
                   tuple(tuple(g) for g in extract_groups(key_rows)))
            self._groupings[key] = hit
        return hit[1]

    def group_key_columns(self, child: AbstractTable, keys: tuple[int, ...]
                          ) -> tuple[tuple[AbstractCell, ...], ...]:
        """The strong tier's key columns: per group, the union of the
        key cells' refs and the first row's value."""
        key_columns, key = self._keyed(child, keys)
        hit = self._group_key_columns.get(key)
        if hit is None:
            groups = self.grouping(child, keys)
            out = []
            for column in key_columns:
                head = self.column_facts(column)[1]
                out.append(self.interned(tuple([
                    AbstractCell(_union_refs(column, g), column[g[0]].value,
                                 True, head)
                    for g in groups])))
            hit = (key_columns, tuple(out))
            self._group_key_columns[key] = hit
        return hit[1]

    def group_pool_refs(self, child: AbstractTable, keys: tuple[int, ...],
                        agg_pool: tuple[int, ...]) -> tuple[int, ...]:
        """Per-group union of refs over the aggregation candidate columns."""
        key_columns, key = self._keyed(child, keys)
        pool_columns, pool_key = self._keyed(child, agg_pool)
        key = (key, pool_key)
        hit = self._group_pool_refs.get(key)
        if hit is None:
            hit = (key_columns, pool_columns,
                   tuple([_union_refs_many(pool_columns, g)
                          for g in self.grouping(child, keys)]))
            self._group_pool_refs[key] = hit
        return hit[2]

    def _pool_refs(self, child: AbstractTable,
                   agg_pool: tuple[int, ...]) -> int:
        refs = 0
        for c in agg_pool:
            refs |= self.column_facts(child.columns[c])[0]
        return refs

    def _all_known(self, child: AbstractTable, cols: tuple[int, ...]) -> bool:
        return all(self.column_facts(child.columns[c])[2] for c in cols)

    # ------------------------------------------------------- operator rules
    def _abstract_join(self, query, env: ast.Env, refine: bool,
                       outer: bool) -> AbstractTable:
        left = self.abstract_eval(query.left, env, refine)
        right = self.abstract_eval(query.right, env, refine)
        pred = query.pred
        pred_known = not isinstance(pred, Hole)
        right_rows = right.rows
        rows = []
        for lrow in left.rows:
            for rrow in right_rows:
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
        columns = tuple(map(self.interned, zip(*rows))) if rows else ()
        return AbstractTable(columns, len(rows), exact)

    def _abstract_group(self, query: ast.Group, env: ast.Env,
                        refine: bool) -> AbstractTable:
        child = self.abstract_eval(query.child, env, refine)
        n = child.n_rows
        agg_col = None if isinstance(query.agg_col, Hole) else query.agg_col
        agg_func = None if isinstance(query.agg_func, Hole) else query.agg_func

        if isinstance(query.keys, Hole):
            # Weak: grouping unknown — every original column is a candidate
            # key whose cells may collapse any subset of rows; the new column
            # may draw from anywhere.
            n_out = max(n, 1)
            everything = 0
            columns = []
            for column in child.columns:
                refs, head, _ = self.column_facts(column)
                everything |= refs
                columns.append(self.constant_column(refs, head, n_out))
            columns.append(self.constant_column(everything, HEAD_AGGREGATE,
                                                n_out))
            return AbstractTable(tuple(columns), n_out, rows_exact=False)

        if not n:
            return child        # no rows: no groups
        keys = query.keys
        agg_pool = (agg_col,) if (refine and agg_col is not None) \
            else tuple(c for c in range(child.n_cols) if c not in keys)

        if not self._all_known(child, keys):
            # Medium: keys known, key values not yet concrete.
            columns = []
            for k in keys:
                refs, head, _ = self.column_facts(child.columns[k])
                columns.append(self.constant_column(refs, head, n))
            columns.append(self.constant_column(
                self._pool_refs(child, agg_pool), HEAD_AGGREGATE, n))
            return AbstractTable(tuple(columns), n, rows_exact=False)

        # Strong: extractGroups over the concrete key values.
        groups = self.grouping(child, keys)
        pool_refs = self.group_pool_refs(child, keys, agg_pool)
        if agg_col is None or agg_func is None or not child.rows_exact:
            new_column = self.unknown_column(pool_refs, HEAD_AGGREGATE)
        else:
            new_column = self._aggregate_column(
                child.columns[agg_col], groups, agg_func, pool_refs)
        return AbstractTable(self.group_key_columns(child, keys)
                             + (new_column,), len(groups), child.rows_exact)

    def _aggregate_column(self, column, groups, agg_func: str,
                          pool_refs) -> tuple[AbstractCell, ...]:
        """The aggregate's exact value per group where every member value
        is known."""
        all_known = self.column_facts(column)[2]
        out = []
        for g, refs in zip(groups, pool_refs):
            members = [column[i] for i in g]
            if all_known or all(c.known for c in members):
                value = apply_function(agg_func, [c.value for c in members])
                out.append(AbstractCell(refs, value, True, HEAD_AGGREGATE))
            else:
                out.append(AbstractCell(refs, None, False, HEAD_AGGREGATE))
        return self.interned(tuple(out))

    def _abstract_partition(self, query: ast.Partition, env: ast.Env,
                            refine: bool) -> AbstractTable:
        child = self.abstract_eval(query.child, env, refine)
        n = child.n_rows
        if not n:
            return child
        agg_col = None if isinstance(query.agg_col, Hole) else query.agg_col
        agg_func = None if isinstance(query.agg_func, Hole) else query.agg_func

        new_head = _analytic_head(agg_func)

        if isinstance(query.keys, Hole):
            # Weak: any row may share a partition with any other.
            everything = 0
            for column in child.columns:
                everything |= self.column_facts(column)[0]
            new_column = self.constant_column(everything, new_head, n)
            return AbstractTable(child.columns + (new_column,), n,
                                 child.rows_exact)

        keys = query.keys
        agg_pool = (agg_col,) if (refine and agg_col is not None) \
            else tuple(c for c in range(child.n_cols) if c not in keys)

        if not self._all_known(child, keys):
            # Medium: keys known, partition membership unknown.
            new_column = self.constant_column(
                self._pool_refs(child, agg_pool), new_head, n)
            return AbstractTable(child.columns + (new_column,), n,
                                 child.rows_exact)

        # Strong: partition membership is determined by the concrete key
        # values.
        groups = self.grouping(child, keys)
        pool_refs = self.group_pool_refs(child, keys, agg_pool)
        spec = None if agg_func is None else analytic_spec(agg_func)
        if agg_col is None or spec is None or not child.rows_exact \
                or spec.order_dependent:
            # No shadow values.  Row order below may differ from the
            # eventual concrete order (uninstantiated sorts pass through
            # unchanged), so prefix-based functions get none either.
            row_refs = [0] * n
            for g, refs in zip(groups, pool_refs):
                for i in g:
                    row_refs[i] = refs
            new_column = self.unknown_column(tuple(row_refs), new_head)
        else:
            new_column = self._window_column(child.columns[agg_col], groups,
                                             spec, pool_refs, new_head, n)
        return AbstractTable(child.columns + (new_column,), n,
                             child.rows_exact)

    def _window_column(self, column, groups, spec, pool_refs, head: str,
                       n: int) -> tuple[AbstractCell, ...]:
        """The window function's exact value per row where every member
        value of the row's group is known."""
        all_known = self.column_facts(column)[2]
        cells: list = [None] * n
        for g, refs in zip(groups, pool_refs):
            members = [column[i] for i in g]
            if not (all_known or all(c.known for c in members)):
                cell = AbstractCell(refs, None, False, head)
                for i in g:
                    cells[i] = cell
                continue
            values = [c.value for c in members]
            if spec.style == "all":
                # Every row of the group sees the whole group.
                cell = AbstractCell(refs, apply_function(
                    spec.term_name, spec.row_args(values, 0)), True, head)
                for i in g:
                    cells[i] = cell
            else:
                for pos, i in enumerate(g):
                    cells[i] = AbstractCell(refs, apply_function(
                        spec.term_name, spec.row_args(values, pos)), True,
                        head)
        return self.interned(tuple(cells))

    def _abstract_arithmetic(self, query: ast.Arithmetic, env: ast.Env,
                             refine: bool) -> AbstractTable:
        child = self.abstract_eval(query.child, env, refine)
        n = child.n_rows
        if not n:
            return child
        func = None if isinstance(query.func, Hole) else query.func

        if isinstance(query.cols, Hole):
            # Weak: the new value may use any cell of its own row.
            new_column = self.unknown_column(
                self.row_unions(child.columns, n), HEAD_ARITHMETIC)
            return AbstractTable(child.columns + (new_column,), n,
                                 child.rows_exact)

        operands = tuple(child.columns[c] for c in query.cols)
        row_refs = self.row_unions(operands, n)
        if func is None:
            new_column = self.unknown_column(row_refs, HEAD_ARITHMETIC)
        else:
            all_known = all(self.column_facts(column)[2]
                            for column in operands)
            cells = []
            for refs, row in zip(row_refs, zip(*operands)):
                if all_known or all(c.known for c in row):
                    value = apply_function(func, [c.value for c in row])
                    cells.append(AbstractCell(refs, value, True,
                                              HEAD_ARITHMETIC))
                else:
                    cells.append(AbstractCell(refs, None, False,
                                              HEAD_ARITHMETIC))
            new_column = self.interned(tuple(cells))
        return AbstractTable(child.columns + (new_column,), n,
                             child.rows_exact)


def _union_refs(column, rows) -> int:
    out = 0
    for i in rows:
        out |= column[i].refs
    return out


def _union_refs_many(columns, rows) -> int:
    out = 0
    for column in columns:
        for i in rows:
            out |= column[i].refs
    return out


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

    def __init__(self, target_refinement: bool = True,
                 value_shadow: bool = True, head_typing: bool = True) -> None:
        self.target_refinement = target_refinement
        self.value_shadow = value_shadow
        self.head_typing = head_typing
        # One analyzer, for the bound engine: a session that evaluates
        # through another engine brings its own abstraction.  The engine
        # also owns the demo analysis that Definition 3 reads, column masks
        # included.
        self._analyzer: ProvenanceAnalyzer | None = None
        # Definition-3 verdicts per (columns, n_rows, env, demo), keyed by
        # column identity: the analyzer builds each column content once,
        # so sibling partial queries that abstract to equal tables share a
        # verdict.  Each entry pins what it keys on, so no id can be
        # recycled while it lives, and env and demo are identity-checked on
        # a hit.
        self._verdicts: BoundedCache = BoundedCache(DEFAULT_HELPER_CACHE)

    def bind_engine(self, engine) -> None:
        """Keep the analyzer (and its memo) when ``engine`` is already the
        bound one; replace it when another engine is bound."""
        super().bind_engine(engine)
        if self._analyzer is None or self._analyzer.engine is not engine:
            self._analyzer = ProvenanceAnalyzer(engine)

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
        analyzer = self.analyzer
        table = analyzer.abstract_eval(query, env, self.target_refinement)
        columns = table.columns
        key = (tuple(map(id, columns)), table.n_rows, id(env), id(demo))
        hit = self._verdicts.get(key)
        if hit is not None and hit[0] is env and hit[1] is demo:
            return hit[3]
        verdict = abstract_consistent(
            table, demo, env, value_shadow=self.value_shadow,
            head_typing=self.head_typing,
            analysis=analyzer.engine.demo_analysis(demo, env))
        self._verdicts[key] = (env, demo, columns, verdict)
        return verdict

    def reset(self) -> None:
        super().reset()
        if self._analyzer is not None:
            self._analyzer.clear()
        self._verdicts.clear()
