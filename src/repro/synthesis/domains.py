"""Hole-domain inference (Alg. 1, line 16).

Given a partial query and the position of its next hole, enumerate the
candidate values.  Holes are filled post-order, so the node's child is
always concrete by the time its parameters are inferred — the child's
concrete output supplies the column count and coarse column types.

Paper-faithful restrictions (§5.1):

* join predicates come only from declared primary/foreign keys (with a
  same-name-and-type fallback when a task declares no keys);
* filter constants are only those provided by the user (``config.constants``);
* aggregation functions must be type-compatible with their column
  (``count`` accepts anything, the numeric aggregates need numbers).

Demonstration-guided candidate ordering
---------------------------------------
Domains are *ordered*, and depth-first lanes explore candidates in domain
order, so informative orderings shorten the path to the solution without
changing the search space.  The demonstration pins down likely parameters:

* a demo column whose cells are plain input references is a group-key
  column the user demonstrated (footnote 1: any member of a collapsed
  group), so key subsets covering those columns are tried first;
* a demo cell headed by an aggregate points at the columns its references
  live in — those columns are tried first as aggregation targets.

The ordering is deterministic and identical for every abstraction technique
(the paper's same-search-order requirement, §5.1).
"""

from __future__ import annotations

from itertools import combinations, permutations

from repro.errors import SynthesisError
from repro.lang import ast
from repro.lang.functions import analytic_spec, function_spec
from repro.lang.holes import HolePosition, node_at
from repro.lang.predicates import ColCmp, ConstCmp
from repro.provenance.demo import Demonstration
from repro.synthesis.config import SynthesisConfig
from repro.table.table import Table
from repro.table.values import value_type


def hole_domain(query: ast.Query, position: HolePosition, env: ast.Env,
                config: SynthesisConfig,
                demo: Demonstration | None = None,
                engine=None) -> list:
    """Candidate values for the hole at ``position``.

    Concrete children are evaluated through ``engine`` (the synthesis
    session's engine, so the enumerator's subtree caches are reused); a
    transient engine is created when none is supplied.
    """
    if engine is None:
        from repro.engine.row import RowEngine
        engine = RowEngine()
    path, field = position
    node = node_at(query, path)

    if isinstance(node, (ast.Group, ast.Partition)):
        child = node.child_queries()[0]
        child_out = engine.evaluate(child, env)
        if field == "keys":
            domain = _key_domains(child_out, config)
            return _order_keys(domain, child, env, demo, engine)
        if field == "agg_col":
            domain = _agg_col_domain(node, child_out)
            return _order_agg_cols(domain, child, env, demo, engine)
        if field == "agg_func":
            return _agg_func_domain(node, child_out, config)

    if isinstance(node, ast.Arithmetic):
        child_out = engine.evaluate(node.child_queries()[0], env)
        if field == "cols":
            return _arith_cols_domain(child_out)
        if field == "func":
            return _arith_func_domain(node, config)

    if isinstance(node, ast.Filter) and field == "pred":
        child_out = engine.evaluate(node.child_queries()[0], env)
        return _filter_pred_domain(child_out, config)

    if isinstance(node, (ast.Join, ast.LeftJoin)) and field == "pred":
        return _join_pred_domain(node, env)

    if isinstance(node, ast.Sort):
        child_out = engine.evaluate(node.child_queries()[0], env)
        if field == "cols":
            return _sort_cols_domain(child_out, config)
        if field == "ascending":
            return [True, False]

    if isinstance(node, ast.Proj) and field == "cols":
        child_out = engine.evaluate(node.child_queries()[0], env)
        return [tuple(c) for size in range(1, child_out.n_cols + 1)
                for c in combinations(range(child_out.n_cols), size)]

    raise SynthesisError(
        f"no domain rule for hole {field!r} of {type(node).__name__}")


def _numeric_cols(table: Table) -> list[int]:
    return [j for j in range(table.n_cols)
            if table.schema.types[j] == "number"]


def _order_keys(domain: list[tuple[int, ...]], child: ast.Query,
                env: ast.Env, demo: Demonstration | None, engine) -> list:
    if demo is None:
        return domain
    suggested = engine.demo_analysis(demo, env).suggested_columns(
        child, engine)[0]
    if not suggested:
        return domain
    # Most suggested columns first, then smallest: ``_key_domains`` lists
    # key sets by size and the sort is stable, so size needs no key part.
    hit = suggested.__contains__
    return sorted(domain, key=lambda keys: -sum(map(hit, keys)))


def _order_agg_cols(domain: list[int], child: ast.Query, env: ast.Env,
                    demo: Demonstration | None, engine) -> list[int]:
    if demo is None:
        return domain
    suggested = engine.demo_analysis(demo, env).suggested_columns(
        child, engine)[1]
    if not suggested:
        return domain
    return sorted(domain, key=lambda c: (c not in suggested, c))


def _key_domains(child: Table, config: SynthesisConfig) -> list[tuple[int, ...]]:
    domains: list[tuple[int, ...]] = []
    if config.allow_empty_keys:
        domains.append(())
    # Keep at least one non-key column: the aggregate needs a target.
    max_keys = min(config.max_key_cols, max(child.n_cols - 1, 0))
    for size in range(1, max_keys + 1):
        domains.extend(combinations(range(child.n_cols), size))
    return domains


def _agg_col_domain(node, child: Table) -> list[int]:
    keys = node.keys if isinstance(node.keys, tuple) else ()
    return [c for c in range(child.n_cols) if c not in keys]


def _agg_func_domain(node, child: Table, config: SynthesisConfig) -> list[str]:
    numeric = isinstance(node.agg_col, int) and \
        child.schema.types[node.agg_col] == "number"
    if isinstance(node, ast.Partition):
        pool = config.analytic_functions
        return [f for f in pool
                if f == "count" or (numeric and _analytic_known(f))]
    pool = config.aggregate_functions
    return [f for f in pool if f == "count" or numeric]


def _analytic_known(name: str) -> bool:
    try:
        analytic_spec(name)
        return True
    except Exception:
        return False


def _arith_cols_domain(child: Table) -> list[tuple[int, ...]]:
    numeric = _numeric_cols(child)
    return [pair for pair in permutations(numeric, 2)]


def _arith_func_domain(node, config: SynthesisConfig) -> list[str]:
    cols = node.cols
    if not isinstance(cols, tuple) or len(cols) != 2:
        return list(config.arithmetic_functions)
    # (j, i) with j > i would re-create the commutative results of (i, j);
    # only non-commutative functions get the swapped pair.
    if cols[0] > cols[1]:
        return [f for f in config.arithmetic_functions
                if not function_spec(f).commutative]
    return list(config.arithmetic_functions)


def _filter_pred_domain(child: Table, config: SynthesisConfig) -> list:
    preds: list = []
    types = child.schema.types
    if config.filter_col_pairs:
        for i, j in combinations(range(child.n_cols), 2):
            if types[i] != types[j] or types[i] not in ("number", "string"):
                continue
            ops = config.comparison_ops if types[i] == "number" else ("==",)
            preds.extend(ColCmp(i, op, j) for op in ops)
    for c in range(child.n_cols):
        for const in config.constants:
            if value_type(const) != types[c]:
                continue
            ops = config.comparison_ops if types[c] == "number" else ("==",)
            preds.extend(ConstCmp(c, op, const) for op in ops)
    return preds


def _column_origins(query: ast.Query, env: ast.Env) -> list[tuple[str, str]]:
    """(table name, column name) of every output column of a join tree."""
    if isinstance(query, ast.TableRef):
        table = env.get(query.name)
        return [(query.name, c) for c in table.columns]
    if isinstance(query, (ast.Join, ast.LeftJoin)):
        return (_column_origins(query.left, env)
                + _column_origins(query.right, env))
    raise SynthesisError(
        "join predicates are only inferred over join trees of base tables")


def _join_pred_domain(node, env: ast.Env) -> list:
    left_origins = _column_origins(node.left, env)
    right_origins = _column_origins(node.right, env)
    offset = len(left_origins)

    def fk_links(table_a: str, col_a: str, table_b: str, col_b: str) -> bool:
        for fk in env.get(table_a).schema.foreign_keys:
            if fk.column == col_a and fk.ref_table == table_b \
                    and fk.ref_column == col_b:
                return True
        return False

    preds: list = []
    for li, (lt, lc) in enumerate(left_origins):
        for ri, (rt, rc) in enumerate(right_origins):
            if fk_links(lt, lc, rt, rc) or fk_links(rt, rc, lt, lc):
                preds.append(ColCmp(li, "==", offset + ri))
    if preds:
        return preds
    # Fallback: same column name and type (tasks without key metadata).
    for li, (lt, lc) in enumerate(left_origins):
        for ri, (rt, rc) in enumerate(right_origins):
            if lc != rc:
                continue
            lt_type = env.get(lt).schema.type_of(lc)
            rt_type = env.get(rt).schema.type_of(rc)
            if lt_type == rt_type:
                preds.append(ColCmp(li, "==", offset + ri))
    return preds


def _sort_cols_domain(child: Table, config: SynthesisConfig) -> list[tuple[int, ...]]:
    sortable = [c for c in range(child.n_cols)
                if child.schema.types[c] in ("number", "string")]
    domains: list[tuple[int, ...]] = [(c,) for c in sortable]
    if config.max_sort_cols >= 2:
        domains.extend(permutations(sortable, 2))
    return domains
