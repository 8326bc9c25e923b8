"""Seeded random plan generators for the differential harnesses.

Two profiles share one module because they share structure but not goals:

* The **backend profile** (``fuzz_case``) is the cross-backend harness's
  generator, moved here verbatim from ``tests/test_backend_fuzz.py`` so the
  oracle layer and the test suite draw from one source.  It is openly
  adversarial — mixed-dtype columns, NUL strings, ints past int64,
  tolerance-tripping floats — because the in-process backends must agree on
  *everything* representable.  Its RNG call order is load-bearing: seeded
  cases are reproduced from their printed seed alone, so any edit here
  invalidates recorded failures.

* The **SQL profile** (``sql_fuzz_case``) generates plans inside the
  oracle's portable domain: single-typed columns, type-matched predicates,
  kind-restricted aggregates, value pools that avoid the places where SQL
  and the engine legitimately diverge (storage affinity on mixed columns,
  int64 overflow — silent in SQLite — float tolerance trippers).  Plans
  are grown incrementally against the row engine so that every generated
  case actually evaluates, keeping the compared-case rate high instead of
  skipping half the corpus on type errors.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.naming import output_columns
from repro.lang.predicates import AndPred, ColCmp, ConstCmp, TruePred
from repro.table.table import Table
from repro.table.values import Value

AGG_FUNCS = ("sum", "avg", "max", "min", "count")
ANALYTIC_FUNCS = ("sum", "avg", "max", "min", "count", "cumsum", "cummax",
                  "cummin", "cumavg", "rank", "dense_rank", "rank_desc",
                  "dense_rank_desc")
ARITH_FUNCS = ("add", "sub", "mul", "div", "percent", "pct_change")
COMPARISON_OPS = ("==", "<", ">", "<=", ">=", "!=")

# ---------------------------------------------------------------------------
# Backend profile (cross-backend differential; adversarial value domain).
# ---------------------------------------------------------------------------

#: Value pools chosen to trip every classification and comparison edge:
#: int/float collisions (2 vs 2.0), float pairs inside and outside the
#: 1e-9 equality tolerance, ints beyond the int64-exactness bound, empty
#: strings, bools (same Python value as 0/1, different sort class).
INT_POOL = (0, 1, 2, 3, -1, -7, 10, 100, 10**12, 10**12 + 1, 2**53 + 1,
            -(2**53) - 3)
FLOAT_POOL = (0.0, -0.0, 1.0, 2.0, 2.5, -1.5, 0.1 + 0.2, 0.3, 1e-10,
              -1e-10, 1e12, 1e12 + 0.001, 3.0000000001, 3.0)
STR_POOL = ("a", "b", "cc", "d", "", "A", "ab", "a\x00", "\x00")
COLUMN_KINDS = ("int", "float", "str", "bool", "mixed")


def random_value(rng, kind: str, none_p: float = 0.2):
    if rng.random() < none_p:
        return None
    if kind == "mixed":
        kind = rng.choice(("int", "float", "str", "bool"))
    if kind == "int":
        return rng.choice(INT_POOL)
    if kind == "float":
        return rng.choice(FLOAT_POOL)
    if kind == "bool":
        return rng.random() < 0.5
    return rng.choice(STR_POOL)


def random_table(rng, name: str) -> Table:
    n_rows = rng.randrange(0, 9)       # 0 rows: empty-table edge case
    n_cols = rng.randrange(1, 5)
    kinds = [rng.choice(COLUMN_KINDS) for _ in range(n_cols)]
    # Low per-column None probability keeps most columns single-typed
    # while still exercising NULL handling in every kernel.
    none_p = rng.choice((0.0, 0.0, 0.15, 0.5))
    rows = [tuple(random_value(rng, kinds[j], none_p) for j in range(n_cols))
            for _ in range(n_rows)]
    return Table.from_rows(name, [f"c{j}" for j in range(n_cols)], rows)


def random_pred(rng, n_cols: int):
    roll = rng.random()
    if roll < 0.4:
        return ConstCmp(rng.randrange(n_cols), rng.choice(COMPARISON_OPS),
                        random_value(rng, "mixed", none_p=0.1))
    if roll < 0.75:
        return ColCmp(rng.randrange(n_cols), rng.choice(COMPARISON_OPS),
                      rng.randrange(n_cols))
    if roll < 0.9:
        return AndPred((ConstCmp(rng.randrange(n_cols),
                                 rng.choice(COMPARISON_OPS),
                                 random_value(rng, "mixed", none_p=0.1)),
                        ColCmp(rng.randrange(n_cols),
                               rng.choice(COMPARISON_OPS),
                               rng.randrange(n_cols))))
    return TruePred()


def _width(query: ast.Query, env: ast.Env) -> int:
    return len(output_columns(query, env))


def random_plan(rng, env: ast.Env, depth: int) -> ast.Query:
    query: ast.Query = ast.TableRef(rng.choice(env.names()))
    for _ in range(depth):
        n_cols = _width(query, env)
        op = rng.choice(("filter", "sort", "proj", "group", "group",
                         "partition", "partition", "arith", "join",
                         "leftjoin"))
        if op == "filter":
            query = ast.Filter(query, random_pred(rng, n_cols))
        elif op == "sort":
            width = rng.randrange(1, min(n_cols, 3) + 1)
            query = ast.Sort(query,
                             tuple(rng.sample(range(n_cols), width)),
                             rng.random() < 0.5)
        elif op == "proj":
            width = rng.randrange(1, n_cols + 1)
            query = ast.Proj(query,
                             tuple(rng.sample(range(n_cols), width)))
        elif op == "group":
            keys = tuple(sorted(rng.sample(range(n_cols),
                                           rng.randrange(0, n_cols))))
            query = ast.Group(query, keys, rng.choice(AGG_FUNCS),
                              rng.randrange(n_cols))
        elif op == "partition":
            keys = tuple(sorted(rng.sample(range(n_cols),
                                           rng.randrange(0, n_cols))))
            query = ast.Partition(query, keys, rng.choice(ANALYTIC_FUNCS),
                                  rng.randrange(n_cols))
        elif op == "arith":
            query = ast.Arithmetic(query, rng.choice(ARITH_FUNCS),
                                   (rng.randrange(n_cols),
                                    rng.randrange(n_cols)))
        elif op in ("join", "leftjoin"):
            other = ast.TableRef(rng.choice(env.names()))
            total = n_cols + _width(other, env)
            if op == "join":
                pred = None if rng.random() < 0.3 else random_pred(rng, total)
                query = ast.Join(query, other, pred)
            else:
                query = ast.LeftJoin(query, other, random_pred(rng, total))
    return query


def fuzz_case(label: str, seed: int):
    """(rng, env, query) of one seeded backend-profile case."""
    from repro.util.rng import stable_rng

    rng = stable_rng(label, seed)
    tables = [random_table(rng, "T"), random_table(rng, "S")]
    env = ast.Env(tuple(tables))
    return rng, env, random_plan(rng, env, rng.randrange(1, 6))


# ---------------------------------------------------------------------------
# SQL profile (database differential; portable value domain).
# ---------------------------------------------------------------------------

#: Moderate magnitudes: op chains square values repeatedly (``mul`` on a
#: derived column), and SQLite *silently wraps* int64 overflow where the
#: engine promotes to bigint — that divergence is real but unfixable, so
#: the profile stays far from the cliff and the growth loop rejects any
#: step whose intermediate ints leave the safe band.
SQL_INT_POOL = (0, 1, 2, 3, -1, -7, 10, 100, 1000, 12345)
#: Dyadic / short-decimal floats: exactly representable arithmetic, no
#: pairs engineered to straddle the 1e-9 equality tolerance.
SQL_FLOAT_POOL = (0.0, 1.0, 2.0, 2.5, -1.5, 0.25, 3.5, 100.0, -0.5)
#: No NUL bytes, nothing numeric-looking (TEXT-affinity coercion); quote
#: characters on purpose — literal escaping is under test.
SQL_STR_POOL = ("a", "b", "cc", "d", "A", "ab", "O'Brien", 'say "hi"',
                "x y", "")
#: Booleans rare: one kind slot among many (they survive the round trip
#: only through bool/int affinity on SQLite, so a little goes a long way).
SQL_COLUMN_KINDS = ("int", "float", "str", "int", "float", "str", "bool")

#: Intermediate-int safety band, comfortably inside int64.
_SAFE_INT = 2**62

_NUMERIC = ("int", "float")
#: Aggregate / analytic argument kinds the engine and SQL agree on.
_AGG_KINDS = {"sum": _NUMERIC, "avg": _NUMERIC,
              "max": _NUMERIC + ("str",), "min": _NUMERIC + ("str",),
              "count": _NUMERIC + ("str", "bool")}
_ANALYTIC_KINDS = {**_AGG_KINDS,
                   "cumsum": _NUMERIC, "cumavg": _NUMERIC,
                   "cummax": _NUMERIC + ("str",),
                   "cummin": _NUMERIC + ("str",),
                   "rank": _NUMERIC + ("str",),
                   "dense_rank": _NUMERIC + ("str",),
                   "rank_desc": _NUMERIC + ("str",),
                   "dense_rank_desc": _NUMERIC + ("str",)}


def sql_value(rng, kind: str, none_p: float = 0.15):
    if rng.random() < none_p:
        return None
    if kind == "int":
        return rng.choice(SQL_INT_POOL)
    if kind == "float":
        return rng.choice(SQL_FLOAT_POOL)
    if kind == "bool":
        return rng.random() < 0.5
    return rng.choice(SQL_STR_POOL)


def sql_table(rng, name: str) -> tuple[Table, list[str]]:
    """A single-typed-column table and its per-column kinds."""
    n_rows = rng.randrange(0, 9)
    n_cols = rng.randrange(1, 5)
    kinds = [rng.choice(SQL_COLUMN_KINDS) for _ in range(n_cols)]
    none_p = rng.choice((0.0, 0.0, 0.1, 0.3))
    rows = [tuple(sql_value(rng, kinds[j], none_p) for j in range(n_cols))
            for _ in range(n_rows)]
    return Table.from_rows(name, [f"c{j}" for j in range(n_cols)],
                           rows), kinds


def _compatible(a: str, b: str) -> bool:
    if a in _NUMERIC and b in _NUMERIC:
        return True
    return a == b


def sql_pred(rng, kinds: list[str]):
    """A type-matched predicate over columns with the given kinds."""
    roll = rng.random()
    if roll < 0.9:
        col = rng.randrange(len(kinds))
        kind = kinds[col]
        partners = [j for j in range(len(kinds))
                    if j != col and _compatible(kind, kinds[j])]
        use_colcmp = partners and roll > 0.45
        if use_colcmp:
            first = ColCmp(col, rng.choice(COMPARISON_OPS),
                           rng.choice(partners))
        else:
            const_kind = rng.choice(_NUMERIC) if kind in _NUMERIC else kind
            first = ConstCmp(col, rng.choice(COMPARISON_OPS),
                             sql_value(rng, const_kind, none_p=0.05))
        if roll < 0.2:
            return AndPred((first, sql_pred(rng, kinds)))
        return first
    return TruePred()


def _result_kind(func: str, arg_kind: str) -> str:
    if func in ("count", "rank", "dense_rank", "rank_desc",
                "dense_rank_desc"):
        return "int"
    if func in ("avg", "cumavg"):
        return "float"
    return arg_kind        # sum / min / max / cum{sum,max,min}


def _values_in_band(table: Table) -> bool:
    for row in table.rows:
        for v in row:
            if isinstance(v, bool) or v is None:
                continue
            if isinstance(v, int) and not -_SAFE_INT <= v <= _SAFE_INT:
                return False
            if isinstance(v, float) and (v != v or abs(v) == float("inf")):
                return False
    return True


def _grow(rng, env: ast.Env, query: ast.Query,
          kinds: list[str], table_kinds: dict[str, list[str]]):
    """One more operator on ``query``, or None when the step is rejected."""
    n_cols = len(kinds)
    op = rng.choice(("filter", "sort", "proj", "group", "group",
                     "partition", "partition", "arith", "arith", "join",
                     "leftjoin"))
    if op == "filter":
        return ast.Filter(query, sql_pred(rng, kinds)), kinds
    if op == "sort":
        width = rng.randrange(1, min(n_cols, 3) + 1)
        return ast.Sort(query, tuple(rng.sample(range(n_cols), width)),
                        rng.random() < 0.5), kinds
    if op == "proj":
        width = rng.randrange(1, n_cols + 1)
        picked = rng.sample(range(n_cols), width)
        return ast.Proj(query, tuple(picked)), [kinds[c] for c in picked]
    if op == "group":
        func = rng.choice(AGG_FUNCS)
        targets = [j for j in range(n_cols) if kinds[j] in _AGG_KINDS[func]]
        if not targets:
            return None
        col = rng.choice(targets)
        keys = tuple(sorted(rng.sample(range(n_cols),
                                       rng.randrange(0, n_cols))))
        return (ast.Group(query, keys, func, col),
                [kinds[k] for k in keys] + [_result_kind(func, kinds[col])])
    if op == "partition":
        func = rng.choice(ANALYTIC_FUNCS)
        targets = [j for j in range(n_cols)
                   if kinds[j] in _ANALYTIC_KINDS[func]]
        if not targets:
            return None
        col = rng.choice(targets)
        keys = tuple(sorted(rng.sample(range(n_cols),
                                       rng.randrange(0, n_cols))))
        return (ast.Partition(query, keys, func, col),
                kinds + [_result_kind(func, kinds[col])])
    if op == "arith":
        numeric = [j for j in range(n_cols) if kinds[j] in _NUMERIC]
        if not numeric:
            return None
        func = rng.choice(ARITH_FUNCS)
        a, b = rng.choice(numeric), rng.choice(numeric)
        if func in ("div", "percent", "pct_change"):
            out = "float"
        else:
            out = "float" if "float" in (kinds[a], kinds[b]) else "int"
        return ast.Arithmetic(query, func, (a, b)), kinds + [out]
    # join / leftjoin against a base table
    name = rng.choice(env.names())
    other_kinds = table_kinds[name]
    total_kinds = kinds + other_kinds
    if op == "join":
        pred = (None if rng.random() < 0.3
                else sql_pred(rng, total_kinds))
        return ast.Join(query, ast.TableRef(name), pred), total_kinds
    return (ast.LeftJoin(query, ast.TableRef(name),
                         sql_pred(rng, total_kinds)), total_kinds)


def sql_fuzz_case(label: str, seed: int):
    """(env, query) of one seeded SQL-profile case.

    The plan is grown operator by operator; a step is kept only when the
    row engine evaluates the extended plan without error and every
    intermediate value stays in the oracle's portable band.  Each growth
    step gets a couple of retries, so nearly every case reaches useful
    depth and nearly none is skipped downstream.
    """
    from repro.engine import RowEngine
    from repro.util.rng import stable_rng

    rng = stable_rng(label, seed)
    tables, table_kinds = [], {}
    for name in ("T", "S"):
        table, kinds = sql_table(rng, name)
        tables.append(table)
        table_kinds[name] = kinds
    env = ast.Env(tuple(tables))
    engine = RowEngine()

    root = rng.choice(env.names())
    query: ast.Query = ast.TableRef(root)
    kinds = list(table_kinds[root])
    depth = rng.randrange(1, 6)
    for _ in range(depth):
        for _attempt in range(3):
            grown = _grow(rng, env, query, kinds, table_kinds)
            if grown is None:
                continue
            candidate, candidate_kinds = grown
            try:
                result = engine.evaluate(candidate, env)
            except (TypeError, ValueError, ZeroDivisionError):
                continue
            if not _values_in_band(result):
                continue
            query, kinds = candidate, candidate_kinds
            break
    return env, query
