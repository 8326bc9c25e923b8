"""Definition 3 against a frozenset reference.

The pruning path judges ``E ◁ T◦`` over int bitsets, with row masks built
inline and verdicts memoized per abstract table.  The reference below is the
plain reading of the definition: refs as ``frozenset[CellRef]``, one
``cell_ok`` callback per (demo cell, abstract cell) pair, and the generic
grid search :func:`repro.util.matching.embedding_exists` over every
abstract row (on registry tables, identical rows are capped at one copy
per demo row: they are interchangeable).  Both must agree

* on every abstract table ``ProvenanceAbstraction.feasible`` judges during
  600-pop provenance searches on all 80 registry tasks (memo hits
  included), and
* on hypothesis-generated tables and demonstrations, under every
  combination of the value-shadow and head-typing refinements.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.abstraction import ProvenanceAbstraction, abstract_consistent
from repro.abstraction.cells import HEADS, AbstractCell, AbstractTable, \
    head_matches
from repro.benchmarks import all_tasks
from repro.errors import ExpressionError
from repro.lang import Env
from repro.lang.functions import function_spec
from repro.provenance import Demonstration
from repro.provenance.expr import CellRef, Const, FuncApp
from repro.provenance.refs import RefIndex, refs_of
from repro.synthesis.synthesizer import Synthesizer
from repro.table import Table
from repro.table.values import value_eq
from repro.util.matching import embedding_exists

_NO_VALUE = object()


def reference_abstract_consistent(table: AbstractTable, demo: Demonstration,
                                  env: Env, value_shadow: bool = True,
                                  head_typing: bool = True,
                                  cap_copies: bool = False) -> bool:
    """``E ◁ T◦`` with frozenset refs and a per-cell callback.

    With ``cap_copies`` a row equal to earlier ones is kept only while it
    has fewer than ``demo.n_rows`` copies (the injective row assignment
    cannot use more).
    """
    index = RefIndex(env)
    decoded: dict[int, frozenset] = {}
    rows = []
    copies: dict[tuple, int] = {}
    for row in table.rows:
        if cap_copies:
            copies[row] = copies.get(row, 0) + 1
            if copies[row] > demo.n_rows:
                continue
        rows.append([(decoded.setdefault(c.refs, index.decode(c.refs)), c)
                     for c in row])
    need = [[refs_of(e) for e in row] for row in demo.cells]
    kinds = [[function_spec(e.func).kind if isinstance(e, FuncApp) else "ref"
              for e in row] for row in demo.cells]
    values = [[_demonstrated(e, env) if value_shadow else _NO_VALUE
               for e in row] for row in demo.cells]

    def cell_ok(i: int, j: int, r: int, c: int) -> bool:
        refs, cell = rows[r][c]
        if not need[i][j] <= refs:
            return False
        if head_typing and not head_matches(kinds[i][j], cell.head):
            return False
        demonstrated = values[i][j]
        if cell.known and demonstrated is not _NO_VALUE \
                and not value_eq(cell.value, demonstrated):
            return False
        return True

    return embedding_exists(demo.n_rows, demo.n_cols, len(rows),
                            table.n_cols, cell_ok)


def _demonstrated(expr, env: Env):
    try:
        return expr.evaluate(env)
    except ExpressionError:
        return _NO_VALUE                    # partial expression (♦)


# ------------------------------------------------------- registry searches

@pytest.mark.parametrize("task", all_tasks(), ids=lambda t: t.name)
def test_search_verdicts_match_reference(task, monkeypatch):
    feasible = ProvenanceAbstraction.feasible
    expected: dict = {}         # one reference verdict per distinct table

    def checked_feasible(self, query, env, demo):
        verdict = feasible(self, query, env, demo)
        table = self.analyzer.abstract_eval(query, env,
                                            self.target_refinement)
        if table not in expected:
            expected[table] = reference_abstract_consistent(
                table, demo, env, value_shadow=self.value_shadow,
                head_typing=self.head_typing, cap_copies=True)
        assert verdict == expected[table], (query, table)
        return verdict

    monkeypatch.setattr(ProvenanceAbstraction, "feasible", checked_feasible)
    config = task.config.replace(max_visited=600)
    Synthesizer("provenance", config).run(task.tables, task.demonstration)


# ------------------------------------------------------ generated inputs

_ENV = Env.of(
    Table.from_rows("T", ["k", "x", "y"], [
        ["a", 1, 10], ["a", 2, 20], ["b", 3, 10], ["b", 4, 5]]),
    Table.from_rows("U", ["k", "z"], [["a", 7], ["b", 1]]),
)
_REFS = [CellRef(t.name, i, j) for t in _ENV.tables
         for i in range(t.n_rows) for j in range(t.n_cols)]
_NUMERIC_REFS = [r for r in _REFS if isinstance(r.evaluate(_ENV), int)]
_INDEX = RefIndex(_ENV)
#: Values an abstract cell may shadow: every input value plus a few that
#: aggregates and arithmetic over them produce.
_VALUES = sorted({r.evaluate(_ENV) for r in _NUMERIC_REFS}
                 | {0, 2, 3, 4, 11, 15, 30, 40}) + ["a", "b", None]


@st.composite
def demo_cells(draw):
    kind = draw(st.sampled_from(("ref", "const", "aggregate", "arithmetic",
                                 "ranker")))
    if kind == "ref":
        return draw(st.sampled_from(_REFS))
    if kind == "const":
        return Const(draw(st.sampled_from(_VALUES)))
    args = st.lists(st.sampled_from(_NUMERIC_REFS), min_size=2, max_size=3,
                    unique=True)
    if kind == "aggregate":
        return FuncApp(draw(st.sampled_from(("sum", "max", "count"))),
                       tuple(draw(args)), partial=draw(st.booleans()))
    if kind == "arithmetic":
        a, b = draw(args)[:2]
        return FuncApp(draw(st.sampled_from(("add", "sub"))), (a, b))
    return FuncApp("rank", tuple(draw(args)))


@st.composite
def abstract_cells(draw, demo):
    """A cell built around a random demo cell: its refs (maybe one dropped,
    maybe extras added), a head and a value that fit it or not."""
    host = draw(st.sampled_from([e for row in demo for e in row]))
    refs = _INDEX.bits(host)
    if refs and draw(st.booleans()):
        refs &= ~(1 << draw(st.sampled_from(
            [b for b in range(len(_REFS)) if refs >> b & 1])))
    for ref in draw(st.lists(st.sampled_from(_REFS), max_size=4)):
        refs |= _INDEX.bits(ref)
    kind = function_spec(host.func).kind if isinstance(host, FuncApp) \
        else "ref"
    head = draw(st.sampled_from((kind,) + HEADS))
    shadow = draw(st.sampled_from(("fit", "other", "unknown")))
    if shadow == "unknown":
        return AbstractCell.unknown(refs, head)
    value = _demonstrated(host, _ENV)
    if shadow == "other" or value is _NO_VALUE:
        value = draw(st.sampled_from(_VALUES))
    return AbstractCell(refs, value, True, head)


@st.composite
def cases(draw):
    n_cols = draw(st.integers(1, 3))
    demo_cols = draw(st.integers(1, n_cols))
    demo = draw(st.lists(st.lists(demo_cells(), min_size=demo_cols,
                                  max_size=demo_cols),
                         min_size=1, max_size=3))
    cell_pool = draw(st.lists(abstract_cells(demo), min_size=1, max_size=6))
    # Rows drawn from a small pool repeat, so deduplication is exercised.
    pool_rows = draw(st.lists(
        st.tuples(*[st.sampled_from(cell_pool)] * n_cols),
        min_size=1, max_size=5))
    rows = []
    for row in draw(st.lists(st.sampled_from(pool_rows), min_size=1,
                             max_size=6)):
        # Copies that differ from the row only in heads come first:
        # deduplication must not let them crowd the row out.
        for _ in range(draw(st.integers(0, 2))):
            rows.append(tuple(c._replace(head=draw(st.sampled_from(HEADS)))
                              for c in row))
        rows.append(row)
    table = AbstractTable(tuple(rows), rows_exact=draw(st.booleans()))
    return table, Demonstration.of(demo)


@settings(max_examples=1000, deadline=None)
@given(cases(), st.booleans(), st.booleans())
def test_generated_verdicts_match_reference(case, value_shadow, head_typing):
    table, demo = case
    assert abstract_consistent(table, demo, _ENV, value_shadow=value_shadow,
                               head_typing=head_typing) == \
        reference_abstract_consistent(table, demo, _ENV,
                                      value_shadow=value_shadow,
                                      head_typing=head_typing)
