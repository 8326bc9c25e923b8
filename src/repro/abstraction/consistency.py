"""Abstract provenance consistency ``E ◁ T◦`` (Definition 3).

The demonstration embeds into the abstract table when there are injective
row and column assignments under which every demonstration cell's input-cell
references are a subset of the assigned abstract cell's over-approximated
provenance: ``ref(E[i,j]) ⊆ T◦[r_i, c_j]``.

By Property 2, failure of this check proves that *no* instantiation of the
partial query satisfies the demonstration — the pruning foundation.

This is Definition 1's embedding with another cell test, so the check is
one :class:`~repro.provenance.analysis.CellTest` handed to the engine's
:class:`~repro.provenance.analysis.DemoAnalysis`, which reads the
demonstration once per (demo, env) and memoizes each abstract column's
masks by the column's identity.  References are bitsets over the env's
:class:`~repro.provenance.refs.RefIndex` numbering, so ``ref(E[i,j]) ⊆
T◦[r, c]`` is one ``need & ~refs``.  Abstract tables are column-major and
sibling partial queries share all but one column object, so a sibling's
check computes the masks of its new column only.  Cells are judged once per
distinct ``(cell, value type)`` in a column: ``value_eq`` tells ``True``
from ``1``.

Value-shadow refinement (sound, ablatable)
------------------------------------------
For a *complete* demonstration cell (no ♦), ``e ≺ e★`` forces the two
expressions to evaluate to the same value: constants and cell references
match syntactically, ``group{...}`` members all share one value, and the
complete commutative/positional rules demand argument bijections.  So when
the abstract cell carries an exact value shadow (concrete subqueries, strong
tiers over exact row sets) and that value differs from the demonstrated
cell's value, the mapping is refuted.  This is what lets the analyzer reject
a wrong aggregation *function* — which leaves provenance sets untouched —
without enumerating its entire downstream subtree.
"""

from __future__ import annotations

from repro.abstraction.cells import HEADS, AbstractTable, head_matches
from repro.lang.ast import Env
from repro.provenance.analysis import NO_VALUE, CellTest, DemoAnalysis
from repro.provenance.demo import Demonstration
from repro.provenance.refs import RefIndex
from repro.table.values import value_eq

#: Host heads that can generalize each demo cell kind (``head_matches``
#: tabulated, so the test does one set lookup per cell).
_ACCEPTED_HEADS = {kind: frozenset(h for h in HEADS if head_matches(kind, h))
                   for kind in HEADS}


def _demands(analysis: DemoAnalysis, value_shadow: bool,
             head_typing: bool) -> tuple:
    """Per demo column, per demo row: what an abstract cell must offer —
    ``(refs needed, accepted heads or None, demonstrated value or
    NO_VALUE)``."""
    values = analysis.values if value_shadow else None
    return tuple(tuple(
        (analysis.refs[j][i],
         _ACCEPTED_HEADS[analysis.heads[j][i]] if head_typing else None,
         values[j][i] if value_shadow else NO_VALUE)
        for i in range(analysis.n_rows)) for j in range(analysis.n_cols))


def _hosts(cell, demand) -> bool:
    """Can abstract ``cell`` host the demo cell of ``demand``?"""
    need, heads, demonstrated = demand
    return (not need & ~cell.refs
            and (heads is None or cell.head in heads)
            and (demonstrated is NO_VALUE or not cell.known
                 or value_eq(cell.value, demonstrated)))


def _abstract_test(value_shadow: bool, head_typing: bool) -> CellTest:
    return CellTest(
        key=lambda cell: (cell, cell.value.__class__),
        demands=lambda analysis: _demands(analysis, value_shadow,
                                          head_typing),
        fits=_hosts)


#: The cell test per ``(value_shadow, head_typing)``.
_TESTS = {(value_shadow, head_typing): _abstract_test(value_shadow,
                                                      head_typing)
          for value_shadow in (True, False) for head_typing in (True, False)}


def abstract_consistent(table: AbstractTable, demo: Demonstration,
                        env: Env,
                        value_shadow: bool = True,
                        head_typing: bool = True,
                        analysis: DemoAnalysis | None = None) -> bool:
    """Definition 3: ``E ◁ T◦`` (+ value-shadow / head-typing refinements).

    ``table`` must number its refs by ``env``'s layout (as every table
    from the analyzer does).

    Head typing: under the tracking semantics each operator family produces
    one kind of term (arithmetic functions only from ``arithmetic``, rank
    terms only from ``partition``, ...), and ``e ≺ e★`` preserves the
    outermost function.  A demonstration cell can therefore only embed into
    an abstract cell whose producer can build its head kind — which stops
    not-yet-instantiated upper operators from shielding wrong lower
    parameters.

    ``analysis`` is the engine's reading of ``demo`` against ``env``
    (``engine.demo_analysis``), whose mask memo spans calls; when omitted,
    a fresh one is built (the direct-API / test path).
    """
    if analysis is None:
        analysis = DemoAnalysis(demo, env, RefIndex(env))
    return analysis.embeds(table.columns, table.n_rows,
                           _TESTS[value_shadow, head_typing])
