"""Abstract provenance consistency ``E ◁ T◦`` (Definition 3).

The demonstration embeds into the abstract table when there are injective
row and column assignments under which every demonstration cell's input-cell
references are a subset of the assigned abstract cell's over-approximated
provenance: ``ref(E[i,j]) ⊆ T◦[r_i, c_j]``.

By Property 2, failure of this check proves that *no* instantiation of the
partial query satisfies the demonstration — the pruning foundation.

References are bitsets over the env's :class:`~repro.provenance.refs.RefIndex`
numbering, so ``ref(E[i,j]) ⊆ T◦[r, c]`` is one ``need & ~refs`` and the
per-(demo column, abstract column) row masks of the embedding search are
built directly, without a per-cell callback.

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
from repro.errors import ExpressionError
from repro.lang.ast import Env
from repro.lang.functions import function_spec
from repro.provenance.demo import Demonstration
from repro.provenance.expr import FuncApp
from repro.provenance.refs import RefIndex
from repro.util.matching import MaskOption, bitset_embedding_exists
from repro.table.values import value_eq

_NO_VALUE = object()

#: Host heads that can generalize each demo cell kind (``head_matches``
#: tabulated, so the mask loop does one set lookup per cell).
_ACCEPTED_HEADS = {kind: frozenset(h for h in HEADS if head_matches(kind, h))
                   for kind in HEADS}


def _demo_values(demo: Demonstration, env: Env) -> list[list[object]]:
    """Per-cell demonstrated values; ``_NO_VALUE`` where not computable."""
    out: list[list[object]] = []
    for row in demo.cells:
        values: list[object] = []
        for expr in row:
            try:
                values.append(expr.evaluate(env))
            except ExpressionError:
                values.append(_NO_VALUE)  # partial expression (♦)
        out.append(values)
    return out


def _demo_heads(demo: Demonstration) -> list[list[str]]:
    """Outermost term kind per demo cell ('ref' for references/constants)."""
    out = []
    for row in demo.cells:
        out.append([function_spec(e.func).kind if isinstance(e, FuncApp)
                    else "ref" for e in row])
    return out


def _demo_analysis(demo: Demonstration, env: Env,
                   value_shadow: bool) -> tuple:
    index = RefIndex(env)
    refs = [[index.bits(demo.cell(i, j)) for j in range(demo.n_cols)]
            for i in range(demo.n_rows)]
    values = _demo_values(demo, env) if value_shadow else None
    heads = _demo_heads(demo)
    return refs, values, heads


class DemoAnalysisCache:
    """Instance-owned memo of per-cell demo analyses.

    Demonstrations and environments are fixed across the thousands of
    feasibility checks of one synthesis run, so their extracted refs
    (bitsets over the env's ref numbering), values and heads are memoized
    by identity.  Each entry *pins* both the demonstration and the
    environment it was computed against: an
    ``id()`` can only be reused after its object is garbage-collected, so
    pinning makes the identity keys stable for the entry's lifetime — a
    recycled ``Env`` id can never surface another environment's cell
    values.  (Both objects are still identity-checked on every hit as a
    belt-and-braces guard.)

    The cache is owned by whoever performs the consistency checks
    (normally a :class:`~repro.abstraction.provenance_abs.ProvenanceAbstraction`
    instance) — there is no module-global evaluation state, matching the
    engine layer's session-isolation invariant.
    """

    def __init__(self, maxsize: int = 256) -> None:
        self._maxsize = maxsize
        self._entries: dict[tuple[int, int, bool], tuple] = {}

    def analysis(self, demo: Demonstration, env: Env,
                 value_shadow: bool) -> tuple:
        key = (id(demo), id(env), value_shadow)
        cached = self._entries.get(key)
        if cached is not None and cached[0] is demo and cached[1] is env:
            return cached[2], cached[3], cached[4]
        refs, values, heads = _demo_analysis(demo, env, value_shadow)
        if len(self._entries) > self._maxsize:
            self._entries.clear()
        self._entries[key] = (demo, env, refs, values, heads)
        return refs, values, heads

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


def abstract_consistent(table: AbstractTable, demo: Demonstration,
                        env: Env,
                        value_shadow: bool = True,
                        head_typing: bool = True,
                        demo_cache: DemoAnalysisCache | None = None) -> bool:
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

    ``demo_cache`` memoizes the demo analysis across calls; when omitted
    the analysis is computed fresh (the direct-API / test path).
    """
    if demo_cache is not None:
        demo_refs, demo_vals, demo_heads = \
            demo_cache.analysis(demo, env, value_shadow)
    else:
        demo_refs, demo_vals, demo_heads = \
            _demo_analysis(demo, env, value_shadow)
    n_demo_rows, n_demo_cols = demo.n_rows, demo.n_cols

    # Weak / medium abstraction tiers produce many identical rows (the whole
    # table collapses to one shape).  The embedding only needs each distinct
    # row up to ``demo.n_rows`` times (injectivity is per-row-slot), so
    # deduplicating with a multiplicity cap shrinks the matching problem from
    # hundreds of rows to a handful.  A row's cells are its signature: refs,
    # value (only known cells carry one), known flag and head all decide
    # which demo cells it can host.
    kept_rows: list[tuple] = []
    seen: dict[tuple, int] = {}
    for row in table.rows:
        count = seen.get(row, 0)
        if count < n_demo_rows:
            seen[row] = count + 1
            kept_rows.append(row)
    n_rows, n_cols = len(kept_rows), table.n_cols
    if n_demo_rows > n_rows or n_demo_cols > n_cols:
        return False

    # Demo cell (i, j) fits abstract cell (r, c) when its refs are a subset,
    # the cell's head can produce its kind, and a known shadow value equals
    # the demonstrated one.  Per (demo column, abstract column) this yields
    # one row bitmask per demo row; a column pair dies at its first empty
    # mask, and the bitset backtracking shared with the Definition-1 fast
    # path searches the survivors.
    columns = [[row[c] for row in kept_rows] for c in range(n_cols)]
    options: list[list[MaskOption]] = []
    for j in range(n_demo_cols):
        demo_column = [
            (demo_refs[i][j],
             _ACCEPTED_HEADS[demo_heads[i][j]] if head_typing else None,
             demo_vals[i][j] if demo_vals is not None else _NO_VALUE)
            for i in range(n_demo_rows)]
        opts: list[MaskOption] = []
        for c, column in enumerate(columns):
            masks: list[int] = []
            for need, heads, demonstrated in demo_column:
                mask = 0
                bit = 1
                for cell in column:
                    if not need & ~cell.refs \
                            and (heads is None or cell.head in heads) \
                            and (demonstrated is _NO_VALUE or not cell.known
                                 or value_eq(cell.value, demonstrated)):
                        mask |= bit
                    bit <<= 1
                if not mask:
                    break
                masks.append(mask)
            else:
                opts.append((c, tuple(masks)))
        if not opts:
            return False
        options.append(opts)
    return bitset_embedding_exists(options, n_demo_rows, n_rows)
