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
built directly, without a per-cell callback.  Abstract tables are
column-major and sibling partial queries share all but one column object,
so the masks are built per column — over the column's distinct cells — and
memoized per (column, demo, env) by the column's identity (in the
caller's :class:`DemoAnalysisCache`): a sibling's check computes the masks
of its new column only.

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
from repro.engine.cache import BoundedCache
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


#: Abstract columns whose Definition-3 masks a :class:`DemoAnalysisCache`
#: keeps.
DEFAULT_MASK_CACHE = 50_000


class DemoAnalysisCache:
    """Instance-owned memo of the demo side of Definition 3: per-cell demo
    analyses, and each abstract column's masks against a demonstration.

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

    :attr:`masks` holds each abstract column's masks per (column, demo,
    env) — keyed by the column's identity, since sibling partial queries
    share all but one column object — and each entry pins its column, demo
    and env alike.

    The cache is owned by whoever performs the consistency checks
    (normally a :class:`~repro.abstraction.provenance_abs.ProvenanceAbstraction`
    instance) — there is no module-global evaluation state, matching the
    engine layer's session-isolation invariant.
    """

    def __init__(self, maxsize: int = 256) -> None:
        self._maxsize = maxsize
        self._entries: dict[tuple[int, int, bool], tuple] = {}
        self.masks: BoundedCache = BoundedCache(DEFAULT_MASK_CACHE)

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
        self.masks.clear()

    def __len__(self) -> int:
        """The number of demo analyses held."""
        return len(self._entries)


def _demo_fits(demo: Demonstration, analysis: tuple,
               head_typing: bool) -> list[list[tuple]]:
    """Per demo column, per demo row: what an abstract cell must offer —
    ``(refs needed, accepted heads or None, demonstrated value or
    _NO_VALUE)``."""
    refs, values, heads = analysis
    return [[(refs[i][j],
              _ACCEPTED_HEADS[heads[i][j]] if head_typing else None,
              values[i][j] if values is not None else _NO_VALUE)
             for i in range(demo.n_rows)]
            for j in range(demo.n_cols)]


def _column_masks(column, fits: list[list[tuple]]
                  ) -> tuple[tuple[int, ...] | None, ...]:
    """The column's Definition-3 masks against one demonstration.

    One entry per demo column ``j``: the per-demo-row bitmasks of the
    column's rows that can host demo cell ``(i, j)``, or ``None`` when
    some demo row has no such row.  Each distinct cell is judged once and
    its row bits broadcast; cells are told apart by value type too, since
    ``value_eq`` tells ``True`` from ``1``.
    """
    distinct: dict[tuple, int] = {}
    bit = 1
    for cell in column:
        key = (cell, cell.value.__class__)
        distinct[key] = distinct.get(key, 0) | bit
        bit <<= 1
    matrix = []
    for demo_column in fits:
        masks: list[int] | None = []
        for need, heads, demonstrated in demo_column:
            mask = 0
            for (cell, _), rows in distinct.items():
                if not need & ~cell.refs \
                        and (heads is None or cell.head in heads) \
                        and (demonstrated is _NO_VALUE or not cell.known
                             or value_eq(cell.value, demonstrated)):
                    mask |= rows
            if not mask:
                masks = None
                break
            masks.append(mask)
        matrix.append(None if masks is None else tuple(masks))
    return tuple(matrix)


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

    ``demo_cache`` memoizes the demo analysis and each column's masks
    across calls (a sibling that shares all but one column with an earlier
    table pays for that column only); when omitted, everything is computed
    fresh (the direct-API / test path).
    """
    n_demo_rows, n_demo_cols = demo.n_rows, demo.n_cols
    n_rows = table.n_rows
    if n_demo_rows > n_rows or n_demo_cols > table.n_cols:
        return False

    # Demo cell (i, j) fits abstract cell (r, c) when its refs are a subset,
    # the cell's head can produce its kind, and a known shadow value equals
    # the demonstrated one.  Per (demo column, abstract column) this yields
    # one row bitmask per demo row, and the bitset backtracking shared with
    # the Definition-1 fast path searches the compatible pairs.  Every row
    # takes part, as in the definition; a repeated row costs one more mask
    # bit, not one more judgment (each distinct cell is judged once).
    mask_memo = None if demo_cache is None else demo_cache.masks
    fits = None
    matrices = []
    for column in table.columns:
        if mask_memo is not None:
            key = (id(column), id(demo), id(env), value_shadow, head_typing)
            hit = mask_memo.get(key)
            if hit is not None and hit[0] is column and hit[1] is demo \
                    and hit[2] is env:
                matrices.append(hit[3])
                continue
        if fits is None:
            analysis = demo_cache.analysis(demo, env, value_shadow) \
                if demo_cache is not None \
                else _demo_analysis(demo, env, value_shadow)
            fits = _demo_fits(demo, analysis, head_typing)
        matrix = _column_masks(column, fits)
        if mask_memo is not None:
            mask_memo[key] = (column, demo, env, matrix)
        matrices.append(matrix)

    options: list[list[MaskOption]] = []
    for j in range(n_demo_cols):
        opts = [(c, matrix[j]) for c, matrix in enumerate(matrices)
                if matrix[j] is not None]
        if not opts:
            return False
        options.append(opts)
    return bitset_embedding_exists(options, n_demo_rows, n_rows)
