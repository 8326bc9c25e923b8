"""Property-based tests (hypothesis) for the core invariants.

The generators build random small tables and random *valid* queries by
drawing each hole's value from the synthesizer's own domain inference —
so every sampled query is one the search could actually visit.

Invariants under test:

* shadow agreement — evaluating a tracked table's expressions reproduces
  the concrete output cell by cell (``[[ [[q]]★ ]] = [[q]]``, §3.1);
* demo-generation soundness — a §5.1-generated demonstration is always
  provenance-consistent with its ground truth (Definition 1);
* pruning soundness (Property 2) — no partialization of the ground truth
  is ever pruned by the abstract consistency check on its demonstration;
* simplification idempotence and bag-equality sanity.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.abstraction import ProvenanceAbstraction, abstract_eval
from repro.lang import Env, Group, Partition, TableRef
from repro.lang.holes import fill, first_hole, holes_of, is_concrete
from repro.provenance import demo_consistent
from repro.provenance.refs import RefIndex, refs_of
from repro.provenance.simplify import simplify
from repro.semantics import evaluate, evaluate_tracking
from repro.spec import DemoGenConfig, generate_demonstration
from repro.synthesis import SynthesisConfig, construct_skeletons
from repro.synthesis.domains import hole_domain
from repro.table import Table
from repro.table.values import value_eq

# ----------------------------------------------------------------- strategies

KEYS = ("a", "b", "c")


@st.composite
def tables(draw) -> Table:
    n_rows = draw(st.integers(min_value=2, max_value=7))
    rows = []
    for i in range(n_rows):
        rows.append([
            draw(st.sampled_from(KEYS)),
            draw(st.integers(min_value=1, max_value=4)),
            draw(st.integers(min_value=-20, max_value=100)),
        ])
    return Table.from_rows("T", ["k", "g", "v"], rows)


@st.composite
def concrete_queries(draw, table: Table):
    """A random concrete query built by filling a random skeleton's holes
    from the synthesizer's domain inference."""
    env = Env.of(table)
    config = SynthesisConfig(max_operators=draw(
        st.integers(min_value=1, max_value=2)))
    skeletons = construct_skeletons(env, config)
    query = draw(st.sampled_from(skeletons))
    for _ in range(16):
        position = first_hole(query)
        if position is None:
            break
        domain = hole_domain(query, position, env, config)
        assume(domain)
        query = fill(query, position, draw(st.sampled_from(domain)))
    assume(is_concrete(query))
    return query


@st.composite
def table_query_pairs(draw):
    table = draw(tables())
    query = draw(concrete_queries(table))
    return table, query


# ------------------------------------------------------------------ properties

@settings(max_examples=60, deadline=None)
@given(table_query_pairs())
def test_tracking_shadow_agrees_with_concrete(pair):
    """[[ [[q]]★ ]] == [[q]] cell-by-cell."""
    table, query = pair
    env = Env.of(table)
    tracked = evaluate_tracking(query, env)
    concrete = evaluate(query, env)
    assert tracked.n_rows == concrete.n_rows
    assert tracked.n_cols == concrete.n_cols
    for i in range(tracked.n_rows):
        for j in range(tracked.n_cols):
            assert value_eq(tracked.values[i][j], concrete.cell(i, j))
            assert value_eq(tracked.exprs[i][j].evaluate(env),
                            concrete.cell(i, j))


@settings(max_examples=60, deadline=None)
@given(table_query_pairs(), st.integers(min_value=0, max_value=5))
def test_generated_demo_is_consistent(pair, seed):
    """§5.1 demonstrations satisfy Definition 1 against their ground truth."""
    table, query = pair
    env = Env.of(table)
    assume(evaluate(query, env).n_rows >= 1)
    demo = generate_demonstration(query, env, DemoGenConfig(seed=seed),
                                  label="prop")
    tracked = evaluate_tracking(query, env)
    assert demo_consistent(tracked.exprs, demo.cells)


@settings(max_examples=40, deadline=None)
@given(table_query_pairs(), st.integers(min_value=0, max_value=3),
       st.data())
def test_ground_truth_path_never_pruned(pair, seed, data):
    """Property 2 (contrapositive): partializations of q_gt stay feasible.

    Take the ground truth, punch a random suffix of its parameters back to
    holes (post-order, as the search instantiates them), and require the
    abstract analysis to keep every such partial query.
    """
    table, query = pair
    env = Env.of(table)
    assume(evaluate(query, env).n_rows >= 1)
    demo = generate_demonstration(query, env, DemoGenConfig(seed=seed),
                                  label="prop2")

    # Rebuild the instantiation path: skeletonize then refill in post-order.
    skeleton = _skeletonize(query)
    values = _parameter_values(query)
    prefix_len = data.draw(st.integers(min_value=0, max_value=len(values)))
    partial = skeleton
    for value in values[:prefix_len]:
        partial = fill(partial, first_hole(partial), value)

    if is_concrete(partial):
        tracked = evaluate_tracking(partial, env)
        assert demo_consistent(tracked.exprs, demo.cells)
    else:
        assert ProvenanceAbstraction().feasible(partial, env, demo)


@settings(max_examples=60, deadline=None)
@given(table_query_pairs())
def test_abstract_refs_cover_tracked_refs(pair):
    """Property 1 on the fully-partial skeleton: every tracked cell's refs
    are contained in some abstract cell of the skeleton's abstract table."""
    table, query = pair
    env = Env.of(table)
    tracked = evaluate_tracking(query, env)
    abs_table = abstract_eval(_skeletonize(query), env)
    assume(tracked.n_rows >= 1)
    all_bits = 0
    for row in abs_table.rows:
        for cell in row:
            all_bits |= cell.refs
    all_abs_refs = RefIndex(env).decode(all_bits)
    for row in tracked.exprs:
        for expr in row:
            assert refs_of(expr) <= all_abs_refs


@settings(max_examples=80, deadline=None)
@given(table_query_pairs())
def test_simplify_idempotent_on_tracked_cells(pair):
    table, query = pair
    env = Env.of(table)
    tracked = evaluate_tracking(query, env)
    for row in tracked.exprs:
        for expr in row:
            once = simplify(expr)
            assert simplify(once) == once


@settings(max_examples=60, deadline=None)
@given(tables())
def test_bag_equality_invariants(table):
    assert table.same_rows(table)
    reversed_rows = table.take_rows(list(range(table.n_rows))[::-1])
    assert table.same_rows(reversed_rows)
    assert reversed_rows.same_rows(table)


@settings(max_examples=60, deadline=None)
@given(tables(), st.integers(min_value=0, max_value=2))
def test_group_row_count_is_distinct_keys(table, key_col):
    env = Env.of(table)
    q = Group(TableRef("T"), keys=(key_col,), agg_func="count", agg_col=2)
    out = evaluate(q, env)
    distinct = {repr(v) for v in table.column_values(key_col)}
    assert out.n_rows == len(distinct)


@settings(max_examples=60, deadline=None)
@given(tables())
def test_partition_preserves_rows(table):
    env = Env.of(table)
    q = Partition(TableRef("T"), keys=(0,), agg_func="sum", agg_col=2)
    out = evaluate(q, env)
    assert out.n_rows == table.n_rows
    assert out.n_cols == table.n_cols + 1
    # existing columns are untouched
    for i in range(table.n_rows):
        assert out.rows[i][:3] == table.rows[i]


# -------------------------------------------------------------------- helpers

def _skeletonize(query):
    """Replace every parameter with a hole (the query's skeleton)."""
    from repro.lang.holes import Hole

    def strip(node):
        children = tuple(strip(c) for c in node.child_queries())
        node = node.with_children(children) if children else node
        filled = {f: Hole(f) for f in node.param_fields()}
        return node.with_params(**filled) if filled else node

    return strip(query)


def _parameter_values(query) -> list:
    """Parameter values of a concrete query in post-order hole order."""
    skeleton = _skeletonize(query)
    values = []
    for path, field in holes_of(skeleton):
        node = query
        for i in path:
            node = node.child_queries()[i]
        values.append(getattr(node, field))
    return values
