"""Query-skeleton construction (Alg. 1, line 4).

A skeleton is an operator tree with every parameter a hole — e.g.
``arithmetic(partition(group(T, □, □(□)), □, □(□)), □, □)``.  Skeletons are
emitted smallest-first so the breadth-first worklist explores small queries
before large ones (which also realizes the paper's size-based ranking).

For multi-table tasks, leaves include left-deep join trees over distinct
input tables with hole predicates; each join counts toward the operator
budget.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import combinations, product

from repro.lang import ast
from repro.lang.holes import Hole
from repro.synthesis.config import SynthesisConfig

_HOLE_BUILDERS = {
    "group": lambda child: ast.Group(
        child, keys=Hole("keys"), agg_func=Hole("agg_func"), agg_col=Hole("agg_col")),
    "partition": lambda child: ast.Partition(
        child, keys=Hole("keys"), agg_func=Hole("agg_func"), agg_col=Hole("agg_col")),
    "arithmetic": lambda child: ast.Arithmetic(
        child, func=Hole("func"), cols=Hole("cols")),
    "filter": lambda child: ast.Filter(child, pred=Hole("pred")),
    "sort": lambda child: ast.Sort(
        child, cols=Hole("cols"), ascending=Hole("ascending")),
    "proj": lambda child: ast.Proj(child, cols=Hole("cols")),
}


def _leaves(env: ast.Env, budget: int) -> list[tuple[ast.Query, int]]:
    """Base queries with their operator cost: tables and join trees."""
    out: list[tuple[ast.Query, int]] = [
        (ast.TableRef(t.name), 0) for t in env.tables]
    names = env.names()
    if len(names) < 2:
        return out
    # Left-deep join trees over 2..k distinct tables; a join costs 1 op.
    # Combinations (not permutations): consistency checking and equivalence
    # are column-order-insensitive, so T1 ⋈ T2 and T2 ⋈ T1 are duplicates.
    for size in range(2, len(names) + 1):
        if size - 1 > budget:
            break
        for combo in combinations(names, size):
            tree: ast.Query = ast.TableRef(combo[0])
            for name in combo[1:]:
                tree = ast.Join(tree, ast.TableRef(name), pred=Hole("pred"))
            out.append((tree, size - 1))
    return out


def _useful_sequence(seq: tuple[str, ...]) -> bool:
    """Weed out sequences no instantiation can make useful.

    Row order is only observable through the order-dependent analytic
    functions of ``partition`` (and the first-occurrence group order feeding
    them), so a sort is useful exactly when a grouping operator consumes it
    directly; anywhere else — including as the outermost operator, where bag
    equality erases it — it only duplicates points in the search space.
    """
    for a, b in zip(seq, seq[1:]):
        if a == "sort" and b not in ("partition", "group"):
            return False
    if seq and seq[-1] == "sort":
        return False
    return True


def _sequences(env: ast.Env, config: SynthesisConfig):
    """Each useful operator sequence with the ``(leaf, size)`` pairs that
    fit it, in emission order (sequence length, then pool order)."""
    budget = config.max_operators
    leaves = _leaves(env, budget)
    for length in range(0, budget + 1):
        fitting = [(leaf, cost + length) for leaf, cost in leaves
                   if 0 < cost + length <= budget]
        for seq in product(config.operator_pool, repeat=length):
            if _useful_sequence(seq):
                yield seq, fitting


def construct_skeletons(env: ast.Env, config: SynthesisConfig,
                        admit: Callable[[tuple[str, ...]], bool] | None = None,
                        ) -> list[ast.Query]:
    """All skeletons with at most ``config.max_operators`` operators.

    ``admit`` screens operator sequences (innermost operator first) before
    any of their skeletons is built; a rejected sequence's skeletons are
    skipped, and :func:`count_skeletons` still counts them.
    """
    skeletons: list[tuple[int, int, ast.Query]] = []
    for seq, fitting in _sequences(env, config):
        if admit is not None and not admit(seq):
            continue
        for leaf, total in fitting:
            query: ast.Query = leaf
            for op in seq:
                query = _HOLE_BUILDERS[op](query)
            skeletons.append((total, len(skeletons), query))
    skeletons.sort(key=lambda item: (item[0], item[1]))
    return [query for _, _, query in skeletons]


def count_skeletons(env: ast.Env, config: SynthesisConfig) -> int:
    """How many skeletons :func:`construct_skeletons` emits unscreened."""
    return sum(len(fitting) for _, fitting in _sequences(env, config))
