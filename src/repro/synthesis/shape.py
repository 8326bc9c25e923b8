"""Expression-shape precheck for skeletons.

A computation demonstration does more than name input cells — it exhibits
the *structure* of the computation (§1: the specification "constrains the
structure of the desired computation").  The refs-only abstract provenance
of Fig. 11 cannot see that structure: a ``partition ∘ partition`` skeleton
survives its consistency check against a demonstration cell
``percent(sum(...), x)`` even though no instantiation of two partitions can
ever build a ``percent`` application.

This module adds the sound structural necessary condition: under the
tracking semantics each function term is produced by exactly one operator
family —

* arithmetic functions (``percent``, ``div``, ...) — by ``arithmetic``;
* aggregate terms (``sum``, ``avg``, ``max``, ``min``, ``count``) — by
  ``group`` or ``partition`` (``cumsum`` flattens into ``sum``);
* rank terms — by ``partition`` only

— and a term can only contain terms produced strictly *below* it in the
operator chain.  So every root-to-leaf function path of every demonstration
cell must embed, innermost-first, into the skeleton's operator chain as a
subsequence of compatible producers.  Skeleton lanes failing the check are
pruned before any instantiation work (toggle: ``SynthesisConfig.shape_precheck``).
The check reads only the producer chain, so a search runs it once per
operator sequence (:func:`sequence_feasible`) against the demonstration's
distinct paths, computed once (:func:`demo_function_paths`).

``sum``-flattening makes this conservative in the right direction: a
demonstrated ``sum`` may be realized by any single grouping operator even
when the ground truth stacked several (nested sums collapse), and paths
never demand more structure than the demonstration exhibits.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.functions import function_spec
from repro.provenance.demo import Demonstration
from repro.provenance.expr import Expr, FuncApp

#: Which operator kinds can produce a function term of each registry kind.
_PRODUCERS: dict[str, frozenset[str]] = {
    "arithmetic": frozenset(("arithmetic",)),
    "aggregate": frozenset(("group", "partition")),
    "ranker": frozenset(("partition",)),
}

_OP_NAMES = {
    ast.Group: "group",
    ast.Partition: "partition",
    ast.Arithmetic: "arithmetic",
}


def operator_chain(query: ast.Query) -> list[str]:
    """Producing operators of the unary spine, bottom-up.

    Non-producing operators (filter / sort / proj / joins) are skipped: they
    move cells around but never build function terms.
    """
    chain: list[str] = []
    node = query
    while True:
        name = _OP_NAMES.get(type(node))
        if name is not None:
            chain.append(name)
        children = node.child_queries()
        if not children:
            return list(reversed(chain))
        # Joins fork the spine; terms can only be produced above the fork by
        # spine operators, and below it only raw cells exist.
        if len(children) > 1:
            return list(reversed(chain))
        node = children[0]


def function_paths(expr: Expr) -> list[tuple[str, ...]]:
    """Root-to-leaf paths of function *kinds*, outermost first."""
    if not isinstance(expr, FuncApp):
        return []
    kind = function_spec(expr.func).kind
    child_paths = [path for arg in expr.args for path in function_paths(arg)]
    if not child_paths:
        return [(kind,)]
    return [(kind, *path) for path in child_paths]


def demo_function_paths(demo: Demonstration) -> frozenset[tuple[str, ...]]:
    """The distinct function paths of every demonstration cell."""
    return frozenset(path for row in demo.cells for cell in row
                     for path in function_paths(cell))


def _path_embeds(path: tuple[str, ...], chain: list[str]) -> bool:
    """Innermost function first, matched against the chain bottom-up."""
    pos = 0
    for kind in reversed(path):
        producers = _PRODUCERS[kind]
        while pos < len(chain) and chain[pos] not in producers:
            pos += 1
        if pos == len(chain):
            return False
        pos += 1
    return True


def sequence_feasible(sequence: tuple[str, ...],
                      paths: frozenset[tuple[str, ...]]) -> bool:
    """The precheck for every skeleton built from one operator sequence.

    ``sequence`` lists operator names innermost first, as
    :func:`~repro.synthesis.skeletons.construct_skeletons` applies them.
    Its leaves (tables and join trees) produce no function terms, so the
    producer chain, and with it the verdict, depend on the sequence alone.
    """
    producing = _OP_NAMES.values()
    chain = [op for op in sequence if op in producing]
    return all(_path_embeds(path, chain) for path in paths)


def shape_feasible(query: ast.Query, demo: Demonstration) -> bool:
    """True when every demonstrated function path fits the skeleton.

    The per-skeleton form of :func:`sequence_feasible`, kept as its
    reference.
    """
    chain = operator_chain(query)
    for row in demo.cells:
        for cell in row:
            for path in function_paths(cell):
                if not _path_embeds(path, chain):
                    return False
    return True
