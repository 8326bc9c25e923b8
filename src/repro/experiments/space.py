"""Search-space measurement (§2.2).

The paper quantifies the running example's space: "the search space for the
running example contains 1,181,224 queries even [when] only queries up to
size 3 are considered".  This module counts the concrete queries reachable
by the enumerator — same skeletons, same domains, no pruning, no evaluation
— so the number is exact for our grammar and directly comparable to the
number of queries a technique actually visits.
"""

from __future__ import annotations

from repro.lang.ast import Env
from repro.lang.holes import fill, holes_of
from repro.provenance.demo import Demonstration
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.domains import hole_domain
from repro.synthesis.skeletons import construct_skeletons
from repro.util.timer import Deadline


def count_search_space(env: Env, config: SynthesisConfig,
                       demo: Demonstration | None = None,
                       timeout_s: float | None = None,
                       cap: int | None = None) -> tuple[int, bool]:
    """(number of concrete queries in the space, whether counting finished).

    ``demo`` is only used for candidate *ordering* (which does not change
    the count); pruning is never applied.  ``cap`` stops early for huge
    spaces — the returned flag says whether the count is exact.
    """
    from repro.engine.base import make_engine
    deadline = Deadline(timeout_s)
    engine = make_engine()  # one cache for the whole count
    total = 0
    stack = list(construct_skeletons(env, config))
    while stack:
        if deadline.expired() or (cap is not None and total >= cap):
            return total, False
        query = stack.pop()
        holes = holes_of(query)
        if not holes:
            total += 1
            continue
        domain = hole_domain(query, holes[0], env, config, demo, engine)
        if len(holes) == 1:     # a family of concrete queries: count it
            total += len(domain)
            continue
        for value in domain:
            stack.append(fill(query, holes[0], value))
    return total, True
