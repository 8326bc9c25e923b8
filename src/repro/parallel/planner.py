"""Dealing a seeded session's live lanes to worker shards.

A shard is a subset of worklist *lanes* (identified by the session's lane
ids).  The planner only decides *membership* — every shard executes its
lanes in ascending lane order, which is what makes the per-lane event
traces replayable into the exact serial visit order (see
:mod:`repro.parallel.merge`).

Lane cost is unknowable exactly (it is the size of the lane's hole-
instantiation subspace, which the search itself prunes), so the planner
balances an *estimate*: holes multiply a lane's subspace, operators add
evaluation weight, and a lane's estimate sums over its queued queries.
The planner deals lanes to shards in descending-cost round-robin
(``cost_rr``) — the classic longest-processing-time heuristic's cheap
cousin — and is insensitive to the input order of the lanes (assignment
is keyed on the lane's key, not its position).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.lang import ast
from repro.lang.holes import holes_of
from repro.lang.size import operator_count

#: Branching weight of one hole in the cost estimate.  The exact value only
#: shapes load balance, never results — any positive constant is correct.
_HOLE_WEIGHT = 4


def estimated_lane_cost(query: ast.Query) -> int:
    """A monotone proxy for the size of a query's instantiation subspace."""
    return operator_count(query) + _HOLE_WEIGHT * len(holes_of(query))


@dataclass(frozen=True)
class ShardPlan:
    """The planner's output: per-shard item index tuples (ascending)."""

    shards: tuple[tuple[int, ...], ...]
    costs: tuple[int, ...]          # estimated total cost per shard

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_lanes(self) -> int:
        return sum(len(s) for s in self.shards)

    @staticmethod
    def load_imbalance(loads) -> float:
        """max/mean of per-shard loads; 1.0 is a perfectly even split.

        Applied to ``plan.costs`` it scores what the planner *believes* it
        achieved; applied to measured per-shard work (visited counts,
        wall times) it scores what static planning actually delivered —
        the gap between the two is the skewed-lane benchmark's subject.
        """
        loads = list(loads)
        mean = sum(loads) / len(loads) if loads else 0.0
        return max(loads) / mean if mean else 1.0


class ShardPlanner:
    """Deterministically partition items into at most ``workers`` shards.

    Items are sorted by (estimated cost descending, key) and dealt
    round-robin: balanced, and stable under permutation of the input.  Any
    partition yields the same merged search result — the replay merge is
    plan-agnostic — so the plan trades only load balance.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers

    def plan_weighted(self, costs: Sequence[int],
                      keys: Sequence) -> ShardPlan:
        """Partition items by per-item cost estimates.

        Items are whatever the caller indexes — a session's live lane
        stacks in :func:`~repro.parallel.coordinator.plan_lanes`.  ``keys``
        (distinct, e.g. lane ids) breaks cost ties deterministically.
        """
        n = len(costs)
        if n == 0:
            return ShardPlan((), ())
        n_shards = min(self.workers, n)
        buckets: list[list[int]] = [[] for _ in range(n_shards)]
        order = sorted(range(n), key=lambda i: (-costs[i], keys[i]))
        for deal, item in enumerate(order):
            buckets[deal % n_shards].append(item)

        shards = tuple(tuple(sorted(bucket)) for bucket in buckets)
        shard_costs = tuple(sum(costs[item] for item in bucket)
                            for bucket in shards)
        return ShardPlan(shards, shard_costs)
