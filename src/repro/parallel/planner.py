"""Partitioning the skeleton worklist into worker shards.

A shard is a subset of skeleton *lanes* (identified by their index in the
canonical ``construct_skeletons`` order).  The planner only decides
*membership* — every shard executes its lanes in ascending canonical order,
which is what makes the per-lane event traces replayable into the exact
serial visit order (see :mod:`repro.parallel.merge`).

Lane cost is unknowable exactly (it is the size of the lane's hole-
instantiation subspace, which the search itself prunes), so the planner
balances an *estimate*: holes multiply a lane's subspace, operators add
evaluation weight.  The planner deals lanes to shards in descending-cost
round-robin (``cost_rr``) — the classic longest-processing-time
heuristic's cheap cousin — and is insensitive to the input order of the
skeleton list (assignment is keyed on the skeleton itself, not its
position).
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


def estimated_lane_cost(skeleton: ast.Query) -> int:
    """A monotone proxy for the size of a skeleton's instantiation lane."""
    return operator_count(skeleton) + _HOLE_WEIGHT * len(holes_of(skeleton))


@dataclass(frozen=True)
class ShardPlan:
    """The planner's output: per-shard lane index tuples (ascending)."""

    shards: tuple[tuple[int, ...], ...]
    costs: tuple[int, ...]          # estimated total cost per shard

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_lanes(self) -> int:
        return sum(len(s) for s in self.shards)

    def membership(self, skeletons: Sequence[ast.Query]) -> dict[str, int]:
        """skeleton repr -> shard id (for plan-equality across orderings)."""
        return {repr(skeletons[lane]): shard_id
                for shard_id, lanes in enumerate(self.shards)
                for lane in lanes}

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
    """Deterministically partition skeletons into at most ``workers`` shards.

    Lanes are sorted by (estimated cost descending, canonical skeleton
    key) and dealt round-robin: balanced, and stable under permutation of
    the input list.  Any partition yields the same merged search result —
    the replay merge is plan-agnostic — so the plan trades only load
    balance.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers

    def plan(self, skeletons: Sequence[ast.Query]) -> ShardPlan:
        return self.plan_weighted(
            [estimated_lane_cost(sk) for sk in skeletons],
            [repr(sk) for sk in skeletons])

    def plan_weighted(self, costs: Sequence[int],
                      keys: Sequence | None = None) -> ShardPlan:
        """Partition abstract items by per-item cost estimates.

        The generalization :meth:`plan` is built on: items are whatever the
        caller indexes — fresh skeletons there, a resumed session's live
        lane *stacks* (whose cost is the summed estimate of their queued
        queries) in :func:`~repro.parallel.coordinator.parallel_resume`.
        ``keys`` breaks cost ties deterministically; item index is the
        fallback (stable, but position-sensitive).
        """
        n = len(costs)
        if n == 0:
            return ShardPlan((), ())
        n_shards = min(self.workers, n)
        buckets: list[list[int]] = [[] for _ in range(n_shards)]

        if keys is None:
            order = sorted(range(n), key=lambda i: (-costs[i], i))
        else:
            order = sorted(range(n), key=lambda i: (-costs[i], keys[i]))
        for deal, lane in enumerate(order):
            buckets[deal % n_shards].append(lane)

        shards = tuple(tuple(sorted(bucket)) for bucket in buckets)
        shard_costs = tuple(sum(costs[lane] for lane in bucket)
                            for bucket in shards)
        return ShardPlan(shards, shard_costs)
