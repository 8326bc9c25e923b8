"""The enumerative search loop (paper Algorithm 1).

A worklist seeded with one lane per skeleton, popped round-robin across
lanes and depth-first within each (see :class:`_Worklist`): concrete
queries are checked against the demonstration under the
provenance-tracking semantics (``E ≺ [[q(T̄)]]★``); partial queries are
screened by the pluggable abstraction and pruned when no instantiation can
realize the demonstration.

The loop exposes the counters the paper's evaluation reports: queries
visited (partial + concrete), queries pruned, concrete consistency checks,
and wall-clock time.  The loop itself is driven by
:class:`~repro.synthesis.session.SynthesisSession`, whose optional stop
predicate reproduces the experiment mode ("the synthesizer runs until the
correct query q_gt is found").
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.abstraction.base import Abstraction
from repro.engine.base import EvalEngine
from repro.lang import ast
from repro.lang.holes import fill, first_hole, is_concrete
from repro.lang.size import operator_count
from repro.provenance.demo import Demonstration
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.domains import hole_domain
from repro.synthesis.shape import shape_feasible


class _Worklist:
    """The search frontier: one *lane* (a stack) per skeleton.

    Pops go round-robin across all live lanes, with lanes kept in
    skeleton-size order inside each cycle.  Every skeleton makes progress
    concurrently — a sibling skeleton's huge subspace can never starve the
    one containing the solution — small skeletons (which exhaust or die
    quickly) still dominate early, and within a lane the search is
    depth-first, reaching concrete candidates without materializing the
    breadth-first frontier, which is impractical at pure-Python speeds.
    """

    def __init__(self) -> None:
        self._stacks: dict[int, list[ast.Query]] = {}  # lane id -> stack
        self._order: list[int] = []                    # live lanes, size order
        self._rr = 0
        self._count = 0
        self._next_lane = 0

    def add_lane(self, query: ast.Query) -> int:
        """Seed a new lane (one per skeleton); returns the lane id.

        Lanes must be added in skeleton-size order (construct_skeletons
        already emits smallest-first), which keeps each round-robin cycle
        visiting small skeletons before large ones.
        """
        lane_id = self._next_lane
        self._next_lane += 1
        self._stacks[lane_id] = [query]
        self._order.append(lane_id)
        self._count += 1
        return lane_id

    def push(self, query: ast.Query, lane_id: int) -> None:
        """Push an expansion onto its parent's lane."""
        self._stacks[lane_id].append(query)
        self._count += 1

    def pop(self) -> tuple[int, ast.Query]:
        """The next ``(lane_id, query)`` in round-robin order."""
        if not self._order:
            raise IndexError("pop from an empty worklist")
        idx = self._rr % len(self._order)
        # Drop exhausted lanes as they are encountered.  The last live lane
        # can drain mid-scan (e.g. after pushes rescinded by a caller), so
        # every shrink of ``_order`` must re-check before re-indexing —
        # otherwise this loop dies with ZeroDivisionError/KeyError instead
        # of reporting exhaustion.
        while not self._stacks[self._order[idx]]:
            del self._stacks[self._order[idx]]
            self._order.pop(idx)
            if not self._order:
                self._count = 0
                raise IndexError("pop from an empty worklist")
            idx %= len(self._order)
        lane_id = self._order[idx]
        query = self._stacks[lane_id].pop()
        self._count -= 1
        self._rr = (idx + 1) % len(self._order)
        return lane_id, query

    def __bool__(self) -> bool:
        return self._count > 0

    # ---------------------------------------------- checkpoint/resume hooks
    # The methods below exist for :class:`~repro.synthesis.session.
    # SynthesisSession`: a checkpointed search must be serializable and a
    # preempted one re-dispatchable onto sharded workers, which requires
    # aligning the round-robin cursor to a *round boundary* (the worker /
    # replay-merge machinery is round-based; see repro.parallel.merge).

    def purge_drained(self) -> None:
        """Eagerly drop drained lanes.

        The serial ``pop`` drops a drained lane lazily, on next encounter;
        dropping it early is invisible to the pop sequence (a dead lane
        yields nothing either way), but the cursor must be re-based onto
        the surviving lanes so the next pop lands where it would have.
        """
        kept: list[int] = []
        removed_before = 0
        for pos, lane in enumerate(self._order):
            if self._stacks[lane]:
                kept.append(lane)
            else:
                del self._stacks[lane]
                if pos < self._rr:
                    removed_before += 1
        self._order = kept
        self._rr = (self._rr - removed_before) % len(kept) if kept else 0

    def at_round_boundary(self) -> bool:
        """True when the next pop starts a fresh round-robin cycle.

        From a round boundary, the remaining serial visit order is exactly
        "every live lane once per round, lanes in seed order" — the
        premise the sharded workers' round-explicit loop and the replay
        merge are built on, and therefore the only state a partially
        consumed worklist may be dispatched to shard workers from.
        """
        self.purge_drained()
        return self._rr == 0

    def export_lanes(self) -> list[tuple[int, list[ast.Query]]]:
        """Snapshot the live lanes as ``(lane_id, stack)`` pairs, seed order.

        Stacks are copies: the worklist keeps working after a checkpoint,
        and an exported payload crossing a process boundary must not alias
        live state.
        """
        self.purge_drained()
        return [(lane, list(self._stacks[lane])) for lane in self._order]


@dataclass
class SearchStats:
    """Counters mirroring the paper's reported metrics."""

    visited: int = 0             # queries popped (partial + concrete)
    pruned: int = 0              # partial queries rejected by the abstraction
    expanded: int = 0            # partial queries whose holes were branched
    concrete_checked: int = 0    # concrete queries checked under ≺
    consistent_found: int = 0
    elapsed_s: float = 0.0
    timed_out: bool = False
    skeletons: int = 0
    max_skeleton_size: int = 0   # largest skeleton admitted to the worklist

    #: Fields :meth:`merge` combines with max / or instead of summing.
    #: Every other field is a counter — derived from the dataclass fields
    #: below, so a newly added counter can never be dropped from merges.
    MERGE_MAX = ("elapsed_s", "max_skeleton_size")
    MERGE_OR = ("timed_out",)

    def as_dict(self) -> dict:
        return dict(self.__dict__)

    @staticmethod
    def merge(*parts: "SearchStats") -> "SearchStats":
        """Combine shard-local stats: counters sum, depths take the max.

        ``elapsed_s`` is the max because shards run concurrently;
        ``timed_out`` is true when any shard expired.  ``merge()`` of no
        parts is the zero element.
        """
        merged = SearchStats()
        for part in parts:
            for counter in SearchStats.COUNTERS:
                setattr(merged, counter,
                        getattr(merged, counter) + getattr(part, counter))
            for name in SearchStats.MERGE_MAX:
                setattr(merged, name,
                        max(getattr(merged, name), getattr(part, name)))
            for name in SearchStats.MERGE_OR:
                setattr(merged, name,
                        getattr(merged, name) or getattr(part, name))
        return merged


#: Counters = every stats field without explicit max/or merge semantics.
SearchStats.COUNTERS = tuple(
    f.name for f in fields(SearchStats)
    if f.name not in SearchStats.MERGE_MAX + SearchStats.MERGE_OR)


@dataclass
class SynthesisResult:
    """Outcome of one search run."""

    queries: list[ast.Query] = field(default_factory=list)  # discovery order
    stats: SearchStats = field(default_factory=SearchStats)
    target: ast.Query | None = None      # query that fired stop_predicate
    target_rank: int | None = None       # 1-based discovery rank of target
    workers: int = 1                     # shards searched concurrently
    engine_stats: object | None = None   # EngineStats (merged across workers)
    # Total work actually performed across shards (parallel runs only):
    # ``SearchStats.merge`` of the per-shard raw stats.  Shards overshoot
    # the serial stopping point, so this is >= ``stats``; the difference is
    # the price paid for the wall-clock win.
    raw_stats: SearchStats | None = None

    @property
    def solved(self) -> bool:
        return self.target is not None


# Per-pop outcomes of :func:`process_pop` — shared by the serial loop below
# and the shard workers (:mod:`repro.parallel.worker`), so Algorithm 1's pop
# semantics (classification order, counter increments, the ≺ check's
# exception set, hole-domain order) live in exactly one place and the
# sharded search cannot drift from the serial one.
POP_PRUNED = "pruned"              # rejected by the abstraction
POP_EXPANDED = "expanded"          # partial; holes branched
POP_INCONSISTENT = "inconsistent"  # concrete; failed the ≺ check
POP_CONSISTENT = "consistent"      # concrete; a solution candidate

#: Largest fully-instantiated sibling family batch-warmed through
#: ``evaluate_tracking_many`` at expansion time.  Covers the common
#: aggregation/arithmetic/predicate families while keeping the eager work
#: per pop bounded (an early stop may never pop an oversized family).
TRACKING_WARM_LIMIT = 64


def admit_skeleton(skeleton: ast.Query, demo: Demonstration,
                   config: SynthesisConfig, stats: SearchStats) -> int | None:
    """Shape-precheck one skeleton before it seeds a lane.

    Returns the skeleton's operator count when admitted (updating the
    max-depth stat), or ``None`` when the precheck rejects it (counted as a
    visited-and-pruned query, exactly as the serial loop always has).
    Sharded runs seed through the same session, so every path admits
    skeletons here.
    """
    if config.shape_precheck and not shape_feasible(skeleton, demo):
        stats.visited += 1
        stats.pruned += 1
        return None
    size = operator_count(skeleton)
    if size > stats.max_skeleton_size:
        stats.max_skeleton_size = size
    return size


def process_pop(query: ast.Query, env: ast.Env, demo: Demonstration,
                config: SynthesisConfig, abstraction: Abstraction,
                engine: EvalEngine, stats: SearchStats):
    """Process one popped query: classify it and update the counters.

    Returns ``(outcome, expansions)``; ``expansions`` holds the hole
    instantiations in canonical domain order when the query was expanded
    (the caller owns push order — LIFO lanes push them reversed), and is
    empty otherwise.
    """
    stats.visited += 1
    if is_concrete(query):
        stats.concrete_checked += 1
        # ``E ≺ [[q(T̄)]]★`` through the engine-owned incremental checker:
        # ill-typed candidates (domain inference cannot see e.g. NULL-
        # producing division statically) evaluate to errors and are simply
        # not solutions; the checker maps them to False.
        if engine.consistency.demo_consistent(query, env, demo):
            stats.consistent_found += 1
            return POP_CONSISTENT, ()
        return POP_INCONSISTENT, ()
    if not abstraction.feasible(query, env, demo):
        stats.pruned += 1
        return POP_PRUNED, ()
    position = first_hole(query)
    assert position is not None  # query is partial here
    stats.expanded += 1
    domain = hole_domain(query, position, env, config, demo, engine)
    expansions = tuple(fill(query, position, value) for value in domain)
    if expansions and len(expansions) <= TRACKING_WARM_LIMIT \
            and is_concrete(expansions[0]):
        # The filled hole was the last one, so *every* sibling is concrete
        # (they differ only in the filled value) and each will face the ≺
        # check when popped.  Run the whole family through the batched
        # tracking + consistency pipeline now: dispatch, hole checks, the
        # shared evaluation prefix AND the shared column match state are
        # paid once (siblings share all but one output column, so each
        # additional sibling matches exactly one new column); every later
        # pop is then a verdict-cache hit.  Ill-typed siblings get a False
        # verdict exactly as the per-pop check would give them.  Oversized
        # families (e.g. the exponential proj-columns domain) are left to
        # per-pop checking: an early stop or budget expiry may never pop
        # most of them, and the batch runs between deadline checks.
        engine.consistency.demo_consistent_many(expansions, env, demo)
    return POP_EXPANDED, expansions
