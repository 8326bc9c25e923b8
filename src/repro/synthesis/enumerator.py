"""The enumerative search loop (paper Algorithm 1).

A worklist seeded with one lane per skeleton, popped round-robin across
lanes and depth-first within each (see :class:`_Worklist`): concrete
queries are checked against the demonstration under the
provenance-tracking semantics (``E ≺ [[q(T̄)]]★``); partial queries are
screened by the pluggable abstraction and pruned when no instantiation can
realize the demonstration.  An expanded partial query pushes its siblings
as one lazy family entry (:class:`_Family`), and each sibling is filled
only when it is popped.

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
from repro.lang.holes import HolePosition, fill, holes_of, is_concrete
from repro.lang.size import operator_count
from repro.provenance.demo import Demonstration
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.domains import hole_domain


class _Family:
    """The siblings of one expansion, filled one pop at a time.

    Stands on its lane's stack for ``fill(parent, position, v)`` for every
    ``v`` in ``domain[cursor:]``, popped in domain order — the order the
    eager push of every sibling, reversed, gave.  A family is never empty
    on a stack: the worklist drops it when its last sibling is popped.
    """

    __slots__ = ("parent", "position", "domain", "cursor")

    def __init__(self, parent: ast.Query, position: HolePosition,
                 domain: tuple) -> None:
        self.parent = parent
        self.position = position
        self.domain = domain
        self.cursor = 0

    def __len__(self) -> int:
        return len(self.domain) - self.cursor

    def take(self) -> ast.Query:
        """Fill the sibling that pops next."""
        value = self.domain[self.cursor]
        self.cursor += 1
        return fill(self.parent, self.position, value)

    def queries(self) -> list[ast.Query]:
        """The remaining siblings as plain stack entries (top last)."""
        return [fill(self.parent, self.position, value)
                for value in reversed(self.domain[self.cursor:])]


class _Worklist:
    """The search frontier: one *lane* (a stack) per skeleton.

    Pops go round-robin across all live lanes, with lanes kept in
    skeleton-size order inside each cycle.  Every skeleton makes progress
    concurrently — a sibling skeleton's huge subspace can never starve the
    one containing the solution — small skeletons (which exhaust or die
    quickly) still dominate early, and within a lane the search is
    depth-first, reaching concrete candidates without materializing the
    breadth-first frontier, which is impractical at pure-Python speeds.

    A lane's stack holds plain queries and :class:`_Family` entries; a
    family counts as all of its remaining siblings everywhere.
    """

    def __init__(self) -> None:
        self._stacks: dict[int, list] = {}  # lane id -> queries, families
        self._order: list[int] = []         # live lanes, size order
        self._rr = 0
        self._count = 0
        self._next_lane = 0
        self.round = 0              # round of the latest pop (0 before any)

    @classmethod
    def from_lanes(cls, lanes) -> "_Worklist":
        """A worklist over :meth:`export_lanes` pairs (a shard's lanes)."""
        worklist = cls()
        for lane_id, stack in lanes:
            worklist._stacks[lane_id] = list(stack)
            worklist._order.append(lane_id)
            worklist._count += len(stack)
        return worklist

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

    def push(self, entry: ast.Query | _Family, lane_id: int) -> None:
        """Push an expansion onto its parent's lane: one query, or a
        non-empty family standing for its siblings."""
        self._stacks[lane_id].append(entry)
        self._count += len(entry) if type(entry) is _Family else 1

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
        if idx == 0:
            self.round += 1
        lane_id = self._order[idx]
        stack = self._stacks[lane_id]
        entry = stack[-1]
        if type(entry) is _Family:
            query = entry.take()
            if not entry:
                stack.pop()
        else:
            query = stack.pop()
        self._count -= 1
        self._rr = (idx + 1) % len(self._order)
        return lane_id, query

    def __bool__(self) -> bool:
        return self._count > 0

    def next_round(self) -> int:
        """The round the next pop belongs to (1 before the first pop).

        ``pop`` begins a new round whenever its cursor wraps; drained
        lanes at or after the cursor are skipped, so they wrap it too.
        """
        stacks, order = self._stacks, self._order
        if self._rr and any(stacks[order[i]]
                            for i in range(self._rr, len(order))):
            return self.round
        return self.round + 1

    def drained(self, lane_id: int) -> bool:
        """Whether lane ``lane_id`` has nothing left to pop."""
        return not self._stacks.get(lane_id)

    # The two methods below let a partially stepped session dispatch its
    # remaining lanes to shards (see repro.parallel.merge).

    def at_round_boundary(self) -> bool:
        """True when the rest of the visit order is whole rounds.

        That is "every live lane once per round, lanes in seed order" —
        the premise of the replay merge, and therefore the only state a
        partially consumed worklist may be dispatched to shards from.  It
        holds when no live lane sits before the cursor (this cycle only
        touched lanes that have drained since) or none at or after it.
        """
        live = [bool(self._stacks[lane]) for lane in self._order]
        return not any(live[:self._rr]) or not any(live[self._rr:])

    def export_lanes(self) -> list[tuple[int, list[ast.Query]]]:
        """Snapshot the live lanes as ``(lane_id, stack)`` pairs, seed order.

        Stacks are plain-query copies, families filled out in pop order, so
        shard payloads, lane costs and the replay merge see exactly the
        eager stacks; an exported payload crossing a process boundary never
        aliases live state.
        """
        lanes = []
        for lane in self._order:
            stack: list[ast.Query] = []
            for entry in self._stacks[lane]:
                if type(entry) is _Family:
                    stack.extend(entry.queries())
                else:
                    stack.append(entry)
            if stack:
                lanes.append((lane, stack))
        return lanes


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


# Per-pop outcomes of :func:`process_pop`, whose one caller is
# ``SynthesisSession.step`` — serial runs and shard workers alike run that
# loop, so Algorithm 1's pop semantics (classification order, counter
# increments, the ≺ check's exception set, hole-domain order) live in
# exactly one place.  A shard records them per lane as its trace events,
# which the replay merge (:mod:`repro.parallel.merge`) reads back.
POP_PRUNED = "pruned"              # rejected by the abstraction
POP_EXPANDED = "expanded"          # partial; holes branched
POP_INCONSISTENT = "inconsistent"  # concrete; failed the ≺ check
POP_CONSISTENT = "consistent"      # concrete; a solution candidate

#: Largest fully-instantiated sibling family batch-warmed at expansion
#: time, through ``engine.consistency.demo_consistent_many`` (and so the
#: engine's ``tracked_columns_many``).  Covers the common
#: aggregation/arithmetic/predicate families while keeping the eager work
#: per pop bounded (an early stop may never pop an oversized family).
#: Such a family is filled at expansion and pushed as plain queries; every
#: other family is pushed as a lazy :class:`_Family`.
TRACKING_WARM_LIMIT = 64


def admit_skeleton(skeleton: ast.Query, stats: SearchStats) -> int:
    """Admit one built skeleton before it seeds a lane.

    Returns the skeleton's operator count, updating the max-depth stat.
    The shape precheck ran per operator sequence before any skeleton was
    built (``SynthesisSession.start``).  Sharded runs seed through the
    same session, so every path admits skeletons here.
    """
    size = operator_count(skeleton)
    if size > stats.max_skeleton_size:
        stats.max_skeleton_size = size
    return size


def process_pop(query: ast.Query, env: ast.Env, demo: Demonstration,
                config: SynthesisConfig, abstraction: Abstraction,
                engine: EvalEngine, stats: SearchStats):
    """Process one popped query: classify it and update the counters.

    Returns ``(outcome, entries)``; when the query was expanded,
    ``entries`` are the lane stack entries for its hole instantiations, in
    push order, so that popping explores them in canonical domain order:
    one lazy :class:`_Family`, or the reversed siblings of a warmed
    concrete family.  ``entries`` is empty otherwise.
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
    holes = holes_of(query)
    position = holes[0]             # query is partial here
    stats.expanded += 1
    domain = hole_domain(query, position, env, config, demo, engine)
    if not domain:
        return POP_EXPANDED, ()
    if len(holes) > 1 or len(domain) > TRACKING_WARM_LIMIT:
        # Siblings are filled as they are popped; most never are, since
        # the abstraction cuts their parent's subtree or the budget ends.
        # Oversized concrete families (e.g. the exponential proj-columns
        # domain) are left to per-pop checking for the same reason, and
        # because a batch would run between deadline checks.
        return POP_EXPANDED, (_Family(query, position, tuple(domain)),)
    # The filled hole is the last one, so *every* sibling is concrete
    # (they differ only in the filled value) and each will face the ≺
    # check when popped.  Run the whole family through the batched
    # tracking + consistency pipeline now: dispatch, hole checks, the
    # shared evaluation prefix AND the shared column match state are paid
    # once (siblings share all but one output column, so each additional
    # sibling matches exactly one new column); every later pop is then a
    # verdict-cache hit.  Ill-typed siblings get a False verdict exactly as
    # the per-pop check would give them.
    expansions = tuple(fill(query, position, value) for value in domain)
    engine.consistency.demo_consistent_many(expansions, env, demo)
    return POP_EXPANDED, expansions[::-1]
