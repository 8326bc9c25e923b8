"""The worklist: fairness, ordering, exhaustion."""

import pytest

from repro.lang import Group, Hole, TableRef
from repro.lang.holes import fill, holes_of
from repro.synthesis.enumerator import _Family, _Worklist


def _q(name):
    return TableRef(name)


class TestSizedDfs:
    def test_single_lane_is_lifo(self):
        wl = _Worklist()
        lane = wl.add_lane(_q("root"))
        lid, root = wl.pop()
        wl.push(_q("a"), lid)
        wl.push(_q("b"), lid)
        assert wl.pop()[1].name == "b"
        assert wl.pop()[1].name == "a"
        assert not wl

    def test_round_robin_across_lanes(self):
        wl = _Worklist()
        l1 = wl.add_lane(_q("x1"))
        l2 = wl.add_lane(_q("y1"))
        # pop alternates lanes
        first = wl.pop()
        second = wl.pop()
        assert {first[1].name, second[1].name} == {"x1", "y1"}
        assert first[0] != second[0]

    def test_no_lane_starvation(self):
        wl = _Worklist()
        big = wl.add_lane(_q("big0"))
        small = wl.add_lane(_q("small0"))
        popped = []
        for step in range(10):
            lid, q = wl.pop()
            popped.append(q.name)
            if lid == big:  # the big lane keeps regenerating work
                wl.push(_q(f"big{step + 1}"), big)
        # the small (later, larger-size) lane still got served
        assert "small0" in popped

    def test_exhausted_lanes_dropped(self):
        wl = _Worklist()
        wl.add_lane(_q("a"))
        wl.add_lane(_q("b"))
        assert wl.pop()[1] is not None
        assert wl.pop()[1] is not None
        assert not wl

    def test_bool_reflects_content(self):
        wl = _Worklist()
        assert not wl
        lid = wl.add_lane(_q("a"))
        assert wl
        wl.pop()
        assert not wl
        wl.push(_q("b"), lid)
        assert wl


class TestExhaustionHardening:
    """pop() on a drained worklist reports exhaustion, never crashes."""

    def test_pop_empty_raises_index_error(self):
        wl = _Worklist()
        with pytest.raises(IndexError):
            wl.pop()

    def test_pop_after_drain_raises_index_error(self):
        wl = _Worklist()
        wl.add_lane(_q("a"))
        wl.add_lane(_q("b"))
        wl.pop()
        wl.pop()
        # Historically this died with ZeroDivisionError (lane-drop loop
        # re-indexing into an emptied lane list).
        with pytest.raises(IndexError):
            wl.pop()

    def test_last_live_lane_draining_mid_scan(self):
        # Force the lane-drop loop to walk over several exhausted lanes and
        # delete the final one mid-scan.
        wl = _Worklist()
        lanes = [wl.add_lane(_q(f"s{i}")) for i in range(3)]
        for _ in lanes:
            wl.pop()
        assert not wl
        # Desynchronize on purpose: stacks are empty but a stale count could
        # send a caller back into pop(); it must fail cleanly.
        wl._count = 1
        with pytest.raises(IndexError):
            wl.pop()
        assert wl._count == 0
        assert not wl

    def test_drop_scan_continues_to_live_lane(self):
        wl = _Worklist()
        a = wl.add_lane(_q("a"))
        b = wl.add_lane(_q("b"))
        c = wl.add_lane(_q("c"))
        # Empty lanes a and b by popping their single items; lane c stays.
        popped = {wl.pop()[1].name for _ in range(2)}
        assert popped <= {"a", "b", "c"}
        # Whatever remains must still be reachable through the drop scan.
        assert wl.pop()[1] is not None
        assert not wl



# ---------------------------------------------------------------- families
#: A miniature search space: each hole field's domain, in domain order.
_DOMAINS = {"keys": ((0,), (1,), (0, 1)), "agg_col": (0, 1, 2),
            "agg_func": ("sum", "max", "min", "avg")}


def _skeleton(name):
    return Group(TableRef(name), keys=Hole("keys"),
                 agg_func=Hole("agg_func"), agg_col=Hole("agg_col"))


def _pruned(query):
    """A fixed, arbitrary cut so families are left partly consumed."""
    return query.keys == (1,) or query.agg_col == 1


def _drive(lazy, steps=None, on_step=None):
    """Run the miniature search over three lanes, pushing each expansion
    as one family (``lazy``) or as the reversed eager siblings; return
    the trace of pops with every counter the worklist exposes."""
    wl = _Worklist()
    lanes = [wl.add_lane(_skeleton(name)) for name in ("T", "U", "V")]
    trace = []
    while wl and (steps is None or len(trace) < steps):
        lane_id, query = wl.pop()
        trace.append((lane_id, query, wl.round, wl.next_round(),
                      wl._count, wl.at_round_boundary(),
                      tuple(wl.drained(lane) for lane in lanes)))
        holes = holes_of(query)
        if holes and not _pruned(query):
            position = holes[0]
            domain = _DOMAINS[position[1]]
            if lazy:
                wl.push(_Family(query, position, domain), lane_id)
            else:
                for value in reversed(domain):
                    wl.push(fill(query, position, value), lane_id)
        if on_step is not None:
            on_step(wl)
    return trace, wl


class TestFamilies:
    """A lazy family pops exactly what its eager reversed push popped."""

    def test_family_pops_match_eager_pushes(self):
        lazy, _ = _drive(lazy=True)
        eager, _ = _drive(lazy=False)
        assert len(lazy) > 50
        assert lazy == eager

    def test_families_are_partly_consumed_mid_run(self):
        seen = []

        def watch(wl):
            seen.extend(entry.cursor for stack in wl._stacks.values()
                        for entry in stack if type(entry) is _Family)

        _drive(lazy=True, on_step=watch)
        assert any(cursor > 0 for cursor in seen)

    def test_export_mid_family_equals_eager_stacks(self):
        for steps in range(1, 60):
            _, lazy = _drive(lazy=True, steps=steps)
            _, eager = _drive(lazy=False, steps=steps)
            assert lazy.export_lanes() == eager.export_lanes(), steps
            assert lazy._count == eager._count

    def test_worklist_from_exported_families_continues_identically(self):
        _, lazy = _drive(lazy=True, steps=17)
        _, eager = _drive(lazy=False, steps=17)
        a = _Worklist.from_lanes(lazy.export_lanes())
        b = _Worklist.from_lanes(eager.export_lanes())
        while a or b:
            assert a.pop() == b.pop()

    def test_family_leaves_the_stack_with_its_last_sibling(self):
        wl = _Worklist()
        lane = wl.add_lane(TableRef("T"))
        wl.pop()
        parent = _skeleton("T")
        wl.push(_Family(parent, ((), "keys"), ((0,), (1,))), lane)
        assert wl._count == 2 and not wl.drained(lane)
        assert wl.pop()[1].keys == (0,)
        assert wl.pop()[1].keys == (1,)
        assert wl.drained(lane) and not wl
        assert wl.export_lanes() == []
