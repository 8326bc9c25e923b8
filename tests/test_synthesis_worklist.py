"""The worklist: fairness, ordering, exhaustion."""

import pytest

from repro.lang import TableRef
from repro.synthesis.enumerator import _Worklist


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

