"""AST nodes, holes and post-order hole discipline."""

import pytest

from repro.lang import (
    Arithmetic,
    Group,
    Hole,
    Partition,
    TableRef,
    first_hole,
    holes_of,
    is_concrete,
)
from repro.lang.holes import fill, fill_first_hole, node_at


def _skeleton():
    return Arithmetic(
        Partition(Group(TableRef("T"), keys=Hole("keys"),
                        agg_func=Hole("agg_func"), agg_col=Hole("agg_col")),
                  keys=Hole("keys"), agg_func=Hole("agg_func"),
                  agg_col=Hole("agg_col")),
        func=Hole("func"), cols=Hole("cols"))


class TestHoleDiscovery:
    def test_concrete_query_has_no_holes(self, ground_truth):
        assert is_concrete(ground_truth)
        assert holes_of(ground_truth) == []

    def test_skeleton_hole_count(self):
        assert len(holes_of(_skeleton())) == 8

    def test_post_order_children_first(self):
        positions = holes_of(_skeleton())
        # deepest node (the Group, at path (0, 0)) comes first
        assert positions[0] == ((0, 0), "keys")
        # the Arithmetic root's holes come last
        assert positions[-1] == ((), "func")

    def test_group_param_order(self):
        positions = holes_of(_skeleton())
        group_fields = [f for path, f in positions if path == ((0, 0))]
        group_fields = [f for path, f in positions if path == (0, 0)]
        assert group_fields == ["keys", "agg_col", "agg_func"]

    def test_first_hole(self):
        assert first_hole(_skeleton()) == ((0, 0), "keys")
        assert first_hole(TableRef("T")) is None


class TestFilling:
    def test_fill_replaces_only_target(self):
        q = _skeleton()
        q2 = fill(q, ((0, 0), "keys"), (0, 1))
        group = node_at(q2, (0, 0))
        assert group.keys == (0, 1)
        assert isinstance(group.agg_func, Hole)
        # original untouched (immutability)
        assert isinstance(node_at(q, (0, 0)).keys, Hole)

    def test_fill_shares_unchanged_subtrees(self):
        q = _skeleton()
        q2 = fill(q, ((), "func"), "mul")
        assert node_at(q2, (0,)) is node_at(q, (0,))

    def test_fill_first_hole_progresses_to_concrete(self):
        q = _skeleton()
        values = [(0,), 2, "sum", (0,), 1, "cumsum", (1, 2), "div"]
        for v in values:
            q = fill_first_hole(q, v)
        assert is_concrete(q)

    def test_fill_first_hole_on_concrete_raises(self, ground_truth):
        with pytest.raises(ValueError):
            fill_first_hole(ground_truth, 1)


class TestNodeProtocol:
    def test_walk_post_order(self, ground_truth):
        names = [type(n).__name__ for n in ground_truth.walk()]
        assert names == ["TableRef", "Group", "Partition", "Arithmetic",
                         "Proj"]

    def test_with_children(self):
        g = Group(TableRef("T"), keys=(0,), agg_func="sum", agg_col=1)
        g2 = g.with_children((TableRef("S"),))
        assert g2.child.name == "S"
        assert g2.keys == (0,)

    def test_queries_hashable(self, ground_truth):
        assert hash(ground_truth) == hash(ground_truth)
        assert ground_truth == ground_truth

    def test_join_param_fields_only_with_pred(self):
        from repro.lang import Join
        assert Join(TableRef("A"), TableRef("B")).param_fields() == ()
        assert Join(TableRef("A"), TableRef("B"),
                    pred=Hole("pred")).param_fields() == ("pred",)


def _every_node_kind():
    """One node of each kind with a child, parameters and a cached hash."""
    from repro.lang import Filter, Join, LeftJoin, Proj, Sort
    from repro.lang.predicates import ColCmp
    t, s = TableRef("T"), TableRef("S")
    pred = ColCmp(0, "==", 1)
    return [
        Filter(t, pred=pred),
        Join(t, s, pred=pred),
        LeftJoin(t, s, pred=pred),
        Proj(t, cols=(0, 1)),
        Sort(t, cols=(1,), ascending=False),
        Group(t, keys=(0,), agg_func="sum", agg_col=1, alias="total"),
        Partition(t, keys=(0,), agg_func="rank", agg_col=2),
        Arithmetic(t, func="add", cols=(1, 2)),
    ]


class TestNodeDerivation:
    """``with_params``/``with_children`` copy ``__dict__`` instead of going
    through ``dataclasses.replace``; the result must be indistinguishable."""

    @pytest.mark.parametrize("node", _every_node_kind(),
                             ids=lambda n: type(n).__name__)
    def test_derived_node_matches_replace(self, node):
        import dataclasses
        import pickle
        hash(node)                               # cache the parent's hash
        assert "_hash" in node.__dict__
        child = Group(TableRef("U"), keys=(1,), agg_func="max", agg_col=0)
        children = tuple(child for _ in node.child_queries())
        field = node.param_fields()[0]
        value = Hole(field)
        for derived, expected in (
                (node.with_params(**{field: value}),
                 dataclasses.replace(node, **{field: value})),
                (node.with_children(children),
                 dataclasses.replace(node, **dict(zip(
                     ("left", "right") if len(children) == 2
                     else ("child",), children))))):
            assert type(derived) is type(node)
            assert "_hash" not in derived.__dict__
            assert derived == expected
            fresh = type(node)(**{f.name: getattr(expected, f.name)
                                  for f in dataclasses.fields(node)})
            assert hash(derived) == hash(fresh)
            assert derived != node and hash(derived) != hash(node)
            assert "_hash" not in pickle.loads(pickle.dumps(derived)).__dict__
            assert pickle.loads(pickle.dumps(derived)) == derived

    def test_unknown_field_rejected_like_replace(self):
        node = Group(TableRef("T"), keys=(0,), agg_func="sum", agg_col=1)
        with pytest.raises(TypeError, match="bogus"):
            node.with_params(bogus=1)

    def test_fill_leaves_the_parent_unchanged(self):
        skeleton = _skeleton()
        before = hash(skeleton)
        filled = fill(skeleton, ((0, 0), "keys"), (0,))
        assert skeleton == _skeleton() and hash(skeleton) == before
        assert node_at(filled, (0, 0)).keys == (0,)
