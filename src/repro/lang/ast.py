"""Query AST for the analytical SQL language L_SQL (paper Fig. 7).

    q ← T | filter(q, p) | join(q1, q2[, p]) | left_join(q1, q2, p)
      | proj(q, c̄) | sort(q, c̄, op) | group(q, c̄, α(c))
      | partition(q, c̄, α′(c)) | arithmetic(q, γ(c̄))

Nodes are frozen dataclasses: hashable (memoized evaluation keys) and shared
structurally by the enumerator.  Parameter fields may hold
:class:`~repro.lang.holes.Hole` values in partial queries; the declared
``param_fields`` order is the hole-instantiation order.

Columns are referenced by 0-based index into the child query's output (the
paper uses indexes too, 1-based).  ``Env`` carries the named input tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from repro.errors import EvaluationError
from repro.lang.holes import Hole
from repro.lang.predicates import Predicate
from repro.table.table import Table


@dataclass(frozen=True, eq=True)
class Env:
    """The named input tables ¯T a query runs against."""

    tables: tuple[Table, ...]

    def __hash__(self) -> int:
        # Envs key every evaluation cache; hash the table tuple once.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(self.tables)
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        # Drop the process-local cached hash (seeded str hashing) so
        # pickled envs re-hash correctly in other processes.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @staticmethod
    def of(*tables: Table) -> "Env":
        return Env(tuple(tables))

    def get(self, name: str) -> Table:
        for table in self.tables:
            if table.name == name:
                return table
        raise EvaluationError(
            f"no input table named {name!r}; have {[t.name for t in self.tables]}")

    def names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tables)


class Query:
    """Base class for operator nodes."""

    def child_queries(self) -> tuple["Query", ...]:
        return ()

    def param_fields(self) -> tuple[str, ...]:
        """Parameter fields that may hold holes, in instantiation order."""
        return ()

    def with_children(self, children: tuple["Query", ...]) -> "Query":
        if children:
            raise EvaluationError(f"{type(self).__name__} has no children")
        return self

    def with_params(self, **kwargs) -> "Query":
        unknown = kwargs.keys() - self.__dataclass_fields__.keys()
        if unknown:
            raise TypeError(f"{type(self).__name__} has no field "
                            f"{', '.join(sorted(unknown))}")
        return self._derive(kwargs)

    def _derive(self, changes: dict) -> "Query":
        """A copy of this node with ``changes`` applied to its fields.

        What ``dataclasses.replace`` computes, without re-running the
        generated ``__init__``: one ``__dict__`` copy.  The parent's cached
        ``_hash`` is dropped, since the new node hashes differently.  Nodes
        define no ``__post_init__``, so nothing else is skipped.
        """
        state = dict(self.__dict__)
        state.pop("_hash", None)
        state.update(changes)
        node = object.__new__(type(self))
        node.__dict__.update(state)
        return node

    def operator_name(self) -> str:
        return type(self).__name__.lower()

    def walk(self) -> Iterable["Query"]:
        """All nodes, post-order."""
        for child in self.child_queries():
            yield from child.walk()
        yield self


@dataclass(frozen=True)
class TableRef(Query):
    """A reference to an input table by name."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Filter(Query):
    """Keep the rows satisfying ``pred``."""

    child: Query
    pred: Predicate | Hole

    def child_queries(self) -> tuple[Query, ...]:
        return (self.child,)

    def param_fields(self) -> tuple[str, ...]:
        return ("pred",)

    def with_children(self, children: tuple[Query, ...]) -> "Filter":
        (child,) = children
        return self._derive({"child": child})


@dataclass(frozen=True)
class Join(Query):
    """Join of two subqueries.

    ``pred=None`` is a pure cross product (the paper's ``join(q1, q2)``);
    with a predicate it is an inner equi-join (§5.1 enumerates predicates
    from primary/foreign keys).  The predicate sees the concatenated row.
    """

    left: Query
    right: Query
    pred: Predicate | Hole | None = None

    def child_queries(self) -> tuple[Query, ...]:
        return (self.left, self.right)

    def param_fields(self) -> tuple[str, ...]:
        return () if self.pred is None else ("pred",)

    def with_children(self, children: tuple[Query, ...]) -> "Join":
        left, right = children
        return self._derive({"left": left, "right": right})


@dataclass(frozen=True)
class LeftJoin(Query):
    """Left outer join; unmatched left rows are padded with NULLs."""

    left: Query
    right: Query
    pred: Predicate | Hole

    def child_queries(self) -> tuple[Query, ...]:
        return (self.left, self.right)

    def param_fields(self) -> tuple[str, ...]:
        return ("pred",)

    def with_children(self, children: tuple[Query, ...]) -> "LeftJoin":
        left, right = children
        return self._derive({"left": left, "right": right})


@dataclass(frozen=True)
class Proj(Query):
    """Project (and reorder) columns."""

    child: Query
    cols: tuple[int, ...] | Hole

    def child_queries(self) -> tuple[Query, ...]:
        return (self.child,)

    def param_fields(self) -> tuple[str, ...]:
        return ("cols",)

    def with_children(self, children: tuple[Query, ...]) -> "Proj":
        (child,) = children
        return self._derive({"child": child})


@dataclass(frozen=True)
class Sort(Query):
    """Stable sort by ``cols``; ascending or descending."""

    child: Query
    cols: tuple[int, ...] | Hole
    ascending: bool | Hole = True

    def child_queries(self) -> tuple[Query, ...]:
        return (self.child,)

    def param_fields(self) -> tuple[str, ...]:
        return ("cols", "ascending")

    def with_children(self, children: tuple[Query, ...]) -> "Sort":
        (child,) = children
        return self._derive({"child": child})


@dataclass(frozen=True)
class Group(Query):
    """Group-aggregation: one output row per group.

    Output columns: the ``keys`` columns (group representatives) followed by
    one aggregated column ``agg_func(agg_col)``.
    """

    child: Query
    keys: tuple[int, ...] | Hole
    agg_func: str | Hole
    agg_col: int | Hole
    alias: str | None = None

    def child_queries(self) -> tuple[Query, ...]:
        return (self.child,)

    def param_fields(self) -> tuple[str, ...]:
        # Keys first (unlocks medium/strong abstraction), then the target
        # column (unlocks the target-column refinement), function last.
        return ("keys", "agg_col", "agg_func")

    def with_children(self, children: tuple[Query, ...]) -> "Group":
        (child,) = children
        return self._derive({"child": child})


@dataclass(frozen=True)
class Partition(Query):
    """Partition-aggregation: all rows kept, one aggregated value per row."""

    child: Query
    keys: tuple[int, ...] | Hole
    agg_func: str | Hole
    agg_col: int | Hole
    alias: str | None = None

    def child_queries(self) -> tuple[Query, ...]:
        return (self.child,)

    def param_fields(self) -> tuple[str, ...]:
        return ("keys", "agg_col", "agg_func")

    def with_children(self, children: tuple[Query, ...]) -> "Partition":
        (child,) = children
        return self._derive({"child": child})


@dataclass(frozen=True)
class Arithmetic(Query):
    """Row-wise arithmetic: appends ``func(row[cols])`` as a new column."""

    child: Query
    func: str | Hole
    cols: tuple[int, ...] | Hole
    alias: str | None = None

    def child_queries(self) -> tuple[Query, ...]:
        return (self.child,)

    def param_fields(self) -> tuple[str, ...]:
        return ("cols", "func")

    def with_children(self, children: tuple[Query, ...]) -> "Arithmetic":
        (child,) = children
        return self._derive({"child": child})


def install_cached_hash(cls) -> None:
    """Wrap a frozen dataclass's generated hash with per-instance caching.

    Query trees are immutable and shared structurally; every evaluation
    cache keys on them, so each node's hash is requested many times while
    the dataclass-generated hash re-walks the whole subtree on every call.
    The class name is mixed in, since node types share field layouts.
    The cached value is process-local (str hashing is seeded) and is
    excluded from pickled state.
    """
    generated = cls.__hash__

    def __hash__(self, _generated=generated, _salt=hash(cls.__name__)):
        cached = self.__dict__.get("_hash")
        if cached is None:
            # The generated hash covers the fields only: without the class
            # name, a Group and a Partition over the same fields collide in
            # every cache.
            cached = _generated(self) ^ _salt
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__


for _node in (TableRef, Filter, Join, LeftJoin, Proj, Sort, Group,
              Partition, Arithmetic):
    install_cached_hash(_node)
del _node
