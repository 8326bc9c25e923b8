"""Filter / join predicates (paper Fig. 7).

``p ← p1 and p2 | true | false | c1 op c2`` with ``op ∈ {<, ≤, ==, >, ≥}``.
We additionally support comparison against user-supplied constants (the paper
uses constants "provided by the user", §5.1) and ``!=`` as a convenience.

Predicates evaluate over a single (possibly joined) row of concrete values;
NULL comparisons are false, as in SQL's WHERE semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.errors import ExpressionError
from repro.table.values import Value, value_eq, value_sort_key

COMPARISON_OPS: tuple[str, ...] = ("<", "<=", "==", ">", ">=", "!=")


def _compare(op: str, a: Value, b: Value) -> bool:
    if a is None or b is None:
        return False
    if op == "==":
        return value_eq(a, b)
    if op == "!=":
        return not value_eq(a, b)
    ka, kb = value_sort_key(a), value_sort_key(b)
    if op == "<":
        return ka < kb
    if op == "<=":
        return ka <= kb
    if op == ">":
        return ka > kb
    if op == ">=":
        return ka >= kb
    raise ExpressionError(f"unknown comparison operator {op!r}")


def compare_values(op: str, a: Value, b: Value) -> bool:
    """Public comparison entry point (columnar kernels evaluate predicates
    column-wise and must agree cell-for-cell with ``Predicate.evaluate``)."""
    return _compare(op, a, b)


class Predicate:
    """Base class; subclasses are immutable and hashable."""

    def evaluate(self, row: Sequence[Value]) -> bool:
        raise NotImplementedError

    def columns_used(self) -> frozenset[int]:
        raise NotImplementedError


@dataclass(frozen=True)
class TruePred(Predicate):
    def evaluate(self, row: Sequence[Value]) -> bool:
        return True

    def columns_used(self) -> frozenset[int]:
        return frozenset()

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalsePred(Predicate):
    def evaluate(self, row: Sequence[Value]) -> bool:
        return False

    def columns_used(self) -> frozenset[int]:
        return frozenset()

    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class ColCmp(Predicate):
    """``row[left] op row[right]`` — column-to-column comparison."""

    left: int
    op: str
    right: int

    def evaluate(self, row: Sequence[Value]) -> bool:
        return _compare(self.op, row[self.left], row[self.right])

    def columns_used(self) -> frozenset[int]:
        return frozenset((self.left, self.right))

    def __str__(self) -> str:
        return f"c{self.left} {self.op} c{self.right}"


@dataclass(frozen=True, eq=False)
class ConstCmp(Predicate):
    """``row[col] op const`` — comparison against a user-provided constant.

    Equality and hashing include the constant's type: Python equates
    ``True`` with ``1``, ``value_eq`` does not, and every ``(query, env)``
    cache keys on predicates.
    """

    col: int
    op: str
    const: Value

    def _key(self) -> tuple:
        return self.col, self.op, self.const, self.const.__class__

    def __eq__(self, other) -> bool:
        return type(other) is ConstCmp and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def evaluate(self, row: Sequence[Value]) -> bool:
        return _compare(self.op, row[self.col], self.const)

    def columns_used(self) -> frozenset[int]:
        return frozenset((self.col,))

    def __str__(self) -> str:
        return f"c{self.col} {self.op} {self.const!r}"


@dataclass(frozen=True)
class AndPred(Predicate):
    parts: tuple[Predicate, ...]

    def evaluate(self, row: Sequence[Value]) -> bool:
        return all(p.evaluate(row) for p in self.parts)

    def columns_used(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for p in self.parts:
            out |= p.columns_used()
        return out

    def __str__(self) -> str:
        return " and ".join(str(p) for p in self.parts)
