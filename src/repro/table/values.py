"""Cell values and their comparison semantics.

Values are plain Python objects: ``int``, ``float``, ``str``, ``bool`` or
``None`` (NULL).  Two subtleties are centralized here so that every layer of
the system — concrete evaluation, provenance tracking, bag equality, demo
matching — agrees on them:

* floats compare with a small tolerance (aggregates such as ``avg`` produce
  floats whose bit patterns depend on summation order);
* NULLs sort last and never equal anything except another NULL (a pragmatic
  deviation from three-valued logic that keeps bag equality decidable).
"""

from __future__ import annotations

import math

Value = int | float | str | bool | None

_REL_TOL = 1e-9
_ABS_TOL = 1e-9


def is_numeric(v: Value) -> bool:
    """True for ints and floats; booleans are not numeric for our purposes."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def value_type(v: Value) -> str:
    """Coarse type tag used by schema inference and domain pruning."""
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, (int, float)):
        return "number"
    return "string"


def value_eq(a: Value, b: Value) -> bool:
    """Equality with float tolerance; NULL == NULL only."""
    if a is None or b is None:
        return a is None and b is None
    if is_numeric(a) and is_numeric(b):
        if isinstance(a, float) or isinstance(b, float):
            return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)
        return a == b
    if type(a) is not type(b) and not (isinstance(a, str) and isinstance(b, str)):
        return False
    return a == b


def value_lt(a: Value, b: Value) -> bool:
    """Ordering used by sort / rank: NULL last, numbers before strings."""
    ka, kb = value_sort_key(a), value_sort_key(b)
    return ka < kb


def value_sort_key(v: Value) -> tuple:
    """Total-order sort key over mixed-type values.

    Order classes: numbers < strings < booleans < NULL.  Inside a class the
    natural order applies.
    """
    if v is None:
        return (3, 0)
    if isinstance(v, bool):
        return (2, v)
    if isinstance(v, (int, float)):
        return (0, v)
    return (1, v)


def row_eq(row_a: list[Value], row_b: list[Value]) -> bool:
    """Positional equality of two rows under :func:`value_eq`."""
    if len(row_a) != len(row_b):
        return False
    return all(value_eq(a, b) for a, b in zip(row_a, row_b))


def canonical(v: Value) -> Value:
    """Canonical form used for hashing rows into groups.

    Integral floats collapse to ints so that ``2.0`` and ``2`` land in the
    same group, matching :func:`value_eq`.  Non-integral floats are rounded
    to 9 decimal places (consistent with the equality tolerance for the value
    magnitudes the benchmarks use).
    """
    if isinstance(v, bool):
        return v
    if isinstance(v, float):
        if math.isfinite(v) and v == int(v):
            return int(v)
        return round(v, 9)
    return v
