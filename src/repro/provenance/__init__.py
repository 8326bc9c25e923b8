"""Provenance expressions and computation demonstrations (paper Fig. 8).

Two term languages share one representation:

* ``e★`` — cells of provenance-embedded tables produced by the tracking
  semantics: constants, input-cell references, function applications and
  ``group{...}`` sets;
* ``e`` — cells of user demonstrations: the same minus ``group{...}``, plus
  *partial* applications ``f♦(...)`` whose omitted arguments (♦) stand for
  any number of values.

:mod:`repro.provenance.consistency` implements the ≺ judgment (Fig. 10) and
the table-level provenance consistency of Definition 1 (the reference
oracle); :mod:`repro.provenance.incremental` is the engine-owned
incremental checker the synthesis hot path runs — batched verdicts over
the one embedding routine of :mod:`repro.provenance.analysis`, which
reads each demonstration once per env and memoizes match matrices per
column across sibling candidates.
"""

from repro.provenance.expr import (
    CellRef,
    Const,
    Expr,
    FuncApp,
    GroupSet,
    cell,
    const,
    func,
    group,
    partial_func,
)
from repro.provenance.demo import Demonstration
from repro.provenance.refs import refs_of
from repro.provenance.simplify import simplify
from repro.provenance.consistency import (
    demo_consistent,
    generalizes,
    generalizes_simplified,
)
from repro.provenance.incremental import ConsistencyChecker

__all__ = [
    "Expr", "Const", "CellRef", "FuncApp", "GroupSet",
    "const", "cell", "func", "partial_func", "group",
    "Demonstration", "refs_of", "simplify",
    "generalizes", "generalizes_simplified", "demo_consistent",
    "ConsistencyChecker",
]
