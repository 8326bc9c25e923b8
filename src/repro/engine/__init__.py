"""The pluggable evaluation engine layer.

Algorithm 1 spends nearly all of its time evaluating thousands of
structurally-shared (partial) queries.  This package makes *how* those
evaluations run — and where their results are cached — a first-class,
swappable component:

* :class:`~repro.engine.base.EvalEngine` — the interface.  An engine owns
  **all** evaluation state: the concrete cache, the tracking cache and hit
  statistics.  Two engines never share state, so two synthesis sessions can
  run interleaved (or concurrently) without interference.
* :class:`~repro.engine.row.RowEngine` — the row-at-a-time tree interpreter
  (the historical evaluator) behind the interface.
* :class:`~repro.engine.columnar.ColumnarEngine` — column-major evaluation
  over :class:`~repro.engine.columns.ColumnBlock` with vectorized
  filter/join/group/analytic kernels; evaluated subtrees are cached by
  structural key so a skeleton's shared concrete prefix is computed once
  across all of its instantiations.  Provenance tracking runs columnar
  too, over :class:`~repro.engine.tracked_columns.TrackedBlock` (an
  expression grid whose value shadow is the shared concrete block).

Both backends also expose ``evaluate_many`` / ``evaluate_tracking_many``
— batched evaluation that amortizes dispatch, cache probing and hole
checking over a stream of sibling candidates — and are held byte-identical
by the registry-wide differential suites plus the generative cross-backend
fuzz harness (``tests/test_backend_fuzz.py``).

``make_engine()`` is the factory the synthesis layer uses; it builds the
columnar engine, the only production path.  The row engine is the
reference: a caller that wants it injects it, with
``Synthesizer(engine=make_engine("row"))`` or
``session.attach_engine(make_engine("row"))``.  ``capabilities()``
reports the engine names.
"""

from repro.engine.base import BACKENDS, EngineStats, EvalEngine, \
    capabilities, make_engine, resolve_backend
from repro.engine.cache import BoundedCache
from repro.engine.columnar import ColumnarEngine
from repro.engine.columns import ColumnBlock
from repro.engine.row import RowEngine
from repro.engine.tracked_columns import TrackedBlock

__all__ = [
    "BACKENDS", "EngineStats", "EvalEngine", "make_engine",
    "resolve_backend", "capabilities",
    "BoundedCache", "ColumnBlock", "TrackedBlock", "RowEngine",
    "ColumnarEngine",
]
