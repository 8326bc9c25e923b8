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

* :class:`~repro.engine.numpy_kernels.NumpyEngine` — the columnar engine
  with NumPy-vectorized kernels on the comparison hot paths (filters,
  join pair-building, sorts, grouping, aggregation, windows, arithmetic).
  Gated on ``import numpy`` at construction: ``make_engine("numpy")``
  degrades to the pure-python ``ColumnarEngine`` (with a logged warning)
  when NumPy is absent, so the knob is always safe to set.

All backends also expose ``evaluate_many`` / ``evaluate_tracking_many``
— batched evaluation that amortizes dispatch, cache probing and hole
checking over a stream of sibling candidates — and are held byte-identical
by the registry-wide differential suites plus the generative cross-backend
fuzz harness (``tests/test_backend_fuzz.py``).

``make_engine(name)`` is the factory the synthesis layer uses
(``SynthesisConfig.backend`` selects the name); ``capabilities()`` reports
what each name resolves to on this host.
"""

from repro.engine.base import BACKENDS, EngineStats, EvalEngine, \
    capabilities, make_engine, resolve_backend
from repro.engine.cache import BoundedCache
from repro.engine.columnar import ColumnarEngine
from repro.engine.columns import ColumnBlock
from repro.engine.numpy_kernels import HAVE_NUMPY, NumpyEngine
from repro.engine.row import RowEngine
from repro.engine.tracked_columns import TrackedBlock

__all__ = [
    "BACKENDS", "EngineStats", "EvalEngine", "make_engine",
    "resolve_backend", "capabilities", "HAVE_NUMPY",
    "BoundedCache", "ColumnBlock", "TrackedBlock", "RowEngine",
    "ColumnarEngine", "NumpyEngine",
]
