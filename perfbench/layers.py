"""Layer spans recorded from outside the program.

:class:`Tracer` wraps the public entry points of each layer (see
:func:`install_layers`) with a recorder that keeps spans in memory:
``(layer, start, end, parent, operation id)``.  A call into a layer that
is already open on the same thread — a same-layer re-entry, such as
``evaluate_many`` calling ``evaluate`` — runs unrecorded, so each layer
is counted once per outermost call.  At exit the spans are written as
Chrome trace-event JSON and folded into a per-layer table of self time
(span duration minus the time its child spans cover) and counts.

Only the calling process is traced: shard and pool workers are opaque
here; their layers are described by operation-level spans and the
program's own counters.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict

#: Spans written to the trace-event file at most (the per-layer table
#: always covers every span).
MAX_TRACE_EVENTS = 400_000


class Tracer:
    """In-memory span recorder; see the module doc."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []
        # Forked shard and pool workers run the program unwrapped: they
        # are opaque here, and their spans could never be collected.
        os.register_at_fork(after_in_child=self.unpatch)

    # ---------------------------------------------------------- recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(self, fn, layer: str, on_result=None):
        """``fn`` wrapped to record a ``layer`` span per outermost call.

        ``on_result(result)`` runs after every call, re-entrant ones too,
        so layer counters see all traffic.
        """
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if any(entry[0] == layer for entry in stack):
                result = fn(*args, **kwargs)
            else:
                parent = stack[-1][1] if stack else -1
                index = len(spans)
                spans.append(None)      # reserve the slot: parents first
                entry = (layer, index)
                stack.append(entry)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (layer, start, end, parent, self.op_id)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, layer: str, on_result=None) -> None:
        """Replace ``owner.attr`` with its traced version (undo: unpatch)."""
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, self.traced(original, layer, on_result))

    def unpatch(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # ---------------------------------------------------------- reporting
    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per layer: ``self_s``, ``total_s`` and ``spans``."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "total_s": 0.0, "spans": 0})
        for idx, (layer, start, end, _, _) in enumerate(self.spans):
            row = table[layer]
            row["self_s"] += end - start - child_time[idx]
            row["total_s"] += end - start
            row["spans"] += 1
        return dict(table)

    def write_chrome_trace(self, path) -> int:
        """Write spans as Chrome trace-event JSON; returns events written."""
        events = []
        origin = self.spans[0][1] if self.spans else 0.0
        for layer, start, end, _, op in self.spans[:MAX_TRACE_EVENTS]:
            events.append({"name": layer, "ph": "X", "pid": 0, "tid": 0,
                           "ts": round((start - origin) * 1e6, 3),
                           "dur": round((end - start) * 1e6, 3),
                           "args": {"op": op}})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "otherData": {"spans": len(self.spans),
                                     "written": len(events)}}, handle)
        return len(events)


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points at the names callers use."""
    import repro.synthesis.enumerator as enumerator
    import repro.synthesis.session as session_mod
    from repro.abstraction.base import Abstraction
    from repro.engine.columnar import ColumnarEngine
    from repro.provenance.incremental import ConsistencyChecker
    from repro.synthesis.stop import GroundTruthStop

    def count_pops(report) -> None:
        tracer.count("synthesis.session.pops", report.pops)

    tracer.patch(session_mod.SynthesisSession, "step", "synthesis.session",
                 count_pops)
    tracer.patch(session_mod.SynthesisSession, "run", "synthesis.session")

    tracer.patch(session_mod, "construct_skeletons", "synthesis.skeletons",
                 lambda out: tracer.count("synthesis.skeletons.count",
                                          len(out)))
    tracer.patch(session_mod, "admit_skeleton", "synthesis.skeletons",
                 lambda size: tracer.count("synthesis.skeletons.shape_pruned",
                                           size is None))

    def count_feasible(ok) -> None:
        tracer.count("abstraction.calls")
        tracer.count("abstraction.pruned", not ok)

    for cls in _subclasses(Abstraction):
        if "feasible" in vars(cls):
            tracer.patch(cls, "feasible", "abstraction", count_feasible)

    def count_domain(domain) -> None:
        tracer.count("synthesis.domains.calls")
        tracer.count("synthesis.domains.width", len(domain))

    tracer.patch(enumerator, "hole_domain", "synthesis.domains",
                 count_domain)

    for name in ("demo_consistent", "demo_consistent_many"):
        tracer.patch(ConsistencyChecker, name, "provenance.incremental")
    for name in ("evaluate", "evaluate_tracking", "evaluate_many",
                 "evaluate_tracking_many", "tracked_columns_many"):
        tracer.patch(ColumnarEngine, name, "engine")

    original_build = GroundTruthStop.build

    def build(self, engine, env):
        return tracer.traced(original_build(self, engine, env),
                             "synthesis.stop")

    tracer._patches.append((GroundTruthStop, "build", original_build, True))
    GroundTruthStop.build = build


def _subclasses(cls) -> list:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out
