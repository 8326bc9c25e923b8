"""Declarative stop predicates for the search loop.

A session accepts a plain callable, but a closure cannot cross a process
boundary — and sharded search (:mod:`repro.parallel`) runs one
worker per skeleton shard, each owning its own
:class:`~repro.engine.base.EvalEngine`.  A :class:`StopSpec` separates *what
to stop on* (picklable data) from *how to evaluate it* (built per worker
against that worker's engine), so the same spec drives the serial loop and
every executor backend.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.lang import ast
from repro.synthesis.equivalence import same_output


class StopSpec:
    """A picklable description of the early-stop predicate.

    Subclasses implement :meth:`build`, which turns the spec into a concrete
    ``Query -> bool`` callable evaluated through a specific engine.  Workers
    call ``build`` once at shard start-up.
    """

    def build(self, engine, env: ast.Env) -> Callable[[ast.Query], bool]:
        raise NotImplementedError


@dataclass(frozen=True)
class GroundTruthStop(StopSpec):
    """Stop when a consistent query reproduces ``ground_truth``'s output.

    This is the §5.2 experiment mode ("the synthesizer runs until the
    correct query q_gt is found"); equivalence is output equivalence
    (:func:`~repro.synthesis.equivalence.same_output`), evaluated through
    the building worker's engine so its subtree caches are reused.
    """

    ground_truth: ast.Query

    def build(self, engine, env: ast.Env) -> Callable[[ast.Query], bool]:
        ground_truth = self.ground_truth
        return lambda query: same_output(query, ground_truth, env, engine)


@dataclass(frozen=True)
class CallableStop(StopSpec):
    """Wrap an arbitrary callable.

    Works with the ``thread``/``serial`` executors and — on platforms with
    ``fork`` — the ``process`` executor too (the closure is inherited); it
    is the one spec that cannot be pickled for ``spawn``-based workers.

    The callable must be a *pure function of the query* (no mutable state,
    no dependence on call order or count).  Under ``workers > 1`` each
    worker invokes its own copy on its shard's consistent queries in
    shard-local order; a stateful predicate would see different call
    sequences than the serial run and break the results-identical-to-serial
    guarantee.  Output-equivalence checks like :class:`GroundTruthStop`
    are pure by construction.
    """

    predicate: Callable[[ast.Query], bool]

    def build(self, engine, env: ast.Env) -> Callable[[ast.Query], bool]:
        return self.predicate


def as_stop_spec(stop) -> StopSpec | None:
    """Normalize ``None`` | callable | :class:`StopSpec` to a spec."""
    if stop is None or isinstance(stop, StopSpec):
        return stop
    return CallableStop(stop)
