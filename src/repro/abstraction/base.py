"""The pluggable abstraction interface used by the enumerator (Alg. 1, l.13).

An abstraction's :meth:`feasible` implements ``AbstractReasoning`` +
``UNSAT``: it must return ``False`` only when *no* instantiation of the
partial query can satisfy the demonstration (Property 2) — soundness of the
whole synthesizer rests on this contract, and the property-based tests
hammer it.
"""

from __future__ import annotations

import importlib

from repro.lang.ast import Env, Query
from repro.provenance.demo import Demonstration


class Abstraction:
    """Base class: subclasses override :meth:`feasible`.

    Abstractions evaluate concrete subqueries through an
    :class:`~repro.engine.base.EvalEngine`; the synthesizer binds its engine
    via :meth:`bind_engine` so the whole session shares one set of caches.
    Unbound abstractions (direct API use, tests) lazily create a private
    engine — still instance-owned, never module-global.
    """

    name = "abstract"

    #: The bound evaluation engine (None until :meth:`bind_engine`).
    engine = None

    def bind_engine(self, engine) -> None:
        """Evaluate through ``engine`` from now on (drops private caches)."""
        self.engine = engine

    def _engine(self):
        if self.engine is None:
            from repro.engine.row import RowEngine
            self.engine = RowEngine()
        return self.engine

    def feasible(self, query: Query, env: Env, demo: Demonstration) -> bool:
        raise NotImplementedError

    def reset(self) -> None:
        """Drop any per-run caches (called between benchmark tasks)."""
        if self.engine is not None:
            self.engine.reset()


class NoAbstraction(Abstraction):
    """Never prunes — the plain enumerative-search baseline."""

    name = "none"

    def feasible(self, query: Query, env: Env, demo: Demonstration) -> bool:
        return True


#: The techniques :func:`make_abstraction` builds: name -> (module, class).
#: Imported on first use, since those modules import this one.
ABSTRACTIONS = {
    "provenance": ("repro.abstraction.provenance_abs",
                   "ProvenanceAbstraction"),
    "type": ("repro.abstraction.type_abs", "TypeAbstraction"),
    "value": ("repro.abstraction.value_abs", "ValueAbstraction"),
    "none": (__name__, "NoAbstraction"),
}


def check_abstraction(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is a known technique."""
    if name not in ABSTRACTIONS:
        raise ValueError(f"unknown abstraction {name!r}; "
                         f"choose from {sorted(ABSTRACTIONS)}")


def make_abstraction(name: str, **kwargs) -> Abstraction:
    """Factory: ``provenance`` | ``type`` | ``value`` | ``none``."""
    check_abstraction(name)
    module, cls = ABSTRACTIONS[name]
    return getattr(importlib.import_module(module), cls)(**kwargs)
