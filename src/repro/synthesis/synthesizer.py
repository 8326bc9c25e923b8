"""Top-level synthesizer facade.

``synthesize(tables, demo, ...)`` is the one-call public API: build an
abstraction, run Algorithm 1, and return ranked consistent queries.  The
:class:`Synthesizer` class is the reusable variant for experiment loops
(keeps the abstraction object and clears its caches between tasks).

Each :class:`Synthesizer` owns its own :class:`~repro.engine.base.EvalEngine`
(columnar unless one is injected, e.g. ``engine=make_engine("row")`` for
the reference interpreter), and the abstraction is bound to it — every
byte of evaluation state is scoped to this instance, so independent
synthesizers can run interleaved (or on separate threads) without sharing
or clobbering caches.  :meth:`Synthesizer.reset` is correspondingly
engine-scoped: it clears *this* session's caches and nobody else's.

With ``config.workers > 1``, :meth:`Synthesizer.run` hands the search to
:mod:`repro.parallel`: the session seeds its skeleton lanes, deals them to
shards, each searched by a worker owning its own engine, and the shard
outputs are merged deterministically — ranked queries and search counters
are byte-identical to the serial run regardless of worker count.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.abstraction.base import Abstraction, make_abstraction
from repro.engine.base import EvalEngine, make_engine
from repro.lang.ast import Env, Query
from repro.provenance.demo import Demonstration
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.enumerator import SynthesisResult
from repro.synthesis.session import SynthesisSession
from repro.synthesis.stop import StopSpec, as_stop_spec
from repro.table.table import Table


def build_abstraction(name_or_abs: str | Abstraction,
                      config: SynthesisConfig) -> Abstraction:
    """Materialize an abstraction from its name (or pass one through).

    Shared by the synthesizer and every session — shard sessions included,
    each rebuilding the technique from its name so every worker owns an
    independent instance bound to its own engine.
    """
    if isinstance(name_or_abs, Abstraction):
        return name_or_abs
    if name_or_abs == "provenance":
        return make_abstraction(
            "provenance", target_refinement=config.target_refinement,
            value_shadow=config.value_shadow,
            head_typing=config.head_typing)
    return make_abstraction(name_or_abs)


class Synthesizer:
    """Reusable synthesis engine bound to one abstraction technique."""

    def __init__(self, abstraction: str | Abstraction = "provenance",
                 config: SynthesisConfig | None = None,
                 engine: EvalEngine | None = None) -> None:
        self.config = config or SynthesisConfig()
        self.engine = engine or make_engine()
        self._engine_supplied = engine is not None
        #: The technique name when known — sharded workers rebuild the
        #: abstraction from it (a bound Abstraction object cannot cross a
        #: process boundary).  None when a pre-built object was supplied.
        self.abstraction_spec = abstraction if isinstance(abstraction, str) \
            else None
        self.abstraction = build_abstraction(abstraction, self.config)
        self.abstraction.bind_engine(self.engine)

    def run(self, tables: Sequence[Table], demo: Demonstration,
            stop_predicate: Callable[[Query], bool] | StopSpec | None = None,
            config: SynthesisConfig | None = None) -> SynthesisResult:
        return self.session(tables, demo, stop_predicate, config).run()

    def session(self, tables: Sequence[Table] | Env, demo: Demonstration,
                stop: Callable[[Query], bool] | StopSpec | None = None,
                config: SynthesisConfig | None = None) -> SynthesisSession:
        """Open a resumable :class:`SynthesisSession` on this synthesizer.

        A serial session evaluates through this synthesizer's engine, so
        repeated sessions over the same tables reuse warm caches.  A
        ``workers > 1`` session dispatches to shard workers at ``run``
        time, each building its own columnar engine.
        """
        env = tables if isinstance(tables, Env) else Env(tuple(tables))
        cfg = config or self.config
        session = SynthesisSession(
            env, demo, cfg,
            abstraction=self.abstraction_spec or self.abstraction,
            stop=as_stop_spec(stop))
        if cfg.workers > 1:
            if self.abstraction_spec is None:
                raise ValueError(
                    "workers > 1 requires the abstraction to be given by "
                    "name (workers rebuild it per shard); pass e.g. "
                    "'provenance' instead of a pre-built Abstraction object")
            if self._engine_supplied:
                raise ValueError(
                    "workers > 1 cannot use an explicitly supplied engine — "
                    "each worker builds its own columnar engine; drop the "
                    "engine argument instead")
            return session
        session.attach_engine(self.engine, self.abstraction)
        return session

    def reset(self) -> None:
        """Clear this session's evaluation caches (between experiment runs).

        Engine-scoped: other live synthesizers keep their state untouched.
        """
        self.engine.reset()
        self.abstraction.reset()


def synthesize(tables: Sequence[Table], demo: Demonstration,
               abstraction: str | Abstraction = "provenance",
               config: SynthesisConfig | None = None,
               stop_predicate: Callable[[Query], bool] | StopSpec | None = None,
               ) -> SynthesisResult:
    """Synthesize analytical SQL queries consistent with a demonstration.

    Parameters
    ----------
    tables:
        The input tables ¯T.
    demo:
        The computation demonstration E.
    abstraction:
        ``"provenance"`` (Sickle), ``"value"`` (Scythe-style), ``"type"``
        (Morpheus-style) or ``"none"``; or a pre-built
        :class:`~repro.abstraction.base.Abstraction`.
    config:
        Search-space and budget knobs; see :class:`SynthesisConfig`.
        ``config.workers`` shards the search across that many workers.
    stop_predicate:
        Optional: stop as soon as a consistent query satisfies it.  Either
        a plain callable or a picklable
        :class:`~repro.synthesis.stop.StopSpec` (required form for
        spawn-based worker processes).

    Returns
    -------
    SynthesisResult
        Ranked consistent queries plus search statistics.
    """
    return Synthesizer(abstraction, config).run(tables, demo, stop_predicate)
