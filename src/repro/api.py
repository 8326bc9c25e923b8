"""The supported public surface of ``repro`` in one module.

Everything a user of the synthesizer needs — and nothing that reaches
into :mod:`repro.experiments` or :mod:`repro.synthesis` internals:

One-shot synthesis::

    from repro.api import synthesize, SynthesisConfig

    result = synthesize(tables, demo, config=SynthesisConfig(top_n=5))
    result.queries        # ranked consistent queries

Resumable sessions (checkpoint, stream, cancel)::

    from repro.api import SynthesisSession

    session = SynthesisSession(tables, demo)
    report = session.step(max_pops=1000)      # first hits stream here
    blob = session.checkpoint()               # picklable; resume anywhere
    result = SynthesisSession.resume(blob).run()

Synthesis-as-a-service (warm worker tier + asyncio front-end)::

    from repro.api import SynthesisService, ServiceConfig

    async with SynthesisService(ServiceConfig(pool_size=4)) as svc:
        handle = svc.submit(tables, demo, timeout_s=5.0)
        async for query in handle.stream(): ...
        result = await handle.result()

The pool runs on one of two tiers, whose workers run one op loop:
``pool_backend="threads"`` hands workers the session objects and shares
the caller's GIL, ``"processes"`` hosts sessions in long-lived worker
processes fed pickled session checkpoints (the default for pools
larger than one worker; ``REPRO_POOL_BACKEND`` overrides).
Requests route by schema affinity — repeated-schema traffic lands on
already-warm workers — and a request whose config asks for
``workers > 1`` fans out onto shard workers when the pool has idle
capacity.  Results are byte-identical across tiers.

Every run evaluates on the columnar engine unless one is injected:
``Synthesizer(engine=make_engine("row"))`` runs the row reference.
"""

from __future__ import annotations

from repro.engine.base import EvalEngine, make_engine, resolve_backend
from repro.lang.ast import Env
from repro.provenance.demo import Demonstration
from repro.serve import (
    POOL_BACKENDS,
    RequestHandle,
    ServiceConfig,
    ServiceOverloaded,
    SynthesisService,
    WorkerPool,
    resolve_pool_backend,
)
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.enumerator import SearchStats, SynthesisResult
from repro.synthesis.session import StepReport, SynthesisSession
from repro.synthesis.stop import (
    CallableStop,
    GroundTruthStop,
    StopSpec,
    as_stop_spec,
)
from repro.synthesis.synthesizer import Synthesizer, synthesize
from repro.table.table import Table

__all__ = [
    # one-shot + reusable synthesis
    "synthesize", "Synthesizer", "SynthesisConfig", "SynthesisResult",
    "SearchStats",
    # resumable sessions
    "SynthesisSession", "StepReport",
    # serving layer
    "SynthesisService", "ServiceConfig", "ServiceOverloaded",
    "RequestHandle", "WorkerPool", "POOL_BACKENDS", "resolve_pool_backend",
    # stop predicates
    "StopSpec", "GroundTruthStop", "CallableStop", "as_stop_spec",
    # engines & data
    "EvalEngine", "make_engine", "resolve_backend",
    "Table", "Env", "Demonstration",
]
