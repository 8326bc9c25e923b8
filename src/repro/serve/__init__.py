"""Synthesis-as-a-service: a persistent warm worker pool
(:mod:`repro.serve.pool`) under an asyncio front-end
(:mod:`repro.serve.service`).

The pool runs on one of two tiers (:data:`~repro.serve.pool.POOL_BACKENDS`):
GIL-sharing worker threads handed the session objects, or long-lived
worker processes fed pickled checkpoint blobs — the default whenever the
pool is larger than one worker.  Both tiers run one worker op loop, every
worker owns its warm engines' caches, and both tiers produce
byte-identical results.

Fault tolerance: the pool supervises its workers (restart with backoff,
degrade to threads as a last resort) and the service replays a dead
worker's requests from their latest slice-boundary checkpoints —
transparently, because results are deterministic.  Deterministic chaos
for testing all of it lives in :mod:`repro.serve.faults`
(:class:`~repro.serve.faults.FaultPlan` / ``REPRO_FAULTS``).

Layering: sits beside :mod:`repro.experiments`, above
:mod:`repro.synthesis` — requests are
:class:`~repro.synthesis.session.SynthesisSession` objects, and a
``workers > 1`` request fans out through :mod:`repro.parallel`.
"""

from repro.serve.faults import (
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    parse_faults,
)
from repro.serve.pool import (
    POOL_BACKENDS,
    WORKER_DIED,
    RecoveryTelemetry,
    SliceOutcome,
    WorkerPool,
    WorkerTelemetry,
    resolve_pool_backend,
    warm_key,
)
from repro.serve.service import (
    RequestHandle,
    ServiceConfig,
    ServiceOverloaded,
    SynthesisService,
)

__all__ = [
    "WorkerPool", "POOL_BACKENDS", "resolve_pool_backend", "warm_key",
    "SliceOutcome", "WorkerTelemetry", "RecoveryTelemetry", "WORKER_DIED",
    "FaultPlan", "FaultInjector", "InjectedCrash", "parse_faults",
    "SynthesisService", "ServiceConfig", "ServiceOverloaded",
    "RequestHandle",
]
