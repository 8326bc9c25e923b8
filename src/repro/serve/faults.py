"""Deterministic fault injection for the serving stack.

Chaos testing is only useful when a failing run can be replayed: a
:class:`FaultPlan` is a pure, seeded description of *which* faults to
inject, and a :class:`FaultInjector` turns it into per-site decisions
that depend only on ``(seed, worker_id, incarnation, site, draw index)``
— no RNG state, no wall clock.  The same plan against the same request
stream injects the same faults, under fork and spawn alike (the plan is
a frozen dataclass and ships to worker processes by value).

Injection sites (all rates are probabilities in ``[0, 1]``):

``crash_before`` / ``crash_after``
    The worker dies immediately before / after executing one slice —
    before any work, or after the work but *before the outcome ships*,
    the two windows a checkpoint-replay recovery must cover.
``crash_mid`` / ``hang``
    Fired from inside the session's step loop via the pop hook
    (:meth:`~repro.synthesis.session.SynthesisSession.set_pop_hook`):
    the worker dies, or sleeps ``hang_s``, a few pops into a slice —
    mid-slice work that must be replayed from the last checkpoint.
``spawn_fail``
    Restarting a dead worker fails, exercising restart backoff and — if
    every attempt fails — the pool's degrade to the thread backend.
``crash_on_cancel``
    The worker dies exactly while applying a cancel op — the
    cancel-vs-crash race: recovery must still end the request
    ``cancelled``, never ``failed`` or ``done``.

Arming: an injector is *armed* only while ``incarnation <
max_incarnation``.  Restarted workers get ``incarnation + 1``, so with
the default ``max_incarnation=1`` a deterministic plan like
``crash_before=1.0`` kills every worker exactly once and their
replacements run clean — the pattern every recovery test wants, without
crash loops.

Crashes are :class:`InjectedCrash`, a ``BaseException`` subclass on
purpose: the worker op loop converts *exceptions* into error outcomes
(that is the request-failure path), while an injected crash must escape
that net and kill the worker itself (``os._exit`` on the process tier, a
dead thread on the thread tier) so supervision — not error handling —
is what the test exercises.

``REPRO_FAULTS`` configures a plan from the environment as
comma-separated ``key=value`` pairs, e.g.
``REPRO_FAULTS="seed=7,crash_before=0.2,hang=0.05,hang_s=0.5"``.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, fields

#: Exit code a process worker dies with on an injected crash — distinct
#: from clean exit (0) and signal deaths (negative), so supervision
#: reports legibly which deaths were injected.
FAULT_EXITCODE = 57


class InjectedCrash(BaseException):
    """An injected worker death.  Deliberately *not* an ``Exception``:
    it must pass through the op loop's error-to-outcome net and kill the
    worker, so the supervision/recovery path is what gets tested."""


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative chaos schedule (see the module doc)."""

    seed: int = 0
    crash_before: float = 0.0   # worker dies before running a slice
    crash_mid: float = 0.0      # worker dies a few pops into a slice
    crash_after: float = 0.0    # worker dies after the slice, outcome lost
    hang: float = 0.0           # worker sleeps hang_s mid-slice
    hang_s: float = 0.2
    spawn_fail: float = 0.0     # worker restart fails
    crash_on_cancel: float = 0.0  # worker dies while applying a cancel
    max_incarnation: int = 1    # incarnations < this are armed

    def __post_init__(self) -> None:
        for name in ("crash_before", "crash_mid", "crash_after", "hang",
                     "spawn_fail", "crash_on_cancel"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        if self.hang_s < 0:
            raise ValueError(f"hang_s must be >= 0, got {self.hang_s!r}")
        if self.max_incarnation < 0:
            raise ValueError("max_incarnation must be >= 0")

    @property
    def any_pop_faults(self) -> bool:
        return self.crash_mid > 0 or self.hang > 0


_FLOAT_FIELDS = frozenset(
    f.name for f in fields(FaultPlan) if f.type == "float")
_INT_FIELDS = frozenset(f.name for f in fields(FaultPlan) if f.type == "int")


def parse_faults(spec: str | None) -> FaultPlan | None:
    """``"seed=7,crash_before=0.2"`` → :class:`FaultPlan` (None when the
    spec is empty/None — no injection)."""
    if spec is None or not spec.strip():
        return None
    kwargs: dict = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"fault spec item {item!r} is not key=value")
        if key in _INT_FIELDS:
            kwargs[key] = int(value)
        elif key in _FLOAT_FIELDS:
            kwargs[key] = float(value)
        else:
            known = sorted(_INT_FIELDS | _FLOAT_FIELDS)
            raise ValueError(f"unknown fault knob {key!r} (known: {known})")
    return FaultPlan(**kwargs)


def plan_from_env() -> FaultPlan | None:
    """The ``REPRO_FAULTS`` plan, or None when unset."""
    return parse_faults(os.environ.get("REPRO_FAULTS"))


class FaultInjector:
    """One worker incarnation's view of a :class:`FaultPlan`.

    Every decision is a pure function of ``(seed, worker_id,
    incarnation, site, n)`` where ``n`` counts draws at that site — so a
    replayed run (same plan, same op order per worker) injects the same
    faults, and a restarted worker (next incarnation) draws a fresh,
    equally deterministic stream instead of replaying its predecessor's
    crashes.
    """

    def __init__(self, plan: FaultPlan, worker_id: int,
                 incarnation: int = 0) -> None:
        self.plan = plan
        self.worker_id = worker_id
        self.incarnation = incarnation
        self.armed = incarnation < plan.max_incarnation
        self._counts: dict[str, int] = {}
        self._pop_mode: str | None = None
        self._pop_target = 0
        self._pop_count = 0

    # ------------------------------------------------------------- decisions
    def draw(self, site: str) -> float:
        """The next uniform [0, 1) draw for ``site`` (advances it)."""
        n = self._counts.get(site, 0) + 1
        self._counts[site] = n
        key = (f"{self.plan.seed}:{self.worker_id}:{self.incarnation}"
               f":{site}:{n}")
        digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0 ** 64

    def fires(self, site: str, rate: float) -> bool:
        if not self.armed or rate <= 0.0:
            return False
        return self.draw(site) < rate

    # ------------------------------------------------------- injection sites
    def slice_begin(self, session) -> None:
        """Called by the session host right before a slice executes."""
        if self.fires("crash_before", self.plan.crash_before):
            raise InjectedCrash(
                f"injected crash before slice (worker {self.worker_id}, "
                f"incarnation {self.incarnation})")
        self._pop_mode = None
        if self.armed and self.plan.any_pop_faults:
            if self.fires("hang", self.plan.hang):
                self._pop_mode = "hang"
            elif self.fires("crash_mid", self.plan.crash_mid):
                self._pop_mode = "crash"
        if self._pop_mode is not None:
            # A few pops in (1-4): genuinely mid-slice, so the replay
            # actually re-does lost work, yet always inside even the
            # smallest slice budget the tests use.
            self._pop_target = 1 + int(self.draw("pop_target") * 4)
            self._pop_count = 0
            session.set_pop_hook(self._on_pop)
        else:
            session.set_pop_hook(None)

    def slice_end(self) -> None:
        """Called after the slice ran, before its outcome ships."""
        if self.fires("crash_after", self.plan.crash_after):
            raise InjectedCrash(
                f"injected crash after slice (worker {self.worker_id}, "
                f"incarnation {self.incarnation})")

    def on_cancel(self) -> None:
        """Called while the worker applies a queued cancel op."""
        if self.fires("crash_on_cancel", self.plan.crash_on_cancel):
            raise InjectedCrash(
                f"injected crash during cancel (worker {self.worker_id}, "
                f"incarnation {self.incarnation})")

    def check_spawn(self) -> None:
        """Called by the coordinator before (re)spawning this worker."""
        if self.fires("spawn", self.plan.spawn_fail):
            raise OSError(
                f"injected spawn failure (worker {self.worker_id}, "
                f"incarnation {self.incarnation})")

    def _on_pop(self) -> None:
        if self._pop_mode is None:
            return
        self._pop_count += 1
        if self._pop_count < self._pop_target:
            return
        mode, self._pop_mode = self._pop_mode, None
        if mode == "crash":
            raise InjectedCrash(
                f"injected crash mid-slice (worker {self.worker_id}, "
                f"incarnation {self.incarnation}, pop {self._pop_count})")
        time.sleep(self.plan.hang_s)


def make_injector(plan: FaultPlan | None, worker_id: int,
                  incarnation: int) -> FaultInjector | None:
    """Injector for one worker incarnation, or None without a plan."""
    if plan is None:
        return None
    return FaultInjector(plan, worker_id, incarnation)
