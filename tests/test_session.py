"""Resumable-session tests: the determinism pledge under preemption.

A :class:`~repro.synthesis.session.SynthesisSession` driven in slices,
pickled mid-run, checkpointed and resumed — or re-dispatched onto shard
workers — must produce byte-identical ranked queries and ``SearchStats``
to the uninterrupted serial run.  Every registry task runs through the
checkpoint/resume round-trip, serial and ``workers=4`` (the acceptance
matrix), under the same visited-query budget discipline as the parallel
differential suite.
"""

import pickle

import pytest

from repro.benchmarks import all_tasks
from repro.engine import make_engine
from repro.parallel import NO_LIMIT, CancelToken
from repro.synthesis import (
    GroundTruthStop,
    SynthesisConfig,
    SynthesisSession,
    Synthesizer,
)
from repro.synthesis.enumerator import _Family

#: Mirrors the parallel differential budget: deterministic prefixes on
#: every machine, the whole sweep in tens of seconds.
VISITED_BUDGET = 400

TASKS = all_tasks()

#: Stats that must be byte-identical (elapsed_s is wall clock).
DETERMINISTIC_FIELDS = ("visited", "pruned", "expanded", "concrete_checked",
                        "consistent_found", "timed_out", "skeletons",
                        "max_skeleton_size")

#: Small subset for the per-backend and edge-case legs.
FOCUS_TASKS = [t for t in TASKS if t.name in (
    "fe01_total_sales_per_region",
    "fe10_salary_rank_within_dept",
    "fe20_share_of_region_total",
    "fh02_region_quarter_share",
)]

#: A hard task whose search space far outlasts VISITED_BUDGET — the one
#: to interrupt when a test needs the session still mid-flight.
HARD_TASK = next(t for t in TASKS if t.name == "fh02_region_quarter_share")


def _config(task, budget=VISITED_BUDGET, **overrides):
    return task.config.replace(timeout_s=None, max_visited=budget,
                               **overrides)


def _baseline(task, config, stop=None):
    """The uninterrupted serial reference run."""
    return Synthesizer("provenance", config).run(
        task.tables, task.demonstration, stop)


def _session(task, config, stop=None):
    return SynthesisSession(task.tables, task.demonstration, config,
                            stop=stop)


def _assert_identical(reference, result):
    assert result.queries == reference.queries
    for field in DETERMINISTIC_FIELDS:
        assert getattr(result.stats, field) == \
            getattr(reference.stats, field), field
    assert result.target == reference.target
    assert result.target_rank == reference.target_rank


@pytest.mark.parametrize("task", TASKS, ids=[t.name for t in TASKS])
def test_checkpoint_resume_identical_serial_and_sharded(task):
    """The acceptance matrix: a session stepped partway, checkpointed,
    resumed and driven to completion — serially or re-dispatched onto 4
    shard workers — matches the uninterrupted run byte-for-byte."""
    config = _config(task)
    stop = GroundTruthStop(task.ground_truth)
    reference = _baseline(task, config, stop)

    # Serial: interrupt mid-run, checkpoint, resume, finish in odd slices.
    session = _session(task, config, stop)
    session.step(max_pops=137)
    resumed = SynthesisSession.resume(session.checkpoint())
    while not resumed.done:
        resumed.step(max_pops=61)
    _assert_identical(reference, resumed.result())

    # Sharded: the same interrupted state re-dispatched onto warm-start
    # shard workers at a round boundary.
    sharded_cfg = _config(task, workers=4, parallel_executor="serial")
    session4 = SynthesisSession.resume(session.checkpoint())
    session4.config = sharded_cfg
    result4 = session4.run()
    _assert_identical(reference, result4)


@pytest.mark.parametrize("backend", ("row", "columnar"))
def test_checkpoint_resume_identical_on_every_backend(backend):
    """The round-trip holds on both engines, each injected into the
    reference run, the session and its resumed copy."""
    for task in FOCUS_TASKS:
        config = _config(task)
        reference = Synthesizer("provenance", config,
                                engine=make_engine(backend)).run(
            task.tables, task.demonstration)
        session = _session(task, config)
        session.attach_engine(make_engine(backend))
        session.step(max_pops=83)
        resumed = SynthesisSession.resume(session.checkpoint())
        resumed.attach_engine(make_engine(backend))
        while not resumed.done:
            resumed.step(max_pops=47)
        _assert_identical(reference, resumed.result())


def test_pickle_round_trip_mid_run():
    """A mid-run session is plain-pickle serializable; the copy carries
    the full search state and continues independently of the original."""
    task = HARD_TASK
    config = _config(task, top_n=10**6)      # budget-bound, not top_n-bound
    session = _session(task, config)
    session.step(max_pops=50)
    blob = pickle.dumps(session)
    assert isinstance(blob, bytes)
    copy = pickle.loads(blob)
    assert isinstance(copy, SynthesisSession)
    assert copy.status == "active"
    assert copy.stats.as_dict() == session.stats.as_dict()
    # The two now evolve independently...
    copy.step(max_pops=10)
    assert copy.stats.visited == session.stats.visited + 10
    # ...and both still converge to the same final state.
    while not copy.done:
        copy.step(max_pops=25)
    while not session.done:
        session.step(max_pops=40)
    _assert_identical(session.result(), copy.result())


def test_checkpoint_is_side_effect_free_and_idempotent():
    """Satellite: a checkpoint (even one taken mid sibling-family
    prefetch) must not perturb the live session's engine accounting —
    the live run's merged EngineStats equal the uninterrupted run's
    exactly, with ``consistency_checks`` the sentinel counter."""
    task = HARD_TASK
    config = _config(task, budget=2000, top_n=10**6)
    reference = _baseline(task, config)
    ref_engine = reference.engine_stats.as_dict()

    # Cut points sweep across sibling-family prefetch boundaries (families
    # are batch-warmed at expansion time; pops 5..80 land before, inside
    # and after warmed families).
    for cut in (5, 17, 40, 80):
        session = _session(task, config)
        session.step(max_pops=cut)
        pre_checks = session.engine_stats().consistency_checks
        blob = session.checkpoint()
        assert session.checkpoint() == blob          # idempotent
        assert session.engine_stats().consistency_checks == pre_checks

        # The live session continues as if no checkpoint was taken.
        while not session.done:
            session.step(max_pops=13)
        live = session.result()
        _assert_identical(reference, live)
        assert live.engine_stats.as_dict() == ref_engine

        # The resumed session rebuilds caches (fresh engine), so its
        # *traffic* may exceed the warm run's — but never double-counts
        # the prefix the blob already carries, and results stay identical.
        resumed = SynthesisSession.resume(blob)
        assert resumed.engine_stats().consistency_checks == pre_checks
        while not resumed.done:
            resumed.step(max_pops=29)
        _assert_identical(reference, resumed.result())
        assert resumed.result().engine_stats.consistency_checks >= pre_checks


def test_cancellation_mid_step():
    """cancel() issued from inside a step (here via the stop predicate,
    the shape a service timeout takes) halts at the next pop; the partial
    result is still ranked and the session reports cancelled, not done."""
    task = HARD_TASK
    config = _config(task, budget=2000, top_n=10**6)
    holder = {}
    calls = {"n": 0}

    def cancelling_probe(query):
        calls["n"] += 1
        if calls["n"] >= 2:
            holder["session"].cancel()
        return False                     # never a target: pure cancellation

    session = _session(task, config, stop=cancelling_probe)
    holder["session"] = session
    report = session.step()              # unbounded — cancel cuts it short
    assert session.status == "cancelled"
    assert report.status == "cancelled" and report.done
    partial = session.result()
    assert partial.stats.consistent_found >= 2
    assert partial.stats.visited < 2000          # stopped well before budget
    assert partial.target is None
    # A cancelled session refuses further work but keeps its result.
    report = session.step(max_pops=10)
    assert report.pops == 0 and report.status == "cancelled"


def test_cancel_before_start_and_after_done():
    task = FOCUS_TASKS[0]
    config = _config(task, budget=50)
    session = _session(task, config)
    session.cancel()
    report = session.step()
    assert report.pops == 0 and session.status == "cancelled"

    finished = _session(task, config)
    finished.step()
    assert finished.done
    finished.cancel()                   # harmless after completion
    assert finished.result() is not None


def test_exhausted_budget_resume_does_not_dispatch():
    """A session whose visited budget is already consumed must end with
    the serial loop's timeout semantics on run(), even under workers>1 —
    the zero-pop budget check fires before any shard dispatch."""
    task = HARD_TASK

    # Step under a loose config, then tighten max_visited to exactly what
    # was consumed: the session is ACTIVE with zero budget left.  (visited
    # includes admission-time skeleton prunes, so derive the budget from
    # the counter, not the pop count.)
    session = _session(task, _config(task, budget=10**6, top_n=10**6))
    session.step(max_pops=60)
    assert not session.done
    consumed = session.stats.visited
    reference = _baseline(task, _config(task, budget=consumed, top_n=10**6))
    session.config = _config(task, budget=consumed, top_n=10**6, workers=4,
                             parallel_executor="serial")
    result = session.run()
    _assert_identical(reference, result)
    assert result.stats.timed_out


def test_prebuilt_abstraction_session_cannot_checkpoint():
    from repro.abstraction.base import make_abstraction

    task = FOCUS_TASKS[0]
    session = SynthesisSession(
        task.tables, task.demonstration, _config(task),
        abstraction=make_abstraction("none"))
    session.step(max_pops=5)
    with pytest.raises(TypeError, match="cannot be pickled"):
        session.checkpoint()


def test_stale_checkpoint_version_rejected():
    task = FOCUS_TASKS[0]
    session = _session(task, _config(task))
    session.step(max_pops=5)
    state = session.__getstate__()
    state["version"] = 999
    hollow = SynthesisSession.__new__(SynthesisSession)
    with pytest.raises(ValueError, match="checkpoint version"):
        hollow.__setstate__(state)


def test_checkpoint_version_3_blob_refused():
    """Version 3 pickled eager stacks; its worklists hold no families."""
    task = FOCUS_TASKS[0]
    session = _session(task, _config(task))
    session.step(max_pops=5)
    state = session.__getstate__()
    state["version"] = 3
    with pytest.raises(ValueError, match="checkpoint version 3"):
        SynthesisSession.resume(pickle.dumps(state))


def _mid_family(session):
    """Whether some lane's stack holds a partly consumed family."""
    return any(type(entry) is _Family and entry.cursor > 0
               for stack in session._worklist._stacks.values()
               for entry in stack)


@pytest.mark.parametrize("stop", (False, True), ids=("top_n", "gt"))
def test_checkpoint_mid_family_resumes_identically(stop):
    """A checkpoint taken while a sibling family is partly popped resumes
    to the uninterrupted run's ranked queries and counters."""
    task = HARD_TASK
    config = _config(task, top_n=10**6)
    stop = GroundTruthStop(task.ground_truth) if stop else None
    reference = _baseline(task, config, stop)
    session = _session(task, config, stop)
    session.start()
    while not _mid_family(session):
        session.step(max_pops=1)
    assert not session.done
    resumed = SynthesisSession.resume(session.checkpoint())
    assert _mid_family(resumed)
    assert resumed._worklist.export_lanes() == \
        session._worklist.export_lanes()
    while not resumed.done:
        resumed.step(max_pops=29)
    _assert_identical(reference, resumed.result())


def test_step_streams_new_queries_in_discovery_order():
    task = FOCUS_TASKS[0]
    config = _config(task, budget=2000, top_n=10)
    reference = _baseline(task, config)
    session = _session(task, config)
    streamed = []
    while not session.done:
        streamed.extend(session.step(max_pops=25).new_queries)
    # Discovery order; result() ranks.  Same multiset either way.
    assert sorted(map(repr, streamed)) == \
        sorted(map(repr, reference.queries))
    assert session.result().queries == reference.queries


def test_session_reports_run_scoped_engine_delta():
    """A warm engine handed to a session must not leak other sessions'
    traffic into its engine_stats (the attach-time baseline delta)."""
    from repro.engine.base import make_engine
    from repro.synthesis.synthesizer import build_abstraction

    task = FOCUS_TASKS[0]
    config = _config(task, budget=300)
    engine = make_engine()
    abstraction = build_abstraction("provenance", config)
    abstraction.bind_engine(engine)

    first = _session(task, config)
    first.attach_engine(engine, abstraction)
    first.step()
    first_checks = first.result().engine_stats.consistency_checks

    second = _session(task, config)
    second.attach_engine(engine, abstraction)
    second.step()
    stats = second.result().engine_stats
    # The warm engine served most checks from its verdict cache; the
    # second session's recorded traffic is its own delta, not the total.
    assert stats.consistency_checks <= first_checks
    assert engine.stats.consistency_checks >= first_checks


def test_synthesizer_session_entrypoint_matches_run():
    task = FOCUS_TASKS[0]
    config = _config(task)
    stop = GroundTruthStop(task.ground_truth)
    reference = _baseline(task, config, stop)
    synthesizer = Synthesizer("provenance", config)
    session = synthesizer.session(task.tables, task.demonstration, stop)
    _assert_identical(reference, session.run())


def test_workers_require_named_abstraction():
    task = FOCUS_TASKS[0]
    config = SynthesisConfig(workers=2, parallel_executor="serial")
    from repro.abstraction.base import make_abstraction
    session = SynthesisSession(task.tables, task.demonstration, config,
                               abstraction=make_abstraction("none"))
    with pytest.raises(ValueError, match="requires the abstraction"):
        session.run()


@pytest.mark.parametrize("workers", [1, 2])
def test_unknown_technique_rejected_at_construction(workers):
    """A bad technique name fails fast with a typed error, before any
    seeding or shard dispatch."""
    task = FOCUS_TASKS[0]
    config = _config(task).replace(workers=workers,
                                   parallel_executor="serial")
    with pytest.raises(ValueError, match="unknown abstraction 'bogus'"):
        SynthesisSession(task.tables, task.demonstration, config,
                         abstraction="bogus")


def test_stripped_checkpoint_resumes_with_supplied_env():
    """``checkpoint(strip_env=True)`` is the serving tier's replay-point
    format: the blob carries search state only, and the service, which
    holds the tables, re-attaches them at resume.  Resuming with the
    (equal) env is byte-identical to the env-carrying round trip."""
    task = HARD_TASK
    config = _config(task)
    session = _session(task, config)
    session.step(max_pops=137)

    full = session.checkpoint()
    lean = session.checkpoint(strip_env=True)
    assert len(lean) < len(full)        # the tables dominate the blob

    with pytest.raises(ValueError, match="env"):
        SynthesisSession.resume(lean)

    reference = SynthesisSession.resume(full).run()
    resumed = SynthesisSession.resume(lean, env=session.env).run()
    _assert_identical(reference, resumed)
    # strip_env is side-effect free: the live session kept its env.
    assert session.env is not None
    _assert_identical(reference, session.run())


class _CountingToken:
    """A cancel token that reads cancelled (limit 0) from its 25th poll."""

    def __init__(self):
        self.polls = 0

    def limit(self):
        self.polls += 1
        return 0 if self.polls >= 25 else NO_LIMIT

    def propose(self, round_no):
        pass


def test_cancel_token_polled_every_pop():
    """The process tier cancels through ``set_cancel_token`` — a round
    limit the step loop polls once per pop, so a cross-process cancel
    lands mid-slice without waiting for the slice boundary."""
    task = HARD_TASK
    session = _session(task, _config(task, budget=10**6, top_n=10**6))
    token = _CountingToken()

    session.set_cancel_token(token)
    report = session.step()              # unbounded — the token cuts it off
    assert session.status == "cancelled"
    assert report.done and report.status == "cancelled"
    assert session.stats.visited < 10**6
    assert token.polls >= 25

    # The token is session-local plumbing: it never crosses a pickle
    # boundary (a resumed copy polls nothing and runs to its budget).
    fresh = _session(task, _config(task, budget=60))
    cancelled = CancelToken()
    cancelled.propose(0)
    fresh.set_cancel_token(cancelled)
    clone = SynthesisSession.resume(fresh.checkpoint())
    assert clone._cancel_token is None
    clone.run()
    assert clone.status != "cancelled"
