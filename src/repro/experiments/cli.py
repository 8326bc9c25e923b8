"""Command-line entry point for the experiment harness.

Usage::

    python -m repro.experiments.cli validate          # check all 80 tasks
    python -m repro.experiments.cli summary           # suite statistics
    python -m repro.experiments.cli run [options]     # run the sweep
    python -m repro.experiments.cli fig12 [options]   # Figure 12 table
    python -m repro.experiments.cli fig13 [options]   # Figure 13 table
    python -m repro.experiments.cli report [options]  # Observations 1-2
    python -m repro.experiments.cli serve [options]   # tasks via the service

Options: ``--suite forum|tpcds``, ``--difficulty easy|hard``,
``--techniques provenance,value,type``,
``--workers N`` (shard the search across N worker processes),
``--easy-timeout S``, ``--hard-timeout S``, ``--tasks name1,name2``,
``--csv FILE``.

``serve`` drives the selected tasks concurrently through
:class:`repro.serve.SynthesisService` — the way to exercise the warm
pool from the command line.  Extra options: ``--pool-backend
auto|threads|processes`` (worker tier; ``REPRO_POOL_BACKEND`` overrides
the ``auto`` default), ``--pool-size N``, ``--slice-pops N``,
``--request-timeout S`` (per-request wall-clock budget, queueing
included), ``--max-requests N`` (admission bound; rejected submissions
back off per the service's ``retry_after_s`` hint with jitter) and
``--faults SPEC`` (deterministic chaos, e.g.
``seed=7,crash_before=1.0`` — same syntax as ``REPRO_FAULTS``).  The
final JSON blob includes ``health`` (per-worker liveness and recovery
counters) next to the pool telemetry.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.benchmarks import all_tasks, task_summary, validate_task
from repro.experiments.figures import fig12_table, fig13_table, results_csv
from repro.experiments.report import observation_report
from repro.experiments.runner import RunConfig, run_suite


def _select_tasks(args) -> list:
    tasks = list(all_tasks())
    if args.suite:
        tasks = [t for t in tasks if t.suite == args.suite]
    if args.difficulty:
        tasks = [t for t in tasks if t.difficulty == args.difficulty]
    if args.tasks:
        wanted = set(args.tasks.split(","))
        tasks = [t for t in tasks if t.name in wanted]
    return tasks


def build_run_config(args) -> RunConfig:
    """The one place CLI options become a sweep config."""
    return RunConfig(easy_timeout_s=args.easy_timeout,
                     hard_timeout_s=args.hard_timeout,
                     workers=args.workers)


def _run(args):
    tasks = _select_tasks(args)
    techniques = tuple(args.techniques.split(","))
    config = build_run_config(args)

    def progress(result):
        status = "solved" if result.solved else "timeout"
        print(f"[{result.technique:10s}] {result.task:42s} {status:8s} "
              f"{result.time_s:7.2f}s visited={result.visited}",
              file=sys.stderr, flush=True)

    return run_suite(tasks, techniques, config, progress=progress)


def _serve(args) -> int:
    """Run the selected tasks through the serving layer, concurrently."""
    import random

    from repro.experiments.runner import task_config
    from repro.serve import ServiceConfig, ServiceOverloaded, \
        SynthesisService, parse_faults
    from repro.synthesis import GroundTruthStop

    tasks = _select_tasks(args)
    techniques = tuple(args.techniques.split(","))
    run_config = build_run_config(args)
    max_requests = args.max_requests if args.max_requests is not None \
        else len(tasks) * len(techniques) or 1
    svc_config = ServiceConfig(
        pool_size=args.pool_size, max_requests=max_requests,
        slice_pops=args.slice_pops, pool_backend=args.pool_backend,
        default_timeout_s=args.request_timeout,
        faults=parse_faults(args.faults))

    async def admit(svc, task, technique):
        """Submit one request, honoring the service's backoff hint: an
        overloaded admission sleeps ``retry_after_s`` (jittered, so
        concurrent clients don't retry in lockstep) instead of failing
        the sweep."""
        while True:
            try:
                return svc.submit(task.tables, task.demonstration,
                                  task_config(task, run_config),
                                  stop=GroundTruthStop(task.ground_truth),
                                  technique=technique)
            except ServiceOverloaded as exc:
                await asyncio.sleep(
                    exc.retry_after_s * (0.5 + random.random()))

    async def drive() -> int:
        failures = 0
        async with SynthesisService(svc_config) as svc:
            async def one(task, technique):
                handle = await admit(svc, task, technique)
                result = await handle.result()
                return task, technique, handle, result

            outcomes = await asyncio.gather(
                *(one(task, technique)
                  for task in tasks for technique in techniques))
            for task, technique, handle, result in outcomes:
                solved = result.target is not None
                failures += not solved
                retried = f" retries={handle.retries}" \
                    if handle.retries else ""
                print(f"[{technique:10s}] {task.name:42s} "
                      f"{'solved' if solved else handle.status:8s} "
                      f"{result.stats.elapsed_s:7.2f}s "
                      f"visited={result.stats.visited} "
                      f"worker={handle.worker_id}{retried}", flush=True)
            telemetry = svc.pool.telemetry()
            health = svc.health()
        print(json.dumps({"pool": telemetry, "health": health}, indent=2))
        return 1 if failures else 0

    return asyncio.run(drive())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.experiments")
    parser.add_argument("command", choices=(
        "validate", "summary", "run", "fig12", "fig13", "report", "serve"))
    parser.add_argument("--suite", choices=("forum", "tpcds"))
    parser.add_argument("--difficulty", choices=("easy", "hard"))
    parser.add_argument("--tasks", help="comma-separated task names")
    parser.add_argument("--techniques", default="provenance,value,type")
    parser.add_argument("--workers", type=int, default=1,
                        help="shard the search across N worker processes "
                             "(default 1 = serial; results are identical)")
    parser.add_argument("--easy-timeout", type=float,
                        default=RunConfig().easy_timeout_s)
    parser.add_argument("--hard-timeout", type=float,
                        default=RunConfig().hard_timeout_s)
    parser.add_argument("--csv", help="write raw per-run results to FILE")
    parser.add_argument("--pool-backend",
                        choices=("auto", "threads", "processes"),
                        default=None,
                        help="serve: worker tier (default 'auto' = "
                             "processes when --pool-size > 1; "
                             "REPRO_POOL_BACKEND overrides 'auto')")
    parser.add_argument("--pool-size", type=int, default=2,
                        help="serve: warm pool workers (default 2)")
    parser.add_argument("--slice-pops", type=int, default=500,
                        help="serve: preemption granularity, pops per "
                             "slice (default 500)")
    parser.add_argument("--request-timeout", type=float, default=None,
                        help="serve: per-request wall-clock budget in "
                             "seconds, queueing included")
    parser.add_argument("--max-requests", type=int, default=None,
                        help="serve: live-request admission bound "
                             "(default: one slot per submitted request); "
                             "rejected submissions back off per the "
                             "service's retry_after_s hint")
    parser.add_argument("--faults", default=None,
                        help="serve: deterministic fault-injection plan, "
                             "e.g. 'seed=7,crash_before=1.0' (also via "
                             "REPRO_FAULTS); chaos-tests the recovery "
                             "path from the command line")
    args = parser.parse_args(argv)

    if args.command == "serve":
        return _serve(args)

    if args.command == "validate":
        for task in _select_tasks(args):
            validate_task(task)
            print(f"ok {task.name}")
        return 0

    if args.command == "summary":
        print(json.dumps(task_summary(), indent=2))
        return 0

    results = _run(args)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(results_csv(results))
    if args.command == "fig12":
        print(fig12_table(results))
    elif args.command == "fig13":
        print(fig13_table(results))
    else:
        print(observation_report(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
