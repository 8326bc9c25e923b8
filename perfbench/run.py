"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload solve-provenance --seed 1 \
        --seconds 20 --trace 0

Runs from the root of a source checkout.  This process never imports the
program; it starts fresh interpreters (``child.py``) and watches them:

1. set-up: ``PROBES`` fresh starts, each timed from process launch to
   ``READY`` (imports, registry, inputs, warm-up operation, and for the
   served workload the service with every pool worker warm); the first is
   discarded and ``setup_s`` is the median of the rest plus the measuring
   process's own start;
2. measurement: the measuring process runs the workload's seeded passes,
   checks every operation's output and reports; meanwhile this process
   samples the memory of its whole process tree;
3. leak check: no ``/dev/shm/reproshm_*`` segment and no child process
   may outlive the run, and no traceback may reach stderr.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (and the tracing overhead) with
``--trace 1``.  ``--smoke`` runs a few operations with one probe, for
the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import procs  # noqa: E402
from specs import OUT, WORKLOADS  # noqa: E402

#: Fresh starts timed for ``setup_s`` besides the measuring process; the
#: first one (which also compiles bytecode) is discarded.
PROBES = 4
#: Hard limits on one start and on the measuring process (the run must
#: end within 180 s).
SETUP_TIMEOUT_S = 20.0
MEASURE_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s",
    "latency_tail_s": "s", "first_query_p50_s": "s", "solved_frac": "frac",
    "passed_frac": "frac", "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "synthesis.session.self_s": "s", "synthesis.session.pops": "count",
    "synthesis.session.pops_per_s": "1/s",
    "synthesis.skeletons.self_s": "s", "synthesis.skeletons.count": "count",
    "synthesis.skeletons.shape_pruned": "count",
    "abstraction.self_s": "s", "abstraction.calls": "count",
    "abstraction.prune_ratio": "ratio",
    "synthesis.domains.self_s": "s", "synthesis.domains.calls": "count",
    "synthesis.domains.mean_width": "count",
    "provenance.incremental.self_s": "s",
    "provenance.incremental.calls": "count",
    "provenance.incremental.hit_rate": "ratio",
    "provenance.incremental.col_prune_rate": "ratio",
    "engine.self_s": "s", "engine.calls": "count",
    "engine.concrete_hit_rate": "ratio", "engine.tracking_hit_rate": "ratio",
    "synthesis.stop.self_s": "s", "synthesis.stop.calls": "count",
    "parallel.overhead_s": "s", "parallel.overshoot_ratio": "ratio",
    "parallel.shm_bytes_shipped": "bytes",
    "parallel.cross_shard_hits": "count",
    "serve.submit_s": "s", "serve.overhead_p50_s": "s",
    "serve.warm_hit_rate": "ratio", "serve.slices_per_request": "count",
    "serve.retries": "count",
    "trace.untraced_ops_per_s": "1/s", "trace.traced_ops_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


#: Where ``first_query_p50_s`` sees the first consistent query; when an
#: operation finds none, its first response is the end of the search.
FIRST_QUERY = {
    "serial": "first consistent query, seen by the stop predicate",
    "shard": "the merged result (shard workers are opaque)",
    "serve": "first streamed candidate",
}


class RunError(RuntimeError):
    """The run could not produce a result (no result line is printed)."""


def pinned_env() -> dict[str, str]:
    """The children's environment: no ``REPRO_*`` override (shm, pool
    backend, start method, faults, timeouts), fixed hashing, one BLAS
    thread, and bytecode written so later starts load it compiled."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def source_id() -> str:
    """The commit when the checkout is a git repository, else a digest of
    the program's source files."""
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10)
            if done.returncode == 0:
                return done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def start(cmd: list[str], env: dict, stderr) -> tuple[subprocess.Popen,
                                                       float]:
    """Launch a child and time it until it reports ``READY``."""
    began = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr,
                            env=env, cwd=ROOT, text=True)
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    setup = time.perf_counter() - began
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise RunError(f"child did not get ready: {line.strip()!r}")
    return proc, setup


def run(args) -> dict:
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-t{args.trace}"
    env = pinned_env()
    base = [sys.executable, str(HERE / "child.py"),
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        base.append("--smoke")
    segments_before = procs.shm_segments()
    stderr_path = OUT / f"stderr-{tag}.txt"
    with open(stderr_path, "w") as stderr:
        samples = []
        for _ in range(1 if args.smoke else PROBES):
            proc, setup = start(base + ["--role", "probe"], env, stderr)
            try:
                proc.communicate(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise RunError("set-up probe did not exit") from None
            if proc.returncode != 0:
                raise RunError(f"set-up probe exited {proc.returncode}")
            samples.append(setup)
        steal_before = procs.cpu_times()
        measure_cmd = base + ["--role", "measure", "--trace", str(args.trace)]
        proc, setup = start(measure_cmd, env, stderr)
        samples.append(setup)
        try:
            with procs.TreeMemorySampler(proc.pid) as memory:
                stdout, _ = proc.communicate(timeout=MEASURE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunError("measuring process timed out") from None
        steal = procs.steal_share(steal_before, procs.cpu_times())
    leaked_procs = procs.reap_leaked_children()
    leaked_segments = sorted(procs.shm_segments() - segments_before)
    procs.reclaim_segments(leaked_segments)
    stderr_text = stderr_path.read_text()
    if proc.returncode != 0:
        sys.stderr.write(stderr_text)
        raise RunError(f"measuring process exited {proc.returncode}")
    results = [line for line in stdout.splitlines()
               if line.startswith("RESULT ")]
    if not results:
        raise RunError("measuring process printed no result")
    out = json.loads(results[-1][len("RESULT "):])
    out.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        setup_samples=samples, setup_s=statistics.median(samples[1:]),
        peak_rss_mb=memory.peak_kb / 1024, steal_share=steal,
        leaked_segments=leaked_segments, leaked_processes=leaked_procs,
        tracebacks=procs.count_tracebacks(stderr_text),
        tracker_reclaimed=procs.tracker_reclaimed(stderr_text),
        source=source_id())
    return out


def verdict(out: dict) -> tuple[bool, int, int]:
    """(correct, attempted, failed): failed operations plus one failure
    per leaked segment and leaked process.  Tracebacks are reported, not
    counted as failures."""
    run_failures = (len(out["leaked_segments"]) + out["tracker_reclaimed"]
                    + len(out["leaked_processes"]))
    failed = out["failed"] + run_failures
    return failed == 0, out["attempted"], failed


def metrics(out: dict, trace: int) -> dict:
    if trace:
        values = out["layers"]
        units = PER_LAYER_UNITS
    else:
        e2e = out["end_to_end"]
        _, attempted, failed = verdict(out)
        values = {
            "setup_s": out["setup_s"], "ops_per_s": e2e["ops_per_s"],
            "latency_p50_s": e2e["latency_p50_s"],
            "latency_tail_s": e2e["latency_tail_s"],
            "first_query_p50_s": e2e["first_query_p50_s"],
            "solved_frac": e2e["solved_frac"],
            "passed_frac": max(0, attempted - failed) / attempted,
            "peak_rss_mb": out["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def report(out: dict) -> list[str]:
    """Human-readable lines printed before the result."""
    e2e = out["end_to_end"]
    env = out["env"]
    kind = WORKLOADS[out["workload"]].kind
    lines = [
        f"workload {out['workload']} seed {out['seed']} trace {out['trace']}"
        f" source {out['source']}",
        f"env engine={env['engine_backend']} numpy={env['numpy']} "
        f"start_method={env['start_method']} pool={env['pool_backend']} "
        f"workers={env['workers']} nproc={env['nproc']} "
        f"python={env['python']} cpu_steal={out['steal_share']:.2%}",
        f"setup_s median {out['setup_s']:.4f} of "
        + ", ".join(f"{s:.4f}" for s in out["setup_samples"][1:])
        + f" (discarded {out['setup_samples'][0]:.4f})",
        f"ops {e2e['ops']}  ops_per_s {e2e['ops_per_s']:.4f}  "
        f"latency p50 {e2e['latency_p50_s']:.4f} s  "
        f"p{e2e['tail_percentile']} {e2e['latency_tail_s']:.4f} s "
        f"({e2e['samples']} samples)",
        f"first_query_p50_s {e2e['first_query_p50_s']:.4f} "
        f"({e2e['samples']} samples; {FIRST_QUERY[kind]})  "
        f"solved_frac {e2e['solved_frac']:.4f}",
        f"checks: failed_ops {out['failed']} of {out['attempted']}  "
        f"failed_frac {out['failed'] / out['attempted']:.4f}  "
        f"oracle passed {e2e['oracle_passed']} unchecked "
        f"{e2e['unchecked_targets']}",
        *(f"failed op {f['op']} {f['task']}: digest_ok={f['digest_ok']} "
          f"oracle={f['oracle']}" for f in out["failures"]),
        f"leaks: segments {out['leaked_segments']} (reclaimed by the "
        f"resource tracker: {out['tracker_reclaimed']}) processes "
        f"{out['leaked_processes']}; tracebacks on stderr "
        f"{out['tracebacks']}",
        f"peak_rss_mb {out['peak_rss_mb']:.1f} (process tree)",
    ]
    if out["trace"]:
        layers = out["layers"]
        lines.append(
            f"tracing overhead: untraced ops_per_s "
            f"{layers['trace.untraced_ops_per_s']:.4f}, traced "
            f"{layers['trace.traced_ops_per_s']:.4f} "
            f"(x{layers['trace.overhead_ratio']:.3f})")
        lines.extend(layer_table_lines(out["layer_table"]))
        lines.append(f"trace events: {out['trace_file']} "
                     f"({out['trace_events']} spans)")
    return lines


def layer_table_lines(table: dict) -> list[str]:
    """Per-layer self time, share of traced in-process time, and spans."""
    total = sum(row["self_s"] for row in table.values()) or 1.0
    lines = [f"{'layer':26s} {'self_s':>10s} {'share':>7s} {'spans':>9s}"]
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{layer:26s} {row['self_s']:10.4f} "
                     f"{row['self_s'] / total:7.1%} {row['spans']:9d}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="nominal run length; the work per run is "
                             "fixed by the workload's passes and budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    procs.become_subreaper()
    procs.fix_address_layout()
    try:
        out = run(args)
    except RunError as err:
        procs.reap_leaked_children()
        print(f"error: {err}", file=sys.stderr)
        return 1
    correct, attempted, failed = verdict(out)
    lines = report(out)
    if out["trace"]:
        tag = f"{out['workload']}-{out['seed']}"
        (OUT / f"layers-{tag}.txt").write_text("\n".join(lines) + "\n")
        with open(OUT / f"layers-{tag}.json", "w") as handle:
            json.dump({"layers": out["layers"],
                       "layer_table": out["layer_table"]}, handle, indent=1)
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics(out, args.trace)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
