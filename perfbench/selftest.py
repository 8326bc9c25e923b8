"""The benchmark's own tests: its checks must catch what they promise.

    python3 -m pytest perfbench/selftest.py -q

A corrupted digest, a wrong target and a leaked shared-memory segment
must each count as a failure; a smoke-size run of the real command must
come out clean and print every metric.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import procs  # noqa: E402
import run as bench  # noqa: E402
from child import quantile, tail_percentile  # noqa: E402
from specs import WORKLOADS  # noqa: E402


def smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_run_is_clean_and_prints_every_end_to_end_metric():
    result = smoke("solve-provenance", 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_traced_smoke_run_prints_every_per_layer_metric():
    result = smoke("solve-type", 1)
    assert result["correct"]
    assert set(result["metrics"]) == set(bench.PER_LAYER_UNITS)
    assert result["metrics"]["engine.calls"]["value"] > 0
    assert result["metrics"]["abstraction.calls"]["value"] > 0


def _smoke_runner():
    import workload

    runner = workload.Runner(WORKLOADS["solve-provenance"], seed=5,
                             workers=1, smoke=True)
    runner.setup()
    runner.measure(1)
    return runner


def test_corrupted_digest_counts_as_failed():
    from checks import load_golden

    runner = _smoke_runner()
    golden = load_golden()
    assert not any(r["failed"] for r in runner.check(golden))
    victim = runner.results[0][0]
    key = "|".join(str(victim[k]) for k in
                   ("task", "technique", "budget", "mode"))
    corrupted = dict(golden, **{key: "0" * 20})
    records = runner.check(corrupted)
    assert [r["failed"] for r in records] == \
        [r is victim for r in records]
    assert not victim["digest_ok"]


def test_wrong_target_counts_as_failed_even_with_a_matching_digest():
    from checks import OracleCheck, check_operation, op_key, result_digest
    from repro.lang import ast

    runner = _smoke_runner()
    record, result, task = next(kept for kept in runner.results
                                if kept[1].target is not None)
    # A query with another output: one of the task's input tables.
    result.target = ast.TableRef(task.tables[0].name)
    golden = {op_key(task.name, record["technique"], record["budget"],
                     record["mode"]): result_digest(result, record["mode"])}
    with OracleCheck() as oracle:
        check_operation(record, result, task, golden, oracle)
    assert record["digest_ok"]
    assert record["oracle"] == "failed"
    assert record["failed"]


def test_leaked_segment_counts_as_failed():
    before = procs.shm_segments()
    name = f"reproshm_selftest_{os.getpid():x}"
    segment = shared_memory.SharedMemory(name=name, create=True, size=64)
    # Forget it the way a leaking program would: nobody will unlink it.
    resource_tracker.unregister(segment._name, "shared_memory")
    segment.close()
    try:
        leaked = sorted(procs.shm_segments() - before)
        assert leaked == [name]
        out = {"failed": 0, "attempted": 3, "leaked_segments": leaked,
               "tracker_reclaimed": 0, "leaked_processes": []}
        assert bench.verdict(out) == (False, 3, 1)
    finally:
        procs.reclaim_segments([name])
    assert name not in procs.shm_segments()


def test_segments_the_resource_tracker_reclaimed_count_as_leaked():
    text = ("UserWarning: resource_tracker: There appear to be 2 leaked "
            "shared_memory objects to clean up at shutdown")
    assert procs.tracker_reclaimed(text) == 2
    out = {"failed": 0, "attempted": 3, "leaked_segments": [],
           "tracker_reclaimed": 2, "leaked_processes": []}
    assert bench.verdict(out) == (False, 3, 2)


def test_leaked_child_process_is_found_and_stopped():
    orphan = subprocess.Popen([sys.executable, "-c",
                               "import time; time.sleep(60)"])
    leaked = procs.reap_leaked_children(grace_s=0.2)
    assert orphan.pid in leaked
    assert orphan.poll() is not None or not procs._alive(orphan.pid)


def test_tail_percentile_leaves_ten_samples_beyond():
    for n, pct in ((37, 72), (74, 86), (24, 58), (11, 9)):
        assert tail_percentile(list(range(n)))[0] == pct
    assert tail_percentile([3.0, 1.0, 2.0])[0] == 50


def test_quantile_is_harrell_davis():
    assert abs(quantile(list(range(37)), 0.5) - 18.0) < 1e-6
    assert abs(quantile([1.0, 2.0, 4.0], 0.5) - 61 / 27) < 1e-6
    # Two clusters: the estimate moves smoothly as one sample crosses.
    low = [1.0] * 18 + [1.0, 2.0] + [2.0] * 17
    high = [1.0] * 18 + [1.1, 2.0] + [2.0] * 17
    assert abs(quantile(high, 0.5) - quantile(low, 0.5)) < 0.02
