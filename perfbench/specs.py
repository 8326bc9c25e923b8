"""Workload definitions: plain data, importable without the program.

Every workload is a fixed list of operations — one per selected task and
pass — whose work is bounded by a pop budget (``max_visited``), so wall
time is the only thing that varies between runs.  The seed only permutes
the order in which the operations run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


#: Where runs leave stderr captures, trace-event files and layer tables.
OUT = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "serial" | "shard" | "serve"
    technique: str       # abstraction technique name
    tasks: str           # "hard" (forum-hard + TPC-DS) | "easy2" (fe20-fe43)
    budget: int          # max_visited per operation
    mode: str            # "experiment" (stop at q_gt) | "interactive" (top_n)
    passes: int          # seeded passes over the task list per run
    workers: int = 1     # shard workers / pool workers and their clients


# The rationale for each workload is its "why" in BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("solve-provenance", "serial", "provenance", "hard", 600,
             "experiment", 2),
    Workload("solve-type", "serial", "type", "easy2", 2000, "experiment", 4),
    # A sharded operation costs ~0.4 s of process start-up and merging
    # whatever its budget, so two passes fit in a run only below 600 pops.
    Workload("shard-provenance", "shard", "provenance", "hard", 400,
             "experiment", 2, workers=2),
    Workload("serve-interactive", "serve", "provenance", "hard", 600,
             "interactive", 2, workers=2),
)}

#: Operations in smoke mode (the benchmark's own tests).
SMOKE_TASKS = 3


def worker_count(workload: Workload, nproc: int) -> int:
    """Workers and clients never exceed the host's cores."""
    return max(1, min(workload.workers, nproc))
