"""Record the serial reference digests every workload is checked against.

    PYTHONPATH=src python3 perfbench/make_golden.py

Runs each workload's operations once on the serial path (one process, no
sharding, no service) and writes ``golden.json``.  Sharded and served
operations must reproduce these digests byte for byte.  Regenerate only
when the program's search results are meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import repro.api as api  # noqa: E402
from checks import GOLDEN_PATH, op_key, result_digest  # noqa: E402
from specs import WORKLOADS  # noqa: E402
from workload import select_tasks  # noqa: E402


def serial_result(task, workload):
    config = task.config.replace(max_visited=workload.budget, workers=1)
    stop = api.GroundTruthStop(task.ground_truth) \
        if workload.mode == "experiment" else None
    return api.Synthesizer(workload.technique, config).run(
        task.tables, task.demonstration, stop)


def main() -> int:
    digests: dict[str, str] = {}
    for workload in WORKLOADS.values():
        for task in select_tasks(workload, smoke=False):
            key = op_key(task.name, workload.technique, workload.budget,
                         workload.mode)
            if key not in digests:
                result = serial_result(task, workload)
                digests[key] = result_digest(result, workload.mode)
                print(key, digests[key], file=sys.stderr)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump({"digests": dict(sorted(digests.items()))}, handle,
                  indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
