"""Synthesis-as-a-service: stream ranked SQL from a warm worker pool.

Runs the README's service snippet on a registry task.  The default
service starts a 2-worker pool (worker processes, unless
``REPRO_POOL_BACKEND`` says otherwise), streams the consistent queries
of one request as they are found, cancels a second, long request
mid-search, and prints the service's health report.

Run:  python examples/serve.py
"""

import asyncio
import json

from repro import to_sql
from repro.api import GroundTruthStop, ServiceConfig, SynthesisService
from repro.benchmarks import get_task


async def main() -> None:
    task = get_task("fe01_total_sales_per_region")
    long_task = get_task("fh02_region_quarter_share")
    config = task.config.replace(timeout_s=None, top_n=5)

    async with SynthesisService(ServiceConfig()) as svc:
        print(f"pool: {svc.pool.size} workers on the "
              f"{svc.pool.backend_name} tier")
        handle = svc.submit(task.tables, task.demonstration, config,
                            stop=GroundTruthStop(task.ground_truth),
                            timeout_s=60.0)
        async for query in handle.stream():     # hits stream mid-search
            print("hit:", " ".join(to_sql(query, task.env).split()))
        result = await handle.result()          # full ranked result
        print(f"{task.name}: {handle.status}, "
              f"{len(result.queries)} ranked, visited {result.stats.visited}")
        assert result.target is not None

        # A search far larger than anyone waits for: cancel it and keep
        # the partial, still ranked, result.
        long_config = long_task.config.replace(
            timeout_s=None, max_visited=10**8, top_n=10**6)
        long = svc.submit(long_task.tables, long_task.demonstration,
                          long_config)
        await asyncio.sleep(0.5)
        long.cancel()
        partial = await long.result()
        print(f"{long_task.name}: {long.status} after "
              f"{partial.stats.visited} pops")
        assert long.status == "cancelled"
        print(json.dumps(svc.health(), indent=2))


if __name__ == "__main__":
    asyncio.run(main())
