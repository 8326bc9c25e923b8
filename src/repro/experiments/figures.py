"""Regenerate the paper's figures from experiment results.

The environment has no plotting stack, so figures are emitted as aligned
text tables / CSV series — the same data the paper plots:

* **Figure 12** — for each technique, the number of benchmarks solvable
  within a given per-task time limit (a cumulative curve over solve times);
* **Figure 13** — the distribution (min / quartiles / mean / max) of the
  number of queries explored per technique, split into easy and hard tasks.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.runner import TaskResult


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile of pre-sorted data (q in [0, 1])."""
    if not sorted_values:
        return float("nan")
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def fig12_curve(results: Sequence[TaskResult], technique: str,
                limits: Sequence[float]) -> list[int]:
    """Solved-within-limit counts for one technique (one Fig. 12 series)."""
    times = [r.time_s for r in results
             if r.technique == technique and r.solved]
    return [sum(1 for t in times if t <= limit) for limit in limits]


def fig12_table(results: Sequence[TaskResult],
                limits: Sequence[float] | None = None) -> str:
    """The full Figure 12 as an aligned text table (easy / hard split)."""
    techniques = sorted({r.technique for r in results})
    if limits is None:
        max_t = max((r.time_s for r in results if r.solved), default=1.0)
        limits = [round(max_t * f, 2) for f in
                  (0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0)]
    lines = []
    for difficulty in ("easy", "hard", "all"):
        subset = [r for r in results
                  if difficulty == "all" or r.difficulty == difficulty]
        total = len({r.task for r in subset})
        lines.append(f"-- {difficulty} tasks (n={total}) --")
        header = "time limit (s) " + "".join(f"{t:>12.2f}" for t in limits)
        lines.append(header)
        for tech in techniques:
            counts = fig12_curve(subset, tech, limits)
            lines.append(f"{tech:15s}" + "".join(f"{c:>12d}" for c in counts))
        lines.append("")
    return "\n".join(lines)


def fig13_stats(results: Sequence[TaskResult], technique: str,
                difficulty: str) -> dict:
    """Box-plot statistics of queries explored (one Fig. 13 box)."""
    visited = sorted(r.visited for r in results
                     if r.technique == technique
                     and r.difficulty == difficulty)
    if not visited:
        return {"n": 0}
    return {
        "n": len(visited),
        "min": visited[0],
        "q1": _percentile(visited, 0.25),
        "median": _percentile(visited, 0.5),
        "q3": _percentile(visited, 0.75),
        "max": visited[-1],
        "mean": sum(visited) / len(visited),
    }


def fig13_table(results: Sequence[TaskResult]) -> str:
    """The full Figure 13 as an aligned text table."""
    techniques = sorted({r.technique for r in results})
    lines = []
    for difficulty in ("easy", "hard"):
        lines.append(f"-- queries explored, {difficulty} tasks --")
        lines.append(f"{'technique':15s}{'min':>9}{'q1':>9}{'median':>9}"
                     f"{'q3':>9}{'max':>9}{'mean':>11}")
        for tech in techniques:
            s = fig13_stats(results, tech, difficulty)
            if not s["n"]:
                continue
            lines.append(
                f"{tech:15s}{s['min']:>9d}{s['q1']:>9.0f}{s['median']:>9.0f}"
                f"{s['q3']:>9.0f}{s['max']:>9d}{s['mean']:>11.1f}")
        lines.append("")
    return "\n".join(lines)


def results_csv(results: Sequence[TaskResult]) -> str:
    """Raw per-run results as CSV (for external analysis)."""
    header = ("task,suite,difficulty,technique,solved,time_s,visited,pruned,"
              "concrete_checked,consistent_found,timed_out,rank,demo_cells,"
              "backend,workers,engine_concrete_evals,engine_concrete_hits,"
              "engine_tracking_evals,engine_tracking_hits,"
              "consistency_checks,consistency_hits,consistency_col_pruned,"
              "col_match_evals,col_match_hits")
    rows = [header]
    for r in results:
        rows.append(
            f"{r.task},{r.suite},{r.difficulty},{r.technique},{r.solved},"
            f"{r.time_s:.3f},{r.visited},{r.pruned},{r.concrete_checked},"
            f"{r.consistent_found},{r.timed_out},"
            f"{'' if r.rank is None else r.rank},{r.demo_cells},{r.backend},"
            f"{r.workers},{r.engine_concrete_evals},{r.engine_concrete_hits},"
            f"{r.engine_tracking_evals},{r.engine_tracking_hits},"
            f"{r.consistency_checks},{r.consistency_hits},"
            f"{r.consistency_col_pruned},{r.col_match_evals},"
            f"{r.col_match_hits}")
    return "\n".join(rows) + "\n"
