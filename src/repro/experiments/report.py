"""Observation-level summaries (§5.2) from experiment results.

Computes the quantities behind the paper's claims so EXPERIMENTS.md can put
paper numbers and measured numbers side by side:

* Observation 1 — tasks solved per technique (total / easy / hard), mean
  solve times, and the mean speedup of provenance over each baseline on
  commonly-solved tasks;
* Observation 2 — mean queries explored per technique on hard tasks, and
  the percentage of query visits the provenance abstraction avoids;
* ranking statistics — how often q_gt ranks top-1 / 2–9 / ≥10;
* specification-size statistics — demonstration cells vs full-output cells.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.runner import TaskResult


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


def solved_counts(results: Sequence[TaskResult]) -> dict[str, dict[str, int]]:
    """technique -> {"all": n, "easy": n, "hard": n} solved counts."""
    out: dict[str, dict[str, int]] = {}
    for r in results:
        bucket = out.setdefault(r.technique, {"all": 0, "easy": 0, "hard": 0})
        if r.solved:
            bucket["all"] += 1
            bucket[r.difficulty] += 1
    return out


def mean_solve_time(results: Sequence[TaskResult], technique: str,
                    difficulty: str | None = None) -> float:
    return _mean(r.time_s for r in results
                 if r.technique == technique and r.solved
                 and (difficulty is None or r.difficulty == difficulty))


def commonly_solved(results: Sequence[TaskResult]) -> set[str]:
    """Tasks solved by every technique present in the results."""
    techniques = {r.technique for r in results}
    solved: dict[str, set[str]] = {t: set() for t in techniques}
    for r in results:
        if r.solved:
            solved[r.technique].add(r.task)
    return set.intersection(*solved.values()) if solved else set()


def speedup_over(results: Sequence[TaskResult], baseline: str,
                 reference: str = "provenance") -> float:
    """Mean per-task speedup of ``reference`` over ``baseline`` on tasks
    both solve (the paper's "on benchmarks all techniques can solve")."""
    common = commonly_solved(
        [r for r in results if r.technique in (baseline, reference)])
    by_key = {(r.technique, r.task): r.time_s for r in results if r.solved}
    ratios = []
    for task in common:
        ref = max(by_key[(reference, task)], 1e-9)
        ratios.append(by_key[(baseline, task)] / ref)
    return _mean(ratios)


def mean_visited(results: Sequence[TaskResult], technique: str,
                 difficulty: str | None = None) -> float:
    return _mean(r.visited for r in results
                 if r.technique == technique
                 and (difficulty is None or r.difficulty == difficulty))


def visit_reduction(results: Sequence[TaskResult],
                    reference: str = "provenance") -> float:
    """% fewer queries visited by ``reference`` vs the other techniques
    (the paper's "on average visit 97.08% less queries")."""
    others = sorted({r.technique for r in results} - {reference})
    ref = mean_visited(results, reference)
    other_mean = _mean(mean_visited(results, t) for t in others)
    if not other_mean or other_mean != other_mean:
        return float("nan")
    return 100.0 * (1 - ref / other_mean)


def cache_hit_rates(results: Sequence[TaskResult],
                    technique: str) -> tuple[float, float]:
    """(concrete %, tracking %) of engine evaluations served from cache.

    Aggregated over raw counters — runs with more traffic weigh more, which
    is the rate the engines actually experienced across the sweep.
    """
    subset = [r for r in results if r.technique == technique]
    concrete_total = sum(r.engine_concrete_evals + r.engine_concrete_hits
                         for r in subset)
    tracking_total = sum(r.engine_tracking_evals + r.engine_tracking_hits
                         for r in subset)
    concrete = (100.0 * sum(r.engine_concrete_hits for r in subset)
                / concrete_total) if concrete_total else float("nan")
    tracking = (100.0 * sum(r.engine_tracking_hits for r in subset)
                / tracking_total) if tracking_total else float("nan")
    return concrete, tracking


def consistency_stats(results: Sequence[TaskResult],
                      technique: str) -> tuple[float, float, float]:
    """(verdict-cache %, column-memo %, column-pruned %) for the incremental
    consistency checker — aggregated over raw counters like
    :func:`cache_hit_rates`, so runs with more traffic weigh more.

    Column-pruned is the share of *computed* verdicts decided at the
    column stage, before any row embedding ran.
    """
    subset = [r for r in results if r.technique == technique]
    checks = sum(r.consistency_checks for r in subset)
    verdict_total = checks + sum(r.consistency_hits for r in subset)
    match_total = sum(r.col_match_evals + r.col_match_hits for r in subset)
    verdict = (100.0 * sum(r.consistency_hits for r in subset)
               / verdict_total) if verdict_total else float("nan")
    matches = (100.0 * sum(r.col_match_hits for r in subset)
               / match_total) if match_total else float("nan")
    pruned = (100.0 * sum(r.consistency_col_pruned for r in subset)
              / checks) if checks else float("nan")
    return verdict, matches, pruned


def ranking_stats(results: Sequence[TaskResult],
                  technique: str = "provenance") -> dict[str, int]:
    """Distribution of q_gt's rank among consistent queries (§5.2)."""
    ranks = [r.rank for r in results if r.technique == technique and r.solved]
    return {
        "top1": sum(1 for k in ranks if k == 1),
        "rank2to9": sum(1 for k in ranks if k is not None and 2 <= k <= 9),
        "rank10plus": sum(1 for k in ranks if k is not None and k >= 10),
        "unranked": sum(1 for k in ranks if k is None),
    }


def spec_size_stats(results: Sequence[TaskResult]) -> dict[str, float]:
    by_task: dict[str, int] = {}
    for r in results:
        by_task[r.task] = r.demo_cells
    return {"mean_demo_cells": _mean(by_task.values())}


def observation_report(results: Sequence[TaskResult]) -> str:
    """A text report covering Observations 1–2 and the ranking study."""
    techniques = sorted({r.technique for r in results})
    n_tasks = len({r.task for r in results})
    lines = [f"=== Experiment report over {n_tasks} tasks ===", ""]
    backends = sorted({r.backend for r in results if r.backend})
    if backends:
        from repro.engine import capabilities

        caps = capabilities()
        numpy_note = caps["numpy_version"] or "unavailable"
        lines.append("evaluation backend: " + ", ".join(backends)
                     + f" (host numpy: {numpy_note})")
        workers = sorted({r.workers for r in results})
        lines.append("search workers: "
                     + ", ".join(str(w) for w in workers))
        lines.append("")

    lines.append("-- Observation 1: tasks solved (within timeout) --")
    counts = solved_counts(results)
    for tech in techniques:
        c = counts.get(tech, {"all": 0, "easy": 0, "hard": 0})
        mean_t = mean_solve_time(results, tech)
        lines.append(f"{tech:12s} solved={c['all']:3d} "
                     f"(easy {c['easy']}, hard {c['hard']}); "
                     f"mean solve time {mean_t:.2f}s")
    for baseline in techniques:
        if baseline == "provenance":
            continue
        s = speedup_over(results, baseline)
        lines.append(f"provenance speedup over {baseline}: {s:.1f}x "
                     "(on commonly solved tasks)")
    lines.append("")

    lines.append("-- Observation 2: queries explored --")
    for difficulty in ("easy", "hard"):
        parts = [f"{t}: {mean_visited(results, t, difficulty):.0f}"
                 for t in techniques]
        lines.append(f"mean visited ({difficulty}): " + ", ".join(parts))
    lines.append(f"provenance visit reduction vs baselines: "
                 f"{visit_reduction(results):.2f}%")
    lines.append("engine cache hit rates (concrete / tracking):")
    for tech in techniques:
        concrete, tracking = cache_hit_rates(results, tech)
        lines.append(f"  {tech:12s} {concrete:5.1f}% / {tracking:5.1f}%")
    lines.append("consistency checker (verdict cache / column memo / "
                 "column-pruned):")
    for tech in techniques:
        verdict, matches, pruned = consistency_stats(results, tech)
        lines.append(f"  {tech:12s} {verdict:5.1f}% / {matches:5.1f}% / "
                     f"{pruned:5.1f}%")
    lines.append("")

    if any(r.technique == "provenance" for r in results):
        lines.append("-- Ranking of q_gt among consistent queries --")
        stats = ranking_stats(results)
        lines.append(f"top-1: {stats['top1']}, rank 2-9: {stats['rank2to9']}, "
                     f"rank >=10: {stats['rank10plus']}")
        lines.append("")

    lines.append("-- Specification size --")
    lines.append(f"mean demonstration cells: "
                 f"{spec_size_stats(results)['mean_demo_cells']:.1f}")
    return "\n".join(lines)
