"""The experiment harness: runner, figures, reports, CLI plumbing."""

import pytest

from repro.benchmarks import get_task
from repro.experiments.figures import (
    _percentile,
    fig12_curve,
    fig12_table,
    fig13_stats,
    fig13_table,
    results_csv,
)
from repro.experiments.report import (
    commonly_solved,
    mean_visited,
    observation_report,
    ranking_stats,
    solved_counts,
    speedup_over,
    visit_reduction,
)
from repro.experiments.runner import (
    RunConfig,
    TaskResult,
    run_task,
)


def _result(task="t", technique="provenance", solved=True, time_s=1.0,
            visited=100, difficulty="easy", rank=1, pruned=50):
    return TaskResult(task=task, suite="forum", difficulty=difficulty,
                      technique=technique, solved=solved, time_s=time_s,
                      visited=visited, pruned=pruned, concrete_checked=10,
                      consistent_found=1, timed_out=not solved, rank=rank,
                      demo_cells=6)


@pytest.fixture
def results():
    out = []
    for i, task in enumerate(("t1", "t2", "t3")):
        difficulty = "easy" if i < 2 else "hard"
        out.append(_result(task, "provenance", True, 0.5 + i, 100 + i,
                           difficulty, rank=1))
        out.append(_result(task, "value", i < 2, 2.0 + i, 1000 + i,
                           difficulty, rank=2 if i < 2 else None))
        out.append(_result(task, "type", i < 1, 4.0 + i, 5000 + i,
                           difficulty, rank=1 if i < 1 else None))
    return out


class TestRunner:
    def test_run_task_solves_simple_benchmark(self):
        task = get_task("fe01_total_sales_per_region")
        result = run_task(task, "provenance",
                          RunConfig(easy_timeout_s=15, hard_timeout_s=15))
        assert result.solved
        assert result.technique == "provenance"
        assert result.rank == 1
        assert result.visited > 0
        assert result.demo_cells == task.demonstration.size

    def test_run_task_respects_timeout(self):
        task = get_task("fe36_health_program_percentage")
        result = run_task(task, "type",
                          RunConfig(easy_timeout_s=0.2, hard_timeout_s=0.2))
        assert not result.solved
        assert result.timed_out

    def test_timeout_for_difficulty(self):
        rc = RunConfig(easy_timeout_s=3, hard_timeout_s=9)
        easy = get_task("fe01_total_sales_per_region")
        hard = get_task("fh02_region_quarter_share")
        assert rc.timeout_for(easy) == 3
        assert rc.timeout_for(hard) == 9


class TestFigures:
    def test_percentile(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert _percentile(data, 0) == 1.0
        assert _percentile(data, 1) == 4.0
        assert _percentile(data, 0.5) == 2.5

    def test_fig12_curve_monotone(self, results):
        curve = fig12_curve(results, "provenance", [0.1, 1.0, 10.0])
        assert curve == sorted(curve)
        assert curve[-1] == 3

    def test_fig12_table_structure(self, results):
        table = fig12_table(results, limits=[1.0, 5.0])
        assert "easy tasks" in table and "hard tasks" in table
        assert "provenance" in table

    def test_fig13_stats(self, results):
        stats = fig13_stats(results, "provenance", "easy")
        assert stats["n"] == 2
        assert stats["min"] <= stats["median"] <= stats["max"]

    def test_fig13_table(self, results):
        text = fig13_table(results)
        assert "queries explored" in text

    def test_results_csv_round_shape(self, results):
        csv_text = results_csv(results)
        lines = csv_text.strip().splitlines()
        assert len(lines) == len(results) + 1
        assert lines[0].startswith("task,suite,difficulty")


class TestReport:
    def test_solved_counts(self, results):
        counts = solved_counts(results)
        assert counts["provenance"]["all"] == 3
        assert counts["value"]["all"] == 2
        assert counts["type"]["all"] == 1

    def test_commonly_solved(self, results):
        assert commonly_solved(results) == {"t1"}

    def test_speedup_over(self, results):
        # commonly solved: t1 (4x) and t2 (2x) -> mean 3x
        assert speedup_over(results, "value") == pytest.approx(3.0)

    def test_mean_visited(self, results):
        assert mean_visited(results, "provenance") == pytest.approx(101.0)

    def test_visit_reduction_positive(self, results):
        assert visit_reduction(results) > 90.0

    def test_ranking_stats(self, results):
        stats = ranking_stats(results)
        assert stats["top1"] == 3

    def test_observation_report_text(self, results):
        text = observation_report(results)
        assert "Observation 1" in text and "Observation 2" in text
        assert "provenance" in text


class TestCli:
    def test_summary_command(self, capsys):
        from repro.experiments.cli import main
        assert main(["summary"]) == 0
        out = capsys.readouterr().out
        assert '"total": 80' in out

    def test_validate_single_task(self, capsys):
        from repro.experiments.cli import main
        assert main(["validate", "--tasks",
                     "fe01_total_sales_per_region"]) == 0
        assert "ok fe01" in capsys.readouterr().out

    def test_report_on_one_task(self, capsys, tmp_path):
        from repro.experiments.cli import main
        csv_path = tmp_path / "out.csv"
        code = main(["report", "--tasks", "fe01_total_sales_per_region",
                     "--techniques", "provenance",
                     "--easy-timeout", "10", "--csv", str(csv_path)])
        assert code == 0
        assert "Observation 1" in capsys.readouterr().out
        assert csv_path.read_text().startswith("task,")
