"""Harness tests and cross-module integration tests.

The shape assertions here are the test-suite's version of the paper's
headline claims, evaluated on a two-benchmark subset with small budgets so
they run quickly; the full-suite reproduction lives in ``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.harness import RunConfig, SuiteRunner, TECHNIQUES, format_table
from repro.harness.experiment import make_policy
from repro.harness.figures import reproduce_all
from repro.harness.reporting import overall_processor_savings
from repro.harness.tables import table1, table2


class TestRunnerMechanics:
    def test_results_are_cached(self, tiny_runner):
        first = tiny_runner.result("gzip", "baseline")
        second = tiny_runner.result("gzip", "baseline")
        assert first is second

    def test_unknown_technique_rejected(self, tiny_runner):
        with pytest.raises(ValueError):
            make_policy("magic", tiny_runner.config)

    def test_all_techniques_run(self, tiny_runner):
        for technique in TECHNIQUES:
            result = tiny_runner.result("mcf", technique)
            assert result.stats.committed_instructions > 0
            assert result.power.iq.dynamic > 0

    def test_software_runs_use_instrumented_program(self, tiny_runner):
        result = tiny_runner.result("gzip", "noop")
        assert result.compilation is not None
        assert result.stats.hint_noops_stripped > 0
        baseline = tiny_runner.result("gzip", "baseline")
        assert baseline.compilation is None

    def test_metrics_relative_to_baseline(self, tiny_runner):
        metrics = tiny_runner.metrics("gzip", "baseline")
        assert metrics.ipc_loss_pct == pytest.approx(0.0, abs=1e-9)
        assert metrics.occupancy_reduction_pct == pytest.approx(0.0, abs=1e-9)

    def test_average_over_suite(self, tiny_runner):
        value = tiny_runner.average("noop", "ipc_loss_pct")
        per_bench = [m.ipc_loss_pct for m in tiny_runner.suite_metrics("noop")]
        assert value == pytest.approx(sum(per_bench) / len(per_bench))


class TestPaperShape:
    """The qualitative claims of the paper, on the small test configuration."""

    def test_software_reduces_occupancy(self, tiny_runner):
        assert tiny_runner.average("noop", "occupancy_reduction_pct") > 0

    def test_software_saves_more_dynamic_power_than_gating_alone(self, tiny_runner):
        ours = tiny_runner.average("noop", "iq_dynamic_saving_pct")
        nonempty = tiny_runner.average("nonempty", "iq_dynamic_saving_pct")
        assert ours > nonempty > 0

    def test_software_saves_static_power_but_nonempty_does_not(self, tiny_runner):
        assert tiny_runner.average("noop", "iq_static_saving_pct") > 0
        assert tiny_runner.average("nonempty", "iq_static_saving_pct") == pytest.approx(
            0.0, abs=1e-9
        )

    def test_register_file_savings_positive(self, tiny_runner):
        assert tiny_runner.average("noop", "rf_dynamic_saving_pct") > 0
        assert tiny_runner.average("noop", "rf_static_saving_pct") > 0

    def test_improved_loses_no_more_ipc_than_noop(self, tiny_runner):
        noop = tiny_runner.average("noop", "ipc_loss_pct")
        improved = tiny_runner.average("improved", "ipc_loss_pct")
        assert improved <= noop + 0.5

    def test_mcf_is_insensitive_to_resizing(self, tiny_runner):
        mcf = tiny_runner.metrics("mcf", "noop")
        assert mcf.ipc_loss_pct < 6.0

    def test_baseline_ipc_reasonable(self, tiny_runner):
        for benchmark in tiny_runner.config.benchmarks:
            metrics = tiny_runner.metrics(benchmark, "noop")
            assert 0.2 < metrics.baseline_ipc < 8.0


class TestFiguresAndTables:
    def test_all_figures_reproduce(self, tiny_runner):
        figures = reproduce_all(tiny_runner)
        assert set(figures) == {
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
            "figure12",
        }
        for figure in figures.values():
            assert figure.series
            text = figure.to_text()
            assert figure.name in text
            assert "SPECINT" in text

    def test_figure6_contains_abella_bar(self, tiny_runner):
        from repro.harness.figures import figure6

        figure = figure6(tiny_runner)
        assert "abella" in figure.series["noop"]
        assert "SPECINT" in figure.series["noop"]

    def test_figure8_contains_nonempty_bar(self, tiny_runner):
        from repro.harness.figures import figure8

        figure = figure8(tiny_runner)
        assert "nonEmpty" in figure.series["dynamic"]

    def test_table1_mentions_table_values(self):
        text = table1()
        assert "80 entries" in text
        assert "128 entries" in text
        assert "112 entries" in text
        assert "2048 entries" in text

    def test_table2_rows(self, tiny_runner):
        result = table2(tiny_runner)
        names = [row.program_name for row in result.table.rows]
        assert names == list(tiny_runner.config.benchmarks)
        assert all(row.limited_seconds > 0 for row in result.table.rows)
        assert "benchmark" in result.to_text()

    def test_table2_counts_the_analysis_a_mode_shared(self):
        """A mode compiled on another mode's analysis reports that
        analysis's time too, so the row does not depend on compile order."""
        runner = SuiteRunner(RunConfig(benchmarks=("gcc",)))
        improved = runner.compilation("gcc", "improved")
        noop = runner.compilation("gcc", "noop")
        assert noop.analysis is improved.analysis
        row = table2(runner).table.row_for("gcc")
        assert row.limited_seconds >= improved.analysis.seconds

    def test_overall_processor_savings_positive(self, tiny_runner):
        value = overall_processor_savings(tiny_runner, technique="noop")
        assert 0 < value < 22 + 11

    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 3.0]])
        assert "a" in text and "2.50" in text and "x" in text
