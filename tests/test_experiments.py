"""Smoke tests for the experiment harnesses (scaled-down parameters).

The full-size experiments live in ``benchmarks/``; these tests only
check that each harness runs end to end, produces well-formed rows and
renders its table.
"""

import pytest

from repro.experiments import (
    bias_spec,
    discrete_spec,
    figure4_spec,
    mpeg_spec,
    overhead_spec,
    predictor_spec,
    robustness_spec,
    run_spec,
    runtime_spec,
    sweep_spec,
    table1_spec,
    table3_spec,
)


class TestTable1Harness:
    def test_rows_and_format(self):
        result = run_spec(table1_spec(), jobs=1).result
        assert len(result.rows) == 5
        text = result.format()
        assert "Table 1" in text
        assert all(row.online == 100.0 for row in result.rows)

    def test_runtimes_recorded(self):
        result = run_spec(table1_spec(), jobs=1).result
        assert all(row.online_runtime > 0 for row in result.rows)
        assert all(row.reference_2_runtime > 0 for row in result.rows)


class TestFigure4Harness:
    def test_series_lengths_match(self):
        result = run_spec(figure4_spec(length=300), jobs=1).result
        assert len(result.selections) == 300
        assert len(result.windowed) == 300
        assert len(result.filtered) == 300

    def test_format_mentions_branch(self):
        result = run_spec(figure4_spec(length=200), jobs=1).result
        assert "classify" in result.format()

    def test_threshold_controls_updates(self):
        loose = run_spec(figure4_spec(length=500, threshold=0.5), jobs=1).result
        tight = run_spec(figure4_spec(length=500, threshold=0.05), jobs=1).result
        assert tight.updates >= loose.updates


class TestMpegHarness:
    def test_single_movie_small(self):
        result = run_spec(mpeg_spec(movies=("Airwolf",), length=400), jobs=1).result
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.online_energy > 0
        assert set(row.adaptive_energy) == {0.5, 0.1}
        assert "Figure 5" in result.format()


class TestTable3Harness:
    def test_small_run(self):
        result = run_spec(table3_spec(length=150), jobs=1).result
        assert len(result.rows) == 3
        assert "Table 3" in result.format()
        for row in result.rows:
            assert row.non_adaptive > 0
            assert row.adaptive > 0


class TestBiasHarness:
    def test_modes_validated(self):
        with pytest.raises(ValueError):
            run_spec(bias_spec("sideways"), jobs=1)

    def test_small_ideal_run(self):
        spec = bias_spec("ideal", thresholds=(0.5,), trace_length=120)
        result = run_spec(spec, jobs=1).result
        assert len(result.rows) == 10
        categories = {row.category for row in result.rows}
        assert categories == {1, 2}
        text = result.format("t", "note")
        assert "Cat1" in text


class TestRuntimeHarness:
    def test_speedups_positive(self):
        result = run_spec(runtime_spec(repeats=1), jobs=1).result
        assert len(result.rows) == 5
        assert all(row.speedup > 0 for row in result.rows)
        assert result.mean_speedup > 0


class TestSweepHarness:
    def test_grid_shape(self):
        spec = sweep_spec(movie="Airwolf", windows=(10,), thresholds=(0.5, 0.1), length=300)
        result = run_spec(spec, jobs=1).result
        assert len(result.rows) == 2
        assert "Ablation" in result.format()


class TestExtensionHarnesses:
    def test_predictor_comparison_small(self):
        spec = predictor_spec(movies=("Airwolf",), length=400)
        result = run_spec(spec, jobs=1).result
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.window_energy > 0 and row.exponential_energy > 0
        assert "Extension" in result.format()

    def test_overhead_breakeven_small(self):
        spec = overhead_spec(movie="Bike", thresholds=(0.5, 0.1), length=400)
        result = run_spec(spec, jobs=1).result
        assert len(result.rows) == 2
        assert "break-even" in result.format()

    def test_discrete_dvfs(self):
        result = run_spec(discrete_spec(), jobs=1).result
        assert result.rows[0].levels == "continuous"
        assert result.rows[0].penalty_percent == pytest.approx(0.0)
        assert all(row.penalty_percent >= -1e-9 for row in result.rows)

    def test_seed_robustness_small(self):
        spec = robustness_spec(seeds=(40, 41, 42), length=600)
        result = run_spec(spec, jobs=1).result
        assert len(result.savings_percent) == 3
        summary = result.summary()
        assert summary.count == 3
        assert "CI" in result.format()
