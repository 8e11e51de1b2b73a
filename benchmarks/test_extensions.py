"""Benches for the extension experiments (beyond the paper).

* predictor comparison (sliding window vs exponential smoothing),
* re-scheduling overhead break-even per threshold,
* discrete DVFS level quantisation penalty.
"""

from repro.experiments import discrete_spec, overhead_spec, predictor_spec, run_spec


def test_extension_predictors(benchmark, archive):
    result = benchmark.pedantic(
        lambda: run_spec(predictor_spec(), jobs=1).result, rounds=1, iterations=1
    )
    archive("extension_predictors", result.format())

    for row in result.rows:
        # both estimators must beat the static schedule on these clips
        assert row.window_energy < row.online_energy
        assert row.exponential_energy < row.online_energy
        # with matched memory the two land in the same ballpark
        ratio = row.exponential_energy / row.window_energy
        assert 0.85 < ratio < 1.15


def test_extension_overhead_breakeven(benchmark, archive):
    result = benchmark.pedantic(
        lambda: run_spec(overhead_spec(), jobs=1).result, rounds=1, iterations=1
    )
    archive("extension_overhead", result.format())

    # tighter thresholds → more calls → lower break-even per call
    rows = sorted(result.rows, key=lambda r: -r.threshold)
    calls = [r.calls for r in rows]
    assert calls == sorted(calls)
    finite = [r for r in rows if r.break_even_per_call != float("inf")]
    assert finite, "no threshold produced any re-scheduling"
    loose, tight = finite[0], finite[-1]
    assert tight.break_even_per_call <= loose.break_even_per_call * 1.5


def test_extension_discrete_dvfs(benchmark, archive):
    result = benchmark.pedantic(
        lambda: run_spec(discrete_spec(), jobs=1).result, rounds=1, iterations=1
    )
    archive("extension_discrete_dvfs", result.format())

    by_name = {row.levels: row for row in result.rows}
    continuous = by_name["continuous"].expected_energy
    # quantisation can only cost energy, monotonically in coarseness
    assert by_name["8: 0.25..1.0"].expected_energy >= continuous - 1e-9
    assert (
        by_name["4: 0.25/0.5/0.75/1.0"].expected_energy
        >= by_name["8: 0.25..1.0"].expected_energy - 1e-9
    )
    assert (
        by_name["2: 0.5/1.0"].expected_energy
        >= by_name["4: 0.25/0.5/0.75/1.0"].expected_energy - 1e-9
    )
