"""Bench: paper Table 5 — online profiled for the highest-energy
minterm vs adaptive, on the same ten random CTGs as Table 4.

Shape targets (paper): the expensive-biased profile is a much milder
handicap than Table 4's cheap bias (the misprediction penalty only
hits the lowest-energy minterm): savings drop to ≈3% (T=0.5) / ≈5%
(T=0.1) on average, with individual graphs where adaptive even loses
slightly (paper CTGs 3 and 8).
"""

from repro.experiments import bias_spec, run_spec


def test_table5(benchmark, archive):
    result = benchmark.pedantic(
        lambda: run_spec(bias_spec("highest"), jobs=1).result, rounds=1, iterations=1
    )
    archive(
        "table5",
        result.format(
            "Table 5 — online profiled for highest-energy minterm",
            "(paper: adaptive saves only ~3-5% on average; some graphs negative)",
        ),
    )

    for threshold in result.thresholds:
        benchmark.extra_info[f"mean_savings_T{threshold}"] = round(
            result.mean_savings(threshold), 1
        )

    low_bias = run_spec(bias_spec("lowest"), jobs=1).result
    # the asymmetry the paper highlights: the cheap-bias handicap (T4)
    # costs the online algorithm much more than the expensive bias (T5)
    for threshold in result.thresholds:
        assert result.mean_savings(threshold) < low_bias.mean_savings(threshold)
    assert result.mean_savings(0.1) < 15.0
