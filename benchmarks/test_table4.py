"""Bench: paper Table 4 — online profiled for the lowest-energy
minterm vs adaptive, on ten random CTGs.

Shape targets (paper): the mispredicted profile costs the online
algorithm dearly — adaptive saves ≈22% (T=0.5) / ≈23% (T=0.1) on
average, with Category-1 (nested fork-join) graphs benefiting more
than Category-2, and call counts ~3–10 (T=0.5) vs ~100–250 (T=0.1).
"""

from repro.experiments import bias_spec, run_spec


def test_table4(benchmark, archive):
    result = benchmark.pedantic(
        lambda: run_spec(bias_spec("lowest"), jobs=1).result, rounds=1, iterations=1
    )
    archive(
        "table4",
        result.format(
            "Table 4 — online profiled for lowest-energy minterm",
            "(paper: adaptive saves ~22-23% on average; Cat1 > Cat2 by ~8%)",
        ),
    )

    for threshold in result.thresholds:
        benchmark.extra_info[f"mean_savings_T{threshold}"] = round(
            result.mean_savings(threshold), 1
        )

    # the cheap-biased profile must clearly lose to adaptive on average
    assert result.mean_savings(0.5) > 8.0
    assert result.mean_savings(0.1) > 8.0
    # call count ordering between the two thresholds
    for row in result.rows:
        assert row.calls[0.1] > row.calls[0.5]
