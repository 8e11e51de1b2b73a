"""Bench: paper Table 1 — online vs reference algorithms 1 and 2.

Shape targets (paper): reference 1 well above 100 (130–290, avg +39%
energy vs online), reference 2 slightly below 100 (87–97), online
normalised at 100.
"""

from repro.experiments import run_spec, table1_spec


def test_table1(benchmark, archive):
    result = benchmark.pedantic(
        lambda: run_spec(table1_spec(), jobs=1).result, rounds=1, iterations=1
    )
    archive("table1", result.format())

    benchmark.extra_info["mean_ref1"] = round(result.mean_reference_1, 1)
    benchmark.extra_info["mean_ref2"] = round(result.mean_reference_2, 1)

    # Reproduction shape: ref2 (the NLP optimum on the same mapping)
    # never loses to online; ref1 loses clearly on average.
    assert all(row.reference_2 <= 100.5 for row in result.rows)
    assert result.mean_reference_1 > 110.0
    assert all(row.reference_1 > 100.0 for row in result.rows)
