"""Bench: paper Table 3 — vehicle cruise controller, three road-trace
sequences.

Shape targets (paper): adaptive saves only around 5% on every
sequence (three minterms of nearly equal energy, deadline at 2× the
optimum leaves little for adaptation), with ≈150 calls at T=0.1 and a
handful at T=0.5.
"""

from repro.experiments import run_spec, table3_spec


def test_table3(benchmark, archive):
    result = benchmark.pedantic(
        lambda: run_spec(table3_spec(), jobs=1).result, rounds=1, iterations=1
    )
    archive("table3", result.format())

    for row in result.rows:
        benchmark.extra_info[f"seq{row.sequence}_savings"] = round(row.savings, 2)
        benchmark.extra_info[f"seq{row.sequence}_calls"] = row.calls

    # Low-gain regime: adaptive never loses meaningfully, never gains big.
    for row in result.rows:
        assert -2.0 <= row.savings <= 12.0
    # threshold ordering of call counts
    tight = [r for r in result.rows if r.threshold == 0.1]
    loose = [r for r in result.rows if r.threshold == 0.5]
    assert all(r.calls > 50 for r in tight)
    assert all(r.calls < 30 for r in loose)
