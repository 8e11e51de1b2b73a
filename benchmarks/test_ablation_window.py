"""Ablation bench: window length and threshold of the adaptive layer.

The paper (§III.B): "the window size and the threshold determine how
frequently the online scheduling and DVFS is called and they also
impact how well the algorithm adapts."  This sweep quantifies both on
the MPEG decoder: call counts must grow monotonically as the threshold
tightens, and the energy spread across the grid stays bounded.
"""

from repro.experiments import run_spec, sweep_spec


def test_ablation_window_threshold(benchmark, archive):
    result = benchmark.pedantic(
        lambda: run_spec(sweep_spec(), jobs=1).result, rounds=1, iterations=1
    )
    archive("ablation_window", result.format())

    # calls grow as the threshold tightens, for every window size
    by_window = {}
    for row in result.rows:
        by_window.setdefault(row.window, []).append(row)
    for window, rows in by_window.items():
        rows.sort(key=lambda r: -r.threshold)
        calls = [r.calls for r in rows]
        assert calls == sorted(calls), f"window {window}: calls not monotone {calls}"

    benchmark.extra_info["best_savings"] = round(
        max(r.savings_vs_online for r in result.rows), 1
    )
