"""Bench: paper Figure 4 — branch selection, windowed and filtered
probability series of the MPEG type-I branch over 1000 macroblocks.

Shape targets: the raw selection is effectively unpredictable, the
window-50 probability swings widely (the paper's plot covers ~0–1)
but slowly, and the threshold-0.1 staircase tracks it with few updates
and small tracking error.
"""

from repro.experiments import figure4_spec, run_spec
from repro.viz import series_svg


def test_figure4(benchmark, archive, archive_svg):
    result = benchmark.pedantic(
        lambda: run_spec(figure4_spec(), jobs=1).result, rounds=1, iterations=1
    )
    archive("figure4", result.format())
    archive_svg(
        "figure4",
        series_svg(
            {
                "selection": [float(s) for s in result.selections],
                "prob (window 50)": result.windowed,
                "filtered prob (T=0.1)": result.filtered,
            },
            title=f"Figure 4 — type-I branch profiling on {result.movie}",
        ),
    )

    benchmark.extra_info["updates"] = result.updates
    benchmark.extra_info["tracking_error"] = round(result.tracking_error(), 4)

    assert len(result.selections) == 1000
    # the windowed probability must cover a wide band like the paper's
    assert max(result.windowed) - min(result.windowed) > 0.5
    # the staircase tracks closely with far fewer changes than samples
    assert result.updates < 100
    assert result.tracking_error() < 0.08
