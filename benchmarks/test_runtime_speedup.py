"""Bench: the paper's §IV runtime claim — heuristic vs NLP stretching.

Shape target: the slack-distribution heuristic is orders of magnitude
faster than the NLP on the same mapped schedules (the paper: 0.6 ms vs
70 s ≈ 120,000× for compiled code; pure Python compresses the ratio
but the ordering must be decisive), which is what makes runtime
re-scheduling feasible at all.
"""

from repro.experiments import run_spec, runtime_spec


def test_runtime_speedup(benchmark, archive):
    result = benchmark.pedantic(
        lambda: run_spec(runtime_spec(), jobs=1).result, rounds=1, iterations=1
    )
    archive("runtime_speedup", result.format())

    benchmark.extra_info["geomean_speedup"] = round(result.mean_speedup, 1)
    for row in result.rows:
        assert row.speedup > 3.0, f"{row.triplet}: NLP only {row.speedup:.1f}x slower"
    assert result.mean_speedup > 10.0
