"""Bench: Monte-Carlo robustness of the adaptive savings.

The paper reports one run per workload; this sweeps 12 independent
channel seeds of the 802.11b workload and asserts the savings
*distribution* is positive — its 95% confidence interval must exclude
zero.  This is the statistical backing for the headline claim.
"""

from repro.experiments import robustness_spec, run_spec


def test_seed_robustness(benchmark, archive):
    result = benchmark.pedantic(
        lambda: run_spec(robustness_spec(), jobs=1).result, rounds=1, iterations=1
    )
    archive("extension_robustness", result.format())

    summary = result.summary()
    benchmark.extra_info["mean_savings"] = round(summary.mean, 2)
    benchmark.extra_info["ci_low"] = round(summary.ci_low, 2)

    assert summary.count >= 10
    assert summary.mean > 3.0
    assert summary.ci_low > 0.0, "95% CI of adaptive savings includes zero"
