"""Bench: the array-native batch core vs the per-instance replay loop.

The batch package's value proposition is throughput: a Monte-Carlo
sweep over thousands of sampled instances should cost a handful of
numpy kernels, not thousands of Python graph walks.  Two arms over the
same 40-task MPEG CTG and the same stretched schedule:

* **loop arm** (seed behaviour) — sample the same decision vectors and
  replay each through :class:`~repro.sim.executor.InstanceExecutor`,
  one instance at a time;
* **batch arm** — one :func:`repro.batch.monte_carlo` call: sample all
  branch outcomes at once, match minterms against the assignment
  table, evaluate per-scenario finish times/energies with the
  struct-of-arrays kernels and gather.

Both arms are asserted to produce identical distributions (elementwise
within 1e-9) before any timing is trusted.

Acceptance: ≥ 10× wall-clock on the 1000-instance sweep, for the
continuous and the discrete speed policy.

Setting ``REPRO_BENCH_QUICK=1`` shrinks the instance count for CI
regression runs; the speedup and correctness assertions are unchanged.
"""

import os
import time

import numpy as np

from repro.batch import monte_carlo
from repro.scheduling import schedule_online, set_deadline_from_makespan
from repro.sim import InstanceExecutor
from repro.workloads.mpeg import mpeg_ctg, mpeg_platform

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
# both scenarios are sub-second at full size, and each fast arm's cost
# is mostly fixed overhead — shrinking the workload would only dilute
# the speedups they exist to measure, so quick mode keeps full size
SWEEP_INSTANCES = 1000


def run_sweep_bench(n: int = SWEEP_INSTANCES):
    """Time the batched Monte-Carlo sweep against the replay loop."""
    ctg, platform = mpeg_ctg(), mpeg_platform()
    set_deadline_from_makespan(ctg, platform, 1.3)
    schedule = schedule_online(ctg, platform).schedule

    start = time.perf_counter()
    result = monte_carlo(ctg, platform, n, seed=13, schedule=schedule)
    batch_time = time.perf_counter() - start

    executor = InstanceExecutor(schedule)
    decisions = [result.decisions(i) for i in range(n)]
    start = time.perf_counter()
    outcomes = [executor.run(d) for d in decisions]
    loop_time = time.perf_counter() - start

    finishes = np.asarray([o.finish_time for o in outcomes])
    energies = np.asarray([o.energy for o in outcomes])
    assert np.allclose(result.finish_times, finishes, atol=1e-9)
    assert np.allclose(result.energies, energies, rtol=1e-9)
    assert result.miss_rate == 0.0

    speedup = loop_time / batch_time
    lines = [
        f"Monte-Carlo sweep — {n} sampled instances, 40-task MPEG CTG",
        f"  loop arm (executor replay)  : {loop_time * 1e3:8.1f} ms"
        f"  ({n / loop_time:10,.0f} inst/s)",
        f"  batch arm (one kernel call) : {batch_time * 1e3:8.1f} ms"
        f"  ({n / batch_time:10,.0f} inst/s)",
        f"  speedup                     : {speedup:8.2f}x",
    ]
    return speedup, "\n".join(lines)


def test_monte_carlo_sweep_speedup(benchmark, archive):
    speedup, report = benchmark.pedantic(run_sweep_bench, rounds=1, iterations=1)
    archive("batch_monte_carlo_sweep", report)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup > 10.0, (
        f"batched sweep only {speedup:.2f}x faster than the replay loop"
    )


def run_discrete_sweep_bench(n: int = SWEEP_INSTANCES):
    """The same sweep under the discrete speed policy — still one kernel."""
    from repro.profiling import StageProfiler

    ctg, platform = mpeg_ctg(), mpeg_platform()
    set_deadline_from_makespan(ctg, platform, 1.3)
    schedule = schedule_online(ctg, platform, speed_policy="discrete").schedule

    profiler = StageProfiler()
    start = time.perf_counter()
    result = monte_carlo(
        ctg, platform, n, seed=13, schedule=schedule, profiler=profiler
    )
    batch_time = time.perf_counter() - start
    # quantisation happens at schedule build, not per instance: the
    # sweep itself stays a single batched kernel invocation
    assert profiler.calls.get("batch.sweep") == 1, profiler.calls

    executor = InstanceExecutor(schedule)
    decisions = [result.decisions(i) for i in range(n)]
    start = time.perf_counter()
    outcomes = [executor.run(d) for d in decisions]
    loop_time = time.perf_counter() - start

    finishes = np.asarray([o.finish_time for o in outcomes])
    energies = np.asarray([o.energy for o in outcomes])
    assert np.allclose(result.finish_times, finishes, atol=1e-9)
    assert np.allclose(result.energies, energies, rtol=1e-9)

    speedup = loop_time / batch_time
    lines = [
        f"Monte-Carlo sweep (discrete policy) — {n} instances, MPEG CTG",
        f"  loop arm (executor replay)  : {loop_time * 1e3:8.1f} ms",
        f"  batch arm (one kernel call) : {batch_time * 1e3:8.1f} ms",
        f"  speedup                     : {speedup:8.2f}x",
    ]
    return speedup, "\n".join(lines)


def test_monte_carlo_discrete_sweep_speedup(benchmark, archive):
    speedup, report = benchmark.pedantic(
        run_discrete_sweep_bench, rounds=1, iterations=1
    )
    archive("batch_monte_carlo_discrete_sweep", report)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup > 10.0, (
        f"discrete batched sweep only {speedup:.2f}x faster than the replay loop"
    )
