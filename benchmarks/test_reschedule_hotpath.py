"""Bench: the re-scheduling hot path — cached+vectorized vs scalar oracle.

The adaptive controller's entire value proposition rests on cheap
re-invocation of ``schedule_online`` (the paper's 0.6 ms argument for
why threshold-triggered re-scheduling is affordable at runtime).  This
bench measures the case the path-analytics cache targets — and that the
cruise-controller run below shows to be the common one: branch
statistics drift by threshold magnitude and the online algorithm is
re-invoked, but DLS reproduces the same mapping, so the scheduled
graph's path structure is unchanged and every re-derivation the seed
performed is pure waste.  Statistics alternate between two drifted
regimes (the staircase of the paper's Figure 4), and the same call
sequence runs through both arms:

* **fast arm** — the defaults: incremental DLS, shared ``CtgAnalysis``
  whose ``path_cache`` carries the path analytics across calls,
  vectorized slack kernels;
* **seed arm** — ``reference_online``: the rescan-loop DLS oracle
  (``tests/oracles/dls.py``) followed by the scalar stretching oracle
  (``tests/oracles/stretching.py``), the original per-step and
  per-path loops re-deriving everything on every call (path-enumeration
  improvements are shared by both arms, making the comparison
  conservative).

MPEG's DLS flips the mapping when some branches drift (the equivalence
tests cover that path — the cache then misses and rebuilds), so the
bench first probes which branches tolerate ±0.1 drift without flipping
the mapping and builds the regime pair on those; the mapping stability
is asserted, not assumed.

Acceptance: ≥ 3× wall-clock on the repeated re-invocations on the
40-task MPEG CTG.  A second scenario runs the cruise-controller
adaptive trace end to end and archives the profiler's stage report.

The third scenario times the other side of the cache, the miss path:
it collects every schedule on which the adaptive loop's path cache
missed over one drifting MPEG trace (the initial schedule and each
mapping flip), then builds their path structures with the bitmask-DFS
``build_structure`` and with the three-pass oracle
``reference_structure`` (``tests/oracles/pathcache.py``).  Acceptance:
identical structures and ≥ 2.5× wall-clock.

Setting ``REPRO_BENCH_QUICK=1`` shrinks the workload (fewer regime
cycles, shorter traces, one build round) for CI regression runs; the
speedup and correctness assertions are unchanged.
"""

import gc
import os
import statistics
import time

from repro.adaptive.controller import AdaptiveConfig
from repro.ctg.minterms import CtgAnalysis
from repro.profiling import StageProfiler
from repro.scheduling import dls_schedule, schedule_online, set_deadline_from_makespan
from repro.scheduling import pathcache
from repro.scheduling.pathcache import build_structure, schedule_fingerprint
from repro.sim.runner import run_adaptive
from repro.workloads.cruise import cruise_ctg, cruise_platform
from repro.workloads.mpeg import mpeg_ctg, mpeg_platform
from repro.workloads.traces import drifting_trace
from tests.oracles.pathcache import assert_same_structure, reference_structure
from tests.oracles.stretching import reference_online

#: drift magnitude of the regime pair — the controller's re-scheduling
#: threshold, i.e. the smallest drift that triggers a call
DRIFT = 0.1

#: CI regression mode: same benches, smaller workload
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
HOTPATH_CYCLES = 2 if QUICK else 6
#: timed rounds of the speedup gate; it reads their median speedup
HOTPATH_ROUNDS = 3
CRUISE_TRACE_LENGTH = 100 if QUICK else 300
FLIP_TRACE_LENGTH = 50 if QUICK else 200
BUILD_ROUNDS = 1 if QUICK else 3


def _shifted(base, branches, delta):
    """``base`` with each branch in ``branches`` drifted by ``delta``
    (probability mass moved between its extreme outcomes)."""
    out = {b: dict(d) for b, d in base.items()}
    for b in branches:
        labels = sorted(out[b], key=lambda label: -out[b][label])
        hi, lo = labels[0], labels[-1]
        mass = min(abs(delta), out[b][hi] if delta > 0 else out[b][lo])
        if delta > 0:
            out[b][hi] -= mass
            out[b][lo] += mass
        else:
            out[b][hi] += mass
            out[b][lo] -= mass
    return out


def _regime_snapshots(ctg, platform, analysis, cycles):
    """Two threshold-magnitude drift regimes that leave the DLS mapping
    unchanged, alternated ``cycles`` times (Figure 4's staircase)."""
    base = ctg.default_probabilities
    reference = schedule_fingerprint(dls_schedule(ctg, platform, base, analysis=analysis))
    stable = [
        branch
        for branch in sorted(ctg.branch_nodes())
        if all(
            schedule_fingerprint(
                dls_schedule(
                    ctg, platform, _shifted(base, [branch], d), analysis=analysis
                )
            )
            == reference
            for d in (DRIFT, -DRIFT)
        )
    ]
    assert stable, "no branch tolerates threshold drift without flipping the mapping"
    up = _shifted(base, stable, DRIFT)
    down = _shifted(base, stable, -DRIFT)
    for snapshot in (up, down):
        fp = schedule_fingerprint(
            dls_schedule(ctg, platform, snapshot, analysis=analysis)
        )
        assert fp == reference, "regime pair unexpectedly flips the mapping"
    return [up, down] * cycles, stable


def _replay(ctg, platform, analysis, snapshots, online=schedule_online, **kwargs):
    start = time.perf_counter()
    results = [
        online(ctg, platform, probs, analysis=analysis, **kwargs)
        for probs in snapshots
    ]
    return time.perf_counter() - start, results


def run_hotpath_bench(cycles: int = HOTPATH_CYCLES):
    """Time the alternating-regime re-scheduling sequence on MPEG."""
    ctg, platform = mpeg_ctg(), mpeg_platform()
    set_deadline_from_makespan(ctg, platform, 1.5)
    probe_analysis = CtgAnalysis.of(ctg)
    snapshots, stable = _regime_snapshots(ctg, platform, probe_analysis, cycles)
    calls = len(snapshots)

    seed_analysis = CtgAnalysis.of(ctg)
    seed_time, seed_results = _replay(
        ctg, platform, seed_analysis, snapshots, online=reference_online
    )

    fast_analysis = CtgAnalysis.of(ctg)
    prof = StageProfiler()
    # Warm call outside the timed window: the adaptive controller builds
    # its initial schedule from the profiled distribution before any
    # re-scheduling happens, so repeated re-invocation — the quantity
    # that matters — starts with a constructed analysis (the regime
    # distributions themselves are first seen inside the timed window).
    schedule_online(
        ctg, platform, ctg.default_probabilities, analysis=fast_analysis, profiler=prof
    )
    fast_time, fast_results = _replay(
        ctg, platform, fast_analysis, snapshots, profiler=prof
    )

    for seed_res, fast_res in zip(seed_results, fast_results):
        for task in seed_res.schedule.placements:
            a = seed_res.schedule.placement(task).speed
            b = fast_res.schedule.placement(task).speed
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a)), (
                f"arms diverged on {task!r}: {a} vs {b}"
            )

    speedup = seed_time / fast_time
    lines = [
        f"re-scheduling hot path — {calls} re-invocations "
        "(alternating threshold-drift regimes), 40-task MPEG CTG",
        f"  drifted branches (±{DRIFT})   : {', '.join(stable)}",
        f"  seed arm (oracles)          : {seed_time * 1e3:8.1f} ms"
        f"  ({seed_time / calls * 1e3:6.1f} ms/call)",
        f"  fast arm (incremental+cache): {fast_time * 1e3:8.1f} ms"
        f"  ({fast_time / calls * 1e3:6.1f} ms/call)",
        f"  speedup                     : {speedup:8.2f}x",
        "",
        prof.format(),
    ]
    return speedup, "\n".join(lines)


def test_reschedule_hotpath_speedup(benchmark, archive):
    """Median speedup over :data:`HOTPATH_ROUNDS` rounds.

    Each benchmark round is one full pass of both arms, so the gated
    mean keeps the per-round scale of the committed baseline.
    """
    runs = []
    benchmark.pedantic(
        lambda: runs.append(run_hotpath_bench()), rounds=HOTPATH_ROUNDS, iterations=1
    )
    speedups = [speedup for speedup, _report in runs]
    speedup = statistics.median(speedups)
    archive(
        "reschedule_hotpath",
        runs[-1][1]
        + f"\nspeedup per round: {', '.join(f'{s:.2f}x' for s in speedups)}"
        f" (median {speedup:.2f}x)",
    )
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup > 3.0, f"hot path only {speedup:.2f}x faster than seed behaviour"


def test_cruise_adaptive_trace_profile(benchmark, archive):
    """End-to-end adaptive run on the cruise controller, profiled."""

    def run():
        ctg, platform = cruise_ctg(), cruise_platform()
        deadline = set_deadline_from_makespan(ctg, platform, 2.0)
        trace = drifting_trace(ctg, CRUISE_TRACE_LENGTH, seed=31)
        return run_adaptive(
            ctg,
            platform,
            trace,
            ctg.default_probabilities,
            AdaptiveConfig(window_size=20, threshold=0.1),
            deadline=deadline,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    prof = result.profile
    lines = [
        f"cruise-controller adaptive trace ({CRUISE_TRACE_LENGTH} instances)",
        f"  re-scheduling calls : {result.reschedule_calls}",
        f"  deadline misses     : {result.deadline_misses}",
        "",
        prof.format(),
    ]
    archive("cruise_adaptive_profile", "\n".join(lines))
    assert result.deadline_misses == 0
    assert prof.counter("executor.instances") == CRUISE_TRACE_LENGTH
    assert prof.counter("path_cache.hit") + prof.counter("path_cache.miss") == (
        result.reschedule_calls + 1
    )


def _mapping_flip_schedules(ctg, platform, deadline, length):
    """Every schedule on which the path cache missed while the adaptive
    loop replayed one drifting MPEG trace, with its scenario tuple."""
    missed = []
    build = pathcache.build_structure

    def capture(schedule, scenarios, profiler=None):
        missed.append((schedule, tuple(scenarios)))
        return build(schedule, scenarios, profiler)

    pathcache.build_structure = capture
    try:
        run_adaptive(
            ctg,
            platform,
            drifting_trace(ctg, length, seed=7),
            ctg.default_probabilities,
            AdaptiveConfig(window_size=20, threshold=0.1),
            deadline=deadline,
        )
    finally:
        pathcache.build_structure = build
    return missed


def _time_builds(builder, schedules):
    gc.collect()
    start = time.perf_counter()
    built = [builder(schedule, scenarios) for schedule, scenarios in schedules]
    return time.perf_counter() - start, built


def run_structure_build_bench(length: int = FLIP_TRACE_LENGTH, rounds: int = BUILD_ROUNDS):
    """Time both structure builders on the mapping-flip schedules."""
    ctg, platform = mpeg_ctg(), mpeg_platform()
    deadline = set_deadline_from_makespan(ctg, platform, 1.5)
    schedules = _mapping_flip_schedules(ctg, platform, deadline, length)
    fast_time = seed_time = 0.0
    for _ in range(rounds):  # alternate the arms, sum over the rounds
        elapsed, fast = _time_builds(build_structure, schedules)
        fast_time += elapsed
        elapsed, seed = _time_builds(reference_structure, schedules)
        seed_time += elapsed
    for structure, reference in zip(fast, seed):
        assert_same_structure(structure, reference, ctg.default_probabilities)

    builds = rounds * len(schedules)
    paths = sum(structure.path_count for structure in fast)
    speedup = seed_time / fast_time
    lines = [
        f"path-structure builds on the miss path — {len(schedules)} mapping-flip "
        f"schedules of one {length}-instance drifting MPEG trace, {rounds} round(s)",
        f"  paths per round              : {paths}",
        f"  seed arm (reference_structure): {seed_time * 1e3:8.1f} ms"
        f"  ({seed_time / builds * 1e3:6.1f} ms/build)",
        f"  fast arm (build_structure)    : {fast_time * 1e3:8.1f} ms"
        f"  ({fast_time / builds * 1e3:6.1f} ms/build)",
        f"  speedup                       : {speedup:8.2f}x",
    ]
    return speedup, "\n".join(lines)


def test_structure_build_speedup(benchmark, archive):
    speedup, report = benchmark.pedantic(run_structure_build_bench, rounds=1, iterations=1)
    archive("structure_build", report)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= 2.5, f"structure build only {speedup:.2f}x faster than the oracle"
