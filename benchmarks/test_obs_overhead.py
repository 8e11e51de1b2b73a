"""Bench: tracing must be free when off and cheap when on.

The observability layer threads a tracer through the re-scheduling hot
path (controller, runners, executor).  Two promises keep it honest:

* **disabled** — call sites given no tracer share ``NULL_TRACER`` and
  guard every span/event emission behind its ``enabled`` flag, so the
  untraced adaptive loop must stay at its pre-tracing cost.  The
  benchmark below times exactly that loop; CI's bench-regression job
  compares it (machine-calibrated) against the committed baseline in
  ``benchmarks/baselines/bench_quick.json``;
* **enabled** — full tracing (stage spans, per-task simulated spans,
  link spans, events) may cost at most :data:`MAX_TRACING_OVERHEAD`
  relative to the untraced run on the same MPEG trace (the median of
  :data:`TRACING_PAIRS` pairs, alternating which arm runs first), and
  must not change the results (energies and profile are asserted
  identical on every pair).

Setting ``REPRO_BENCH_QUICK=1`` shortens the trace for CI runs; the
overhead assertions are unchanged.
"""

import os
import statistics
import time

from repro.adaptive.controller import AdaptiveConfig
from repro.obs import Tracer
from repro.scheduling import set_deadline_from_makespan
from repro.sim.runner import run_adaptive
from repro.workloads.mpeg import mpeg_ctg, mpeg_platform
from repro.workloads.traces import drifting_trace

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
TRACE_LENGTH = 120 if QUICK else 400

#: upper bound on fully-traced wall-clock relative to the untraced run;
#: a span is two perf_counter calls and one dataclass append, so 25%
#: leaves room for the per-task simulated spans without tolerating
#: anything super-linear
MAX_TRACING_OVERHEAD = 1.25
#: untraced/traced pairs timed; the gate reads their median ratio
TRACING_PAIRS = 5


def _problem():
    ctg, platform = mpeg_ctg(), mpeg_platform()
    deadline = set_deadline_from_makespan(ctg, platform, 1.6)
    trace = drifting_trace(ctg, TRACE_LENGTH, seed=71)
    config = AdaptiveConfig(window_size=20, threshold=0.1)
    return ctg, platform, trace, config, deadline


def _run(tracer=None):
    ctg, platform, trace, config, deadline = _problem()
    started = time.perf_counter()
    result = run_adaptive(
        ctg,
        platform,
        trace,
        ctg.default_probabilities,
        config,
        deadline=deadline,
        tracer=tracer,
    )
    return result, time.perf_counter() - started


def run_overhead_pair(traced_first: bool = False):
    """One untraced and one fully traced run, in the order given."""
    tracer = Tracer()
    if traced_first:
        traced, traced_seconds = _run(tracer=tracer)
        untraced, null_seconds = _run(tracer=None)
    else:
        untraced, null_seconds = _run(tracer=None)
        traced, traced_seconds = _run(tracer=tracer)
    return untraced, traced, traced_seconds / null_seconds, tracer


def test_adaptive_untraced_hotpath(benchmark, archive):
    """The NULL_TRACER hot path — the number the baseline compare pins."""

    def run_untraced():
        return _run(tracer=None)

    result, _seconds = benchmark.pedantic(run_untraced, rounds=1, iterations=1)
    assert len(result.energies) == TRACE_LENGTH
    archive(
        "obs_untraced_hotpath",
        f"untraced adaptive hot path — {TRACE_LENGTH} instances, "
        f"{result.reschedule_calls} re-schedules",
    )


def test_full_tracing_overhead(benchmark, archive):
    """Median traced/untraced ratio over :data:`TRACING_PAIRS` pairs.

    Each benchmark round is one pair, so the gated mean keeps the scale
    of a single pair; the order alternates so neither arm always runs
    on a colder process.
    """
    pairs = []

    def run_pair():
        pairs.append(run_overhead_pair(traced_first=len(pairs) % 2 == 1))

    benchmark.pedantic(run_pair, rounds=TRACING_PAIRS, iterations=1)
    assert len(pairs) == TRACING_PAIRS
    ratios = []
    for untraced, traced, ratio, tracer in pairs:
        # tracing must not change the run
        assert traced.energies == untraced.energies
        assert traced.profile.counters == untraced.profile.counters
        assert traced.profile.calls == untraced.profile.calls
        ratios.append(ratio)
    overhead = statistics.median(ratios)
    archive(
        "obs_tracing_overhead",
        "\n".join(
            [
                f"tracing overhead — {TRACE_LENGTH}-instance MPEG adaptive trace, "
                f"{TRACING_PAIRS} alternating pairs",
                f"  traced/untraced ratios : {', '.join(f'{r:.2f}' for r in ratios)}",
                f"  median overhead        : {overhead:8.2f}x  "
                f"(bound {MAX_TRACING_OVERHEAD}x)",
                f"  spans recorded         : {len(tracer.spans)}",
                f"  events recorded        : {len(tracer.events)}",
            ]
        ),
    )
    benchmark.extra_info["overhead"] = round(overhead, 2)
    assert overhead <= MAX_TRACING_OVERHEAD, (
        f"full tracing costs {overhead:.2f}x (median of {TRACING_PAIRS} pairs), "
        f"bound is {MAX_TRACING_OVERHEAD}x"
    )
