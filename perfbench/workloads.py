"""The four benchmark workloads.

Every workload is a closed loop with one caller: each operation starts
when the previous one returns.  A workload builds its fixed input from
the seed in ``setup``, then ``measure`` cycles over that input until its
time budget is spent, repeating inputs it has already run.  Results
that depend only on the input (energies, re-schedule instants, cell
values) must repeat exactly; a repeat that differs fails its
operations.

One *operation* is the unit that fails or succeeds:

* adaptive workloads: a schedule — the one each pass starts with, and
  every re-schedule after it — together with the instances executed
  under it (a deadline miss among them fails the schedule);
* ``mpeg-montecarlo``: one ``monte_carlo`` sweep call;
* ``smoke-sweep``: one experiment cell.

An untraced run measures in several interpreter processes in turn
(``share`` of ``shares``), because this machine runs one process
measurably faster or slower than the next; ``summarise`` pools their
calibrated timings.  A traced run measures in one process and runs
every input twice, untraced and then traced inside
:func:`spans.instrument`; the untraced half gives the tracing overhead
and a digest the traced half must reproduce.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import statistics
import struct
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import spans as spans_mod

# Sizes are fixed here, not on the command line, so two commits always
# run the same work.  ``tiny`` is for the benchmark's own tests.
SIZES = {
    "full": {
        "cruise_trace": 200,
        "cruise_traces": 16,
        "mpeg_trace": 50,
        "mpeg_traces": 32,
        "mc_n": 20_000,
        "mc_seeds": 8,
        "smoke_specs": None,
    },
    "tiny": {
        "cruise_trace": 40,
        "cruise_traces": 3,
        "mpeg_trace": 30,
        "mpeg_traces": 3,
        "mc_n": 500,
        "mc_seeds": 3,
        "smoke_specs": ("runtime", "montecarlo"),
    },
}

WINDOW = 20
THRESHOLD = 0.1
#: Per-instance work ratios stay at or below WCET, so no sweep may miss
#: its deadline.
WCET_RANGE = (0.5, 1.0)
#: A percentile needs at least ten samples beyond it: a run keeps going
#: past its time budget until p90 has that many (at most ``OVERRUN``
#: times the budget).
MIN_SAMPLES = 100
OVERRUN = 3.0


def _keep_going(start: float, seconds: float, done_inputs: bool, samples: int, shares: int) -> bool:
    """Whether a measuring loop should run another operation."""
    elapsed = time.perf_counter() - start
    if not done_inputs or elapsed < seconds:
        return True
    return samples * shares < MIN_SAMPLES and elapsed < OVERRUN * seconds


class Calibrator:
    """Machine-speed yardstick sampled between operations.

    The benchmark shares its machine, whose speed moves by large
    factors from minute to minute and from one process to the next.  A
    fixed slice of work — dict and integer work like the program's
    scheduling loops, and a numpy sort like its batch kernels — is
    timed at least every ``every`` seconds, always outside the timed
    operations.  ``factor`` is this process's speed relative to a
    reference machine on which the upper-quartile slice takes
    ``REFERENCE_MS``; host times are reported multiplied by it.

    The upper quartile, not the median: within one process the speed
    flickers, faster than any slice can follow, between a contended
    state and moments of up to 1.5x more speed.  The contended state is
    the steady one from process to process; the fast moments come and
    go, shorten the slice far more than the program's operations, and
    pulled a median-calibrated ``reschedule_ms_p90`` up by a fifth in
    any process that had many of them.
    """

    REFERENCE_MS = 8.0

    def __init__(self, every: float = 0.25) -> None:
        import numpy

        self.every = every
        self.samples_ms: List[float] = []
        self._last = float("-inf")
        self._array = numpy.random.default_rng(0).random(400_000)

    def slice(self) -> float:
        start = time.perf_counter()
        table: Dict[int, int] = {}
        for i in range(20_000):
            key = i & 4095
            table[key] = table.get(key, 0) + i * i % 7
        (self._array * 1.5 + 2.0).sort()
        elapsed = (time.perf_counter() - start) * 1e3
        self.samples_ms.append(elapsed)
        self._last = time.perf_counter()
        return elapsed

    def maybe(self) -> None:
        """Take a slice if the last one is older than ``every`` seconds."""
        if time.perf_counter() - self._last >= self.every:
            self.slice()

    @property
    def upper_ms(self) -> float:
        if not self.samples_ms:
            self.slice()
        return percentile(self.samples_ms, 75)

    @property
    def factor(self) -> float:
        return self.REFERENCE_MS / self.upper_ms


def derive_seeds(label: str, seed: int, count: int) -> List[int]:
    """``count`` input seeds for workload ``label`` from the run seed."""
    rng = random.Random(f"{label}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def float_digest(values: Sequence[float], extra: Sequence[int] = ()) -> str:
    """Exact digest of a float sequence (bit patterns, not decimals)."""
    h = hashlib.sha256()
    h.update(struct.pack(f"<{len(values)}d", *values))
    h.update(struct.pack(f"<{len(extra)}q", *extra))
    return h.hexdigest()[:16]


def _json_digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _share(count: int, share: int, shares: int) -> List[int]:
    """The input indices process ``share`` of ``shares`` runs."""
    return [k for k in range(count) if k % shares == share]


@dataclass
class Measurement:
    """What one process measured.

    ``durations`` are host seconds, scaled to the reference machine by
    ``factor`` when :func:`merge` pools them; ``values`` are per-input
    results keyed by input (they do not depend on the machine);
    ``digests`` are per-input output digests, which must agree across
    processes.
    """

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    durations: Dict[str, List[float]] = field(default_factory=dict)
    values: Dict[str, float] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    sizes: Dict[str, int] = field(default_factory=dict)
    factor: float = 1.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: traced runs only: the program's own stage timings (seconds) over
    #: the traced half, per-layer extras, and the host time of each half
    stages: Dict[str, float] = field(default_factory=dict)
    layer_extras: Dict[str, float] = field(default_factory=dict)
    untraced_s: float = 0.0
    traced_s: float = 0.0

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(why)

    def time(self, name: str, seconds: float) -> None:
        self.durations.setdefault(name, []).append(seconds)

    def check(self, key: str, digest: str) -> bool:
        """Record the digest of input ``key``; a repeat must match it."""
        first = self.digests.setdefault(key, digest)
        return first == digest

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "Measurement":
        return cls(**json.loads(text))


def merge(parts: List[Measurement]) -> Tuple[Measurement, Dict[str, List[float]], Dict[str, List[float]]]:
    """Pool per-process measurements.

    Returns the pooled measurement (with raw durations) and the pooled
    durations scaled to the reference machine and left raw.  An input
    whose digest differs between processes fails once.
    """
    total = Measurement(sizes={})
    scaled: Dict[str, List[float]] = {}
    raw: Dict[str, List[float]] = {}
    for part in parts:
        total.attempted += part.attempted
        total.failed += part.failed
        total.failures.extend(part.failures)
        total.values.update(part.values)
        for key, digest in part.digests.items():
            total.attempted += 1
            if not total.check(key, digest):
                total.fail(1, f"{key} gives different outputs in different processes")
        for key, count in part.sizes.items():
            total.sizes[key] = total.sizes.get(key, 0) + count if key in _ADDITIVE else count
        for name, seconds in part.durations.items():
            raw.setdefault(name, []).extend(seconds)
            scaled.setdefault(name, []).extend(s * part.factor for s in seconds)
    total.failures = total.failures[:20]
    return total, scaled, raw


#: Size keys that add up across processes (the rest describe the input).
_ADDITIVE = {
    "passes", "instances", "reschedules", "paths_enumerated", "sweep_calls", "warm_passes",
}


@contextmanager
def _instrumented(tracer: Optional[spans_mod.SpanTracer], name: str) -> Iterator[None]:
    """Install the span wrappers and a benchmark root span, if tracing."""
    if tracer is None:
        yield
        return
    with spans_mod.instrument(tracer), tracer.span(name, "bench"):
        yield


# ----------------------------------------------------------------------
# Adaptive workloads
# ----------------------------------------------------------------------
@dataclass
class _PassResult:
    energies: List[float]
    call_instances: List[int]
    latencies: List[float]
    replays: List[float]
    quiet_observes: List[float]
    loop_s: float
    pass_s: float
    ops: int
    failed_ops: int
    error: str = ""
    unchanged_mappings: int = 0
    stages: Optional[object] = None

    @property
    def digest(self) -> str:
        return float_digest(self.energies, self.call_instances)


class AdaptiveWorkload:
    """Drifting branch traces replayed through the adaptive controller.

    Mirrors :func:`repro.sim.runner.run_adaptive`: each instance runs on
    the current schedule, its executed branch decisions go to
    ``AdaptiveController.observe``, and a re-schedule swaps in a new
    ``InstanceExecutor``.  Each pass replays one trace with a fresh
    controller, so the path cache starts empty every pass.  Every run
    replays every trace at least once; the rates, the energy and the
    output digest are taken over the whole set, each trace counted
    once, so which traces a run happened to repeat does not move them.

    Every pass starts with a full garbage collection, outside its
    timing.  The fresh controller of each pass leaves the previous
    pass's schedules behind as garbage; without the collection, a
    full collection of that benchmark-made garbage lands inside some
    re-schedule or other at random and adds about 80 ms to it, which
    makes ``reschedule_ms_p90`` on MPEG jump from run to run.  With it,
    every replay of a trace sees the collections its own work causes.
    """

    def __init__(self, name: str, app: str, deadline_factor: float, seed: int, size: str) -> None:
        self.name = name
        self.app = app
        self.deadline_factor = deadline_factor
        sizes = SIZES[size]
        self.length = sizes[f"{app}_trace"]
        self.trace_seeds = derive_seeds(name, seed, sizes[f"{app}_traces"])

    def setup(self) -> None:
        from repro import workloads
        from repro.adaptive.controller import AdaptiveConfig, AdaptiveController
        from repro.scheduling.online import set_deadline_from_makespan

        self.ctg = getattr(workloads, f"{self.app}_ctg")()
        self.platform = getattr(workloads, f"{self.app}_platform")()
        set_deadline_from_makespan(self.ctg, self.platform, self.deadline_factor)
        self.traces = [
            workloads.drifting_trace(self.ctg, self.length, seed=s) for s in self.trace_seeds
        ]
        self.branches = self.ctg.branch_nodes()
        self.config = AdaptiveConfig(window_size=WINDOW, threshold=THRESHOLD)
        # the initial schedule a user waits for before the first instance
        AdaptiveController(self.ctg, self.platform, self.ctg.default_probabilities, self.config)

    def run_pass(self, k: int, tracer: Optional[spans_mod.SpanTracer] = None, tag: str = "") -> _PassResult:
        """Replay trace ``k`` with a fresh controller.

        With a tracer, the operation id of each span is ``<tag>.e<n>``:
        the n-th schedule of the pass, from the ``observe`` call that
        built it to the last instance that ran on it.
        """
        from repro.adaptive.controller import AdaptiveController
        from repro.profiling import StageProfiler
        from repro.scheduling.pathcache import schedule_fingerprint
        from repro.sim.executor import InstanceExecutor

        trace = self.traces[k]
        branches = self.branches
        stats = StageProfiler()
        perf = time.perf_counter
        energies: List[float] = []
        latencies: List[float] = []
        replays: List[float] = []
        quiet: List[float] = []
        ops, failed_ops, epoch_missed = 1, 0, False
        unchanged = 0
        error = ""
        if tracer is not None:
            tracer.op = f"{tag}.e0"
        start = perf()
        controller = AdaptiveController(
            self.ctg, self.platform, self.ctg.default_probabilities, self.config,
            stage_profiler=stats,
        )
        executor = InstanceExecutor(controller.schedule, profiler=stats)
        fingerprint = schedule_fingerprint(controller.schedule) if tracer is not None else None
        loop_start = perf()
        try:
            for vector in trace:
                a = perf()
                outcome = executor.run(vector)
                b = perf()
                replays.append(b - a)
                energies.append(outcome.energy)
                if not outcome.deadline_met:
                    epoch_missed = True
                executed = {br: vector[br] for br in branches if br in outcome.scenario.active}
                mark = len(tracer.spans) if tracer is not None else 0
                fallbacks = stats.counter("reschedule.fallback")
                changed = controller.observe(executed)
                c = perf()
                if not changed:
                    quiet.append(c - b)
                    continue
                latencies.append(c - b)
                failed_ops += epoch_missed
                epoch_missed = stats.counter("reschedule.fallback") > fallbacks
                ops += 1
                executor = InstanceExecutor(controller.schedule, profiler=stats)
                if tracer is not None:
                    op = f"{tag}.e{ops - 1}"
                    for span in tracer.spans[mark:]:
                        span.op = op
                    tracer.op = op
                    new = schedule_fingerprint(controller.schedule)
                    unchanged += new == fingerprint
                    fingerprint = new
        except Exception as exc:  # a raising re-schedule fails its op and ends the pass
            error = f"{type(exc).__name__}: {exc}"
            epoch_missed = True
        end = perf()
        failed_ops += epoch_missed
        return _PassResult(
            energies=energies,
            call_instances=list(controller.call_log) if not error else [],
            latencies=latencies,
            replays=replays,
            quiet_observes=quiet,
            loop_s=end - loop_start,
            pass_s=end - start,
            ops=ops,
            failed_ops=failed_ops,
            error=error,
            unchanged_mappings=unchanged,
            stages=stats,
        )

    def measure(self, seconds: float, cal: Calibrator, tracer: Optional[spans_mod.SpanTracer] = None,
                share: int = 0, shares: int = 1) -> Measurement:
        from repro.ctg.minterms import enumerate_scenarios

        m = Measurement()
        mine = _share(len(self.traces), share, shares)
        # a traced run times every input twice, so it need not cover them all
        needed = 1 if tracer is not None else len(mine)
        passes: List[_PassResult] = []
        traced: List[_PassResult] = []
        start = time.perf_counter()
        reschedules = 0
        i = 0
        while _keep_going(start, seconds, i >= needed, reschedules, shares):
            cal.maybe()
            k = mine[i % len(mine)]
            gc.collect()
            result = self.run_pass(k)
            self._account(m, k, result, "untraced")
            if i < len(mine) and not result.error:
                m.values[f"energy{k}"] = sum(result.energies)
            passes.append(result)
            reschedules += len(result.latencies)
            m.time(f"pass{k}", result.pass_s)
            m.time(f"loop{k}", result.loop_s)
            for name, samples in (("replay", result.replays), ("quiet", result.quiet_observes),
                                  ("latency", result.latencies)):
                m.durations.setdefault(name, []).extend(samples)
            m.untraced_s += result.pass_s
            if tracer is not None:
                gc.collect()
                with _instrumented(tracer, "bench.pass"):
                    again = self.run_pass(k, tracer, f"pass{i}")
                self._account(m, k, again, "traced")
                traced.append(again)
                m.traced_s += again.pass_s
                for name, value in again.stages.timings.items():
                    m.stages[name] = m.stages.get(name, 0.0) + value
            i += 1
        if share == 0:
            self._check_run_adaptive(m, passes[0])
        m.sizes = {
            "tasks": len(self.ctg.tasks()),
            "scenarios": len(enumerate_scenarios(self.ctg)),
            "trace_length": self.length,
            "traces": len(self.traces),
            "passes": len(passes),
            "instances": sum(len(p.energies) for p in passes),
            "reschedules": reschedules,
            "paths_enumerated": int(sum(p.stages.counter("paths.enumerated") for p in passes)),
        }
        if tracer is not None:
            done = sum(len(p.latencies) for p in traced)
            m.layer_extras = {
                "adaptive.reschedule_ratio": done / sum(len(p.energies) for p in traced),
                "adaptive.unchanged_mapping_ratio": (
                    sum(p.unchanged_mappings for p in traced) / done if done else 0.0
                ),
                "tasks": float(len(self.ctg.tasks())),
            }
        return m

    def complete(self, m: Measurement) -> None:
        """Check that the pooled run covered every trace; add the input
        and output digests."""
        missing = [k for k in range(len(self.traces)) if f"energy{k}" not in m.values]
        if missing or not m.sizes.get("reschedules"):
            m.fail(1, f"traces {missing} did not run, or nothing re-scheduled")
        m.digests["input"] = float_digest([], self.trace_seeds)
        m.digests["output"] = _json_digest([m.digests.get(f"trace{k}") for k in range(len(self.traces))])

    def summarise(self, values: Dict[str, float], d: Dict[str, List[float]]) -> Dict[str, float]:
        """End-to-end metrics from pooled durations ``d``.

        Medians of many short timings: a burst of machine noise moves a
        total, not a median.  Each trace counts once, with the median
        time of its replays, so every run weighs the same input alike.
        """
        traces = range(len(self.trace_seeds))
        energies = [values.get(f"energy{k}", 0.0) for k in traces]
        latencies = d.get("latency") or [0.0]
        loop_s = sum(statistics.median(d[f"loop{k}"]) for k in traces)
        return {
            "instances_per_s": len(traces) * self.length / loop_s,
            "shared_instances_per_s": 1.0 / statistics.median(d["replay"]),
            "reschedule_ms_p50": percentile(latencies, 50) * 1e3,
            "reschedule_ms_p90": percentile(latencies, 90) * 1e3,
            "energy_per_instance": sum(energies) / (len(traces) * self.length),
            "cold_sweep_s": sum(statistics.median(d[f"pass{k}"]) for k in traces),
            "warm_cells_per_s": 1.0 / statistics.median(d["quiet"]),
        }

    def _account(self, m: Measurement, k: int, result: _PassResult, label: str) -> None:
        m.attempted += result.ops
        if result.error:
            m.fail(result.failed_ops, f"{label} pass on trace {k} raised {result.error}")
            return
        if result.failed_ops:
            m.fail(result.failed_ops, f"{label} pass on trace {k}: deadline miss or fallback")
        if len(result.energies) != self.length:
            m.fail(result.ops, f"{label} pass on trace {k} ran {len(result.energies)} instances")
        elif not m.check(f"trace{k}", result.digest):
            m.fail(result.ops, f"{label} pass on trace {k} differs from its first run")

    def _check_run_adaptive(self, m: Measurement, first: _PassResult) -> None:
        """The benchmark's loop must reproduce ``run_adaptive`` exactly."""
        from repro.sim.runner import run_adaptive

        reference = run_adaptive(
            self.ctg, self.platform, self.traces[0], self.ctg.default_probabilities, self.config
        )
        m.attempted += 1
        if reference.energies != first.energies or reference.call_instances != first.call_instances:
            m.fail(1, "benchmark loop disagrees with run_adaptive on trace 0")


# ----------------------------------------------------------------------
# Monte-Carlo workload
# ----------------------------------------------------------------------
class MonteCarloWorkload:
    """Repeated ``monte_carlo`` sweeps over one MPEG schedule.

    Two passes alternate on each sampling seed: per-instance work
    ratios drawn from ``WCET_RANGE`` (every instance evaluated on its
    own), and no work variation (each scenario evaluated once and
    shared by the instances that sample it).
    """

    name = "mpeg-montecarlo"

    def __init__(self, seed: int, size: str) -> None:
        sizes = SIZES[size]
        self.n = sizes["mc_n"]
        self.seeds = derive_seeds(self.name, seed, sizes["mc_seeds"])

    def setup(self) -> None:
        from repro import batch
        from repro.ctg.minterms import CtgAnalysis
        from repro.scheduling import online
        from repro.workloads import mpeg_ctg, mpeg_platform

        self.ctg, self.platform = mpeg_ctg(), mpeg_platform()
        online.set_deadline_from_makespan(self.ctg, self.platform, 1.5)
        analysis = CtgAnalysis.of(self.ctg)
        schedule = online.schedule_online(self.ctg, self.platform, analysis=analysis).schedule
        self.batch = batch.BatchSchedule.from_ctg(schedule, analysis)

    def measure(self, seconds: float, cal: Calibrator, tracer: Optional[spans_mod.SpanTracer] = None,
                share: int = 0, shares: int = 1) -> Measurement:
        from repro.profiling import StageProfiler

        m = Measurement()
        mine = _share(len(self.seeds), share, shares)
        traced_stats = StageProfiler()
        start = time.perf_counter()
        i = 0
        while _keep_going(start, seconds, i >= len(mine), len(m.durations.get("per_instance", [])), shares):
            k = mine[i % len(mine)]
            for shared in (False, True):
                cal.maybe()
                kind = "shared" if shared else "per_instance"
                elapsed, result = self._op(m, k, shared, StageProfiler())
                m.time(kind, elapsed)
                m.untraced_s += elapsed
                if i < len(mine) and not shared and result is not None:
                    m.values[f"energy{k}"] = float(result.energies.mean())
                if tracer is not None:
                    tracer.op = f"call{i}.{kind}"
                    with _instrumented(tracer, "bench.sweep"):
                        elapsed, _ = self._op(m, k, shared, traced_stats)
                    m.traced_s += elapsed
            i += 1
        m.sizes = {
            "tasks": self.batch.n_tasks,
            "scenarios": self.batch.n_scenarios,
            "n": self.n,
            "seeds": len(self.seeds),
            "sweep_calls": 2 * i,
        }
        if tracer is not None:
            m.stages = dict(traced_stats.timings)
            m.layer_extras = {"tasks": float(self.batch.n_tasks)}
        return m

    def complete(self, m: Measurement) -> None:
        missing = [k for k in range(len(self.seeds)) if f"energy{k}" not in m.values]
        if missing:
            m.fail(1, f"sampling seeds {missing} did not run")
        m.digests["output"] = _json_digest(sorted(m.digests.items()))
        m.digests["input"] = float_digest([], self.seeds)

    def summarise(self, values: Dict[str, float], d: Dict[str, List[float]]) -> Dict[str, float]:
        energies = [values.get(f"energy{k}", 0.0) for k in range(len(self.seeds))]
        per_instance = statistics.median(d["per_instance"])
        shared = statistics.median(d["shared"])
        return {
            "instances_per_s": self.n / per_instance,
            "shared_instances_per_s": self.n / shared,
            "reschedule_ms_p50": percentile(d["per_instance"], 50) * 1e3,
            "reschedule_ms_p90": percentile(d["per_instance"], 90) * 1e3,
            "energy_per_instance": statistics.fmean(energies),
            "cold_sweep_s": len(self.seeds) * (per_instance + shared),
            "warm_cells_per_s": 2.0 / (per_instance + shared),
        }

    def _op(self, m: Measurement, k: int, shared: bool, profiler):
        from repro import batch

        key = f"seed{k}.{'shared' if shared else 'per_instance'}"
        m.attempted += 1
        start = time.perf_counter()
        try:
            result = batch.monte_carlo(
                self.ctg,
                self.platform,
                self.n,
                seed=self.seeds[k],
                batch=self.batch,
                wcet_range=None if shared else WCET_RANGE,
                profiler=profiler,
            )
        except Exception as exc:  # a raising sweep is a failed operation
            m.fail(1, f"sweep {key} raised {type(exc).__name__}: {exc}")
            return 0.0, None
        elapsed = time.perf_counter() - start
        digest = float_digest(result.energies.tolist(), result.scenario_indices.tolist())
        if result.n != self.n or len(result.energies) != self.n:
            m.fail(1, f"sweep {key} returned {len(result.energies)} of {self.n} instances")
        elif not bool(result.deadline_met.all()):
            m.fail(1, f"sweep {key} has deadline misses")
        elif not m.check(key, digest):
            m.fail(1, f"sweep {key} differs from its first run")
        return elapsed, result


# ----------------------------------------------------------------------
# Experiment sweep workload
# ----------------------------------------------------------------------
@dataclass
class _Sweep:
    """Totals of one sweep over the smoke specs."""

    seconds: float = 0.0
    cells: int = 0
    instances: int = 0
    latencies: List[float] = field(default_factory=list)


class SmokeSweepWorkload:
    """The ``--smoke`` experiment specs through ``run_spec``.

    Process 0 runs every spec cold into a fresh directory cache (once:
    it takes about 10 s, on top of the time budget); then every process
    re-runs them against that cache for its whole share of the budget,
    where every cell must be a hit.  Cell values and canonical
    artifacts must not change between passes or processes.  The inputs
    are the fixed smoke specs, so the seed only names the run.
    """

    name = "smoke-sweep"

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.only = SIZES[size]["smoke_specs"]
        self.workdir = workdir
        self.jobs = min(2, os.cpu_count() or 1)

    def setup(self) -> None:
        from repro.__main__ import EXPERIMENTS

        names = [n for n in EXPERIMENTS if self.only is None or n in self.only]
        self.specs = [EXPERIMENTS[n](True) for n in names]

    def sweep(self, cache, m: Measurement, label: str, warm: bool, cal: Calibrator,
              tracer: Optional[spans_mod.SpanTracer] = None) -> _Sweep:
        """Run every spec once against ``cache``."""
        from repro import experiments

        out = _Sweep()
        for spec in self.specs:
            cal.maybe()
            m.attempted += len(spec.cells)
            if tracer is not None:
                tracer.op = f"{label}.{spec.name}"
            start = time.perf_counter()
            try:
                report = experiments.run_spec(spec, jobs=self.jobs, cache=cache)
            except Exception as exc:  # the spec's cells all fail
                m.fail(len(spec.cells), f"{label} {spec.name} raised {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            out.latencies.append(elapsed)
            out.seconds += elapsed
            out.cells += len(report.cells)
            canonical = experiments.canonical_artifact_payload(report)
            if not m.check(f"{spec.name}.artifact", _json_digest(canonical)):
                m.fail(len(spec.cells), f"{label} {spec.name} canonical artifact changed")
            for cell in report.cells:
                counters = (cell.profile or {}).get("counters", {})
                out.instances += int(counters.get("executor.instances", 0))
                out.instances += int(counters.get("batch.instances", 0))
                if spec.name == "montecarlo":
                    m.values[f"mc.{cell.key}.n"] = cell.values["n"]
                    m.values[f"mc.{cell.key}.energy"] = cell.values["mean_energy"]
                if warm and not cell.cached:
                    m.fail(1, f"{label} {spec.name}/{cell.key} missed a warm cache")
                elif not m.check(f"{spec.name}/{cell.key}", _json_digest(cell.values)):
                    m.fail(1, f"{label} {spec.name}/{cell.key} values changed")
        return out

    def measure(self, seconds: float, cal: Calibrator, tracer: Optional[spans_mod.SpanTracer] = None,
                share: int = 0, shares: int = 1) -> Measurement:
        from repro import experiments

        m = Measurement()
        arms = [(None, "pass")] + ([(tracer, "traced")] if tracer is not None else [])
        caches = {label: experiments.CellCache(self.workdir / label) for _, label in arms}
        if share == 0:
            for arm, label in arms:
                with _instrumented(arm, "bench.pass"):
                    cold = self.sweep(caches[label], m, f"{label}.cold", False, cal, arm)
                if arm is None:
                    m.time("cold", cold.seconds)
                    m.values["cold_instances"] = cold.instances
                    m.values["cells"] = cold.cells
                    m.untraced_s += cold.seconds
                else:
                    m.traced_s += cold.seconds
            # Slices taken while pool workers held the cores would make
            # this process's speed factor lower than that of the warm
            # passes it mostly scales; calibrate on the warm phase only.
            cal.samples_ms.clear()
        # the cold pass is not part of the budget: every process gives
        # its whole share to warm passes
        start = time.perf_counter()
        w = 0
        while _keep_going(start, seconds, w > 0, len(m.durations.get("warm_spec", [])), shares):
            for arm, label in arms:
                with _instrumented(arm, "bench.pass"):
                    swept = self.sweep(caches[label], m, f"{label}.warm{w}", True, cal, arm)
                if arm is None:
                    m.time("warm_pass", swept.seconds)
                    m.durations.setdefault("warm_spec", []).extend(swept.latencies)
                    m.untraced_s += swept.seconds
                else:
                    m.traced_s += swept.seconds
            w += 1
        m.sizes = {
            "specs": len(self.specs),
            "cells": sum(len(s.cells) for s in self.specs),
            "jobs": self.jobs,
            "warm_passes": w,
        }
        return m

    def complete(self, m: Measurement) -> None:
        if "cold_instances" not in m.values or not any(k.startswith("mc.") for k in m.values):
            m.fail(1, "the cold pass did not complete")
        m.digests["output"] = _json_digest(sorted(m.digests.items()))

    def summarise(self, values: Dict[str, float], d: Dict[str, List[float]]) -> Dict[str, float]:
        keys = sorted({k.split(".")[1] for k in values if k.startswith("mc.")})
        weights = [values[f"mc.{k}.n"] for k in keys]
        energies = [values[f"mc.{k}.energy"] for k in keys]
        warm_pass = statistics.median(d["warm_pass"])
        return {
            "instances_per_s": values["cold_instances"] / d["cold"][0],
            "shared_instances_per_s": values["cold_instances"] / warm_pass,
            "reschedule_ms_p50": percentile(d["warm_spec"], 50) * 1e3,
            "reschedule_ms_p90": percentile(d["warm_spec"], 90) * 1e3,
            "energy_per_instance": sum(n * e for n, e in zip(weights, energies)) / sum(weights),
            "cold_sweep_s": d["cold"][0],
            "warm_cells_per_s": values["cells"] / warm_pass,
        }


def make(name: str, seed: int, size: str, workdir: Path):
    """The workload object for a benchmark workload name."""
    if name == "cruise-adaptive":
        return AdaptiveWorkload(name, "cruise", 2.0, seed, size)
    if name == "mpeg-adaptive":
        return AdaptiveWorkload(name, "mpeg", 1.5, seed, size)
    if name == "mpeg-montecarlo":
        return MonteCarloWorkload(seed, size)
    if name == "smoke-sweep":
        return SmokeSweepWorkload(seed, size, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("cruise-adaptive", "mpeg-adaptive", "mpeg-montecarlo", "smoke-sweep")


def cleanup(workload) -> None:
    """Remove the workload's scratch directory, if it made one."""
    workdir = getattr(workload, "workdir", None)
    if workdir is not None:
        shutil.rmtree(workdir, ignore_errors=True)
