"""Lightweight stage timers and counters for the re-scheduling hot path.

The paper's adaptive framework only pays off when the re-scheduling
step itself is cheap (§III.B motivates the drift threshold with exactly
this overhead argument), so the hot path — DLS, path analytics,
stretching, executor replay — is instrumented end to end.  A
:class:`StageProfiler` is threaded through
:func:`repro.scheduling.online.schedule_online`, the
:class:`~repro.adaptive.controller.AdaptiveController` and the trace
runner; the aggregate lands on ``OnlineResult.profile`` and
``RunResult.profile`` so experiments and benches can report where the
adaptation time goes.

Design constraints:

* **near-zero overhead** — a stage costs two ``perf_counter`` calls and
  two dict updates; call sites that receive no profiler use the shared
  :data:`NULL_PROFILER`, whose methods are no-ops, so the hot loops
  carry no ``if profiler is not None`` branching;
* **mergeable** — sub-profiles (e.g. one per re-scheduling call) fold
  into a run-level aggregate with :meth:`StageProfiler.merge`;
* **plain data** — timings/counters are ordinary dicts, trivially
  serialisable for experiment reports;
* **one recorder** — a profiler built with ``tracer=`` (a
  :class:`repro.obs.trace.Tracer`) additionally records one wall-clock
  span per stage block, one point event per :data:`EVENT_COUNTERS`
  bump and every :meth:`StageProfiler.event`, while its dicts stay
  exactly what an untraced run produces.  Untraced profilers carry
  :data:`~repro.obs.trace.NULL_TRACER`; the untraced path pays one
  ``tracer.enabled`` check per stage or counter bump.

The stage/counter/event/ledger vocabulary is *declared* in
:data:`repro.obs.metrics.VOCABULARY`; the table below is generated
by :func:`repro.obs.metrics.vocabulary_table` and drift-tested
(``tests/test_obs_vocabulary.py``) — edit the declaration, then
re-render, never the table text:

================================  =========  =========  ================================================
name                              kind       canonical  description
================================  =========  =========  ================================================
``online``                        timer                 one full ``schedule_online`` invocation
``online.fallback``               timer                 full-speed DLS fallback scheduling stage
``dls``                           timer                 mapping/ordering stage
``dls.levels``                    timer                 static-level computation inside DLS
``stretch``                       timer                 slack-distribution stage (total)
``stretch.structure``             timer                 path enumeration + scenario-mask construction
``stretch.refresh``               timer                 probability-dependent table refresh
``stretch.sweep``                 timer                 the per-task CalculateSlack sweep
``executor.replay``               timer                 per-instance schedule replay in the simulator
``executor.replay_faulted``       timer                 dual-arm replay of a fault-injected instance
``batch.sweep``                   timer                 batched Monte-Carlo sampling + evaluation kernel
``check``                         timer                 static verification inside ``schedule_online(check=True)``
``dls.tasks_placed``              counter               tasks placed by the DLS mapping stage
``dls.candidates_evaluated``      counter               (task, PE) candidates DLS evaluated, not served from its cache
``paths.enumerated``              counter               paths enumerated on structural cache misses
``path_cache.hit``                counter               structural path-analytics cache hits
``path_cache.miss``               counter               structural path-analytics cache misses
``prob_cache.hit``                counter               probability-tier (prob_after) cache hits
``prob_cache.miss``               counter               probability-tier (prob_after) cache misses
``stretch.prune_fallback``        counter               all-paths-pruned fallbacks to unpruned stretching
``executor.instances``            counter               CTG instances replayed by the executor
``executor.faulted_instances``    counter               instances replayed with faults applied
``reschedule.calls``              counter               adaptive re-invocations of the online algorithm
``reschedule.emergency``          counter               out-of-band invocations after an unrecovered miss
``reschedule.dropped``            counter               invocations lost to an injected drop fault
``reschedule.delayed``            counter               invocations deferred by an injected delay fault
``reschedule.fallback``           counter               full-speed fallback schedules installed on failure
``batch.instances``               counter               instances evaluated by the batched Monte-Carlo kernel
``fault.injected``                counter               faults resolved from the plan and applied
``fault.threatened``              counter               instances whose no-policy arm missed the deadline
``fault.escalations``             counter               overrun detections that escalated remaining tasks
``fault.corrupted_observations``  counter               branch labels rotated before the estimator
``fault.quantization_loss``       counter               misses attributable to a capped frequency table alone
``policy.quantized``              counter               task speeds rounded up onto a discrete level
``policy.refined``                counter               discrete levels lowered by the slack-refinement pass
``policy.eaps_configs``           counter               (frequency, core-count) configurations enumerated by EAPS
``executor.reclaimed``            counter               tasks whose completion slack was reclaimed at a preemption point
``check.passes``                  counter               clean ``schedule_online(check=True)`` verifications
``modal.pseudo_edge_skips``       counter               implied-edge injections skipped as cycle-closing
``cache.backend.hit``             counter               cell-cache entries served by the storage backend
``cache.backend.miss``            counter               cell-cache lookups the backend could not serve
``cache.backend.corrupt``         counter               backend entries rejected as corrupt (recomputed)
``cache.backend.put``             counter               cell results persisted to the storage backend
``engine.stream.flushed``         counter               cell results streamed through the reorder buffer
``engine.stream.peak_resident``   counter               reorder-buffer high-water mark (bounded by the window)
``engine.stream.resumed``         counter               cells skipped via warm entries under ``--resume``
``drift.detected``                event                 windowed branch drift crossed the threshold
``reschedule.invoked``            event                 the controller (re)invoked the online algorithm
``sim.fault``                     event                 one injected fault, on its instance's sim timeline
``sim.reschedule``                event                 a new schedule took effect (sim timeline)
``sim.escalation``                event                 the watchdog escalated remaining tasks (sim timeline)
``sim.recovered``                 event                 policy arm recovered a threatened instance
``sim.unrecovered``               event                 policy arm missed the deadline despite recovery
``run.reschedule_latency``        histogram             per-call ``schedule_online`` wall-clock latency
``run.energy_per_instance``       histogram             per-instance energy distribution
``run.total_energy``              gauge                 summed instance energy of the run
``run.instances``                 gauge                 replayed CTG instances
``run.reschedule_calls``          gauge                 re-scheduling call count of the run
``run.deadline_misses``           gauge                 instances finishing past the deadline
``run.recovery_rate``             gauge                 recovered / threatened instances (faulted runs)
``ledger.opened``                 ledger     yes        ledger header: the schema of this event stream
``sweep.started``                 ledger     yes        one engine run began (cell count declared up front)
``cell.submitted``                ledger     no         cell dispatched to the worker pool (submission order)
``cell.cached``                   ledger     no         cell served from a warm cache entry
``cell.resumed``                  ledger     no         warm cell skipped under ``--resume``
``cell.flushed``                  ledger     no         computed cell streamed out of the reorder buffer
``cell.completed``                ledger     yes        cell final in declaration order, however it was produced
``cell.recovery``                 ledger     yes        fault/recovery escalation counts replayed from a cell's profile
``sweep.finished``                ledger     yes        the engine run reduced and returned
================================  =========  =========  ================================================
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import ContextManager, Dict, Optional

from .obs.metrics import VOCABULARY
from .obs.trace import NULL_TRACER, Tracer

#: Counters declared ``traced`` in :data:`~repro.obs.metrics.VOCABULARY`,
#: whose bumps double as point events on the trace timeline (cache hits
#: and misses); everything else stays a pure aggregate — re-schedule
#: and fault events are emitted explicitly by the controller and
#: runners with richer attributes.
EVENT_COUNTERS = frozenset(spec.name for spec in VOCABULARY if spec.traced)


@dataclass
class StageProfiler:
    """Accumulating stage timings and event counters.

    Attributes
    ----------
    timings:
        Stage name → total seconds spent inside :meth:`stage` blocks.
    calls:
        Stage name → number of times the stage was entered.
    counters:
        Counter name → accumulated count (:meth:`count`).
    tracer:
        Where stage spans and point events go (default
        :data:`~repro.obs.trace.NULL_TRACER`, which drops them).  Not
        part of the profile: :meth:`to_dict`, :meth:`from_dict`,
        :meth:`merge` and equality ignore it.
    """

    timings: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    tracer: Tracer = field(default=NULL_TRACER, repr=False, compare=False)

    def stage(self, name: str) -> ContextManager[None]:
        """Time a ``with``-block under ``name`` (re-entrant, additive).

        With an enabled tracer the block is also recorded as a
        ``category="stage"`` span, opened before the timer starts and
        closed after the dicts are updated (on an exception too).
        """
        return _Stage(self, name)

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a named counter; traced, :data:`EVENT_COUNTERS` bumps
        are also recorded as ``category="counter"`` events."""
        self.counters[name] = self.counters.get(name, 0) + amount
        if self.tracer.enabled and name in EVENT_COUNTERS:
            self.tracer.event(name, category="counter", amount=amount)

    def event(self, name: str, **attrs: object) -> None:
        """Forward a point event to the tracer.

        Call sites emit drift/re-schedule/fault events unconditionally;
        on the default :data:`~repro.obs.trace.NULL_TRACER` this is a
        no-op, and events never alter the ``profile`` dicts.
        """
        self.tracer.event(name, **attrs)

    def merge(self, other: "StageProfiler") -> None:
        """Fold another profiler's data into this one."""
        for name, value in other.timings.items():
            self.timings[name] = self.timings.get(name, 0.0) + value
        for name, value in other.calls.items():
            self.calls[name] = self.calls.get(name, 0) + value
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict snapshot (JSON-ready) of timings/calls/counters.

        The experiment engine ships these across process boundaries and
        into on-disk cache entries; :meth:`from_dict` restores them.
        """
        return {
            "timings": dict(self.timings),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }

    @classmethod
    def from_dict(cls, payload: Optional[Dict[str, Dict[str, float]]]) -> "StageProfiler":
        """Rebuild a profiler from :meth:`to_dict` output (``None`` → empty)."""
        payload = payload or {}
        return cls(
            timings={str(k): float(v) for k, v in (payload.get("timings") or {}).items()},
            calls={str(k): int(v) for k, v in (payload.get("calls") or {}).items()},
            counters={str(k): int(v) for k, v in (payload.get("counters") or {}).items()},
        )

    def timing(self, name: str) -> float:
        """Total seconds recorded for a stage (0.0 if never entered)."""
        return self.timings.get(name, 0.0)

    def counter(self, name: str) -> int:
        """Value of a counter (0 if never bumped)."""
        return self.counters.get(name, 0)

    def format(self) -> str:
        """Human-readable two-column report of timings then counters."""
        lines = []
        if self.timings:
            width = max(len(n) for n in self.timings)
            lines.append("stage timings:")
            for name in sorted(self.timings):
                lines.append(
                    f"  {name:<{width}}  {self.timings[name] * 1e3:10.3f} ms"
                    f"  ({self.calls.get(name, 0)}x)"
                )
        if self.counters:
            width = max(len(n) for n in self.counters)
            lines.append("counters:")
            for name in sorted(self.counters):
                lines.append(f"  {name:<{width}}  {self.counters[name]}")
        return "\n".join(lines) if lines else "(no profiling data)"


class _Stage:
    """One :meth:`StageProfiler.stage` block.

    A slotted class rather than a ``@contextmanager`` generator: the
    executor times every replayed instance, and a generator's set-up
    and tear-down, which fall outside the timed window, are a sizeable
    fraction of a short replay.
    """

    __slots__ = ("_prof", "_name", "_span", "_start")

    def __init__(self, prof: StageProfiler, name: str) -> None:
        self._prof = prof
        self._name = name

    def __enter__(self) -> None:
        tracer = self._prof.tracer
        self._span = tracer.span(self._name, category="stage") if tracer.enabled else None
        if self._span is not None:
            self._span.__enter__()
        self._start = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._start
        prof, name = self._prof, self._name
        prof.timings[name] = prof.timings.get(name, 0.0) + elapsed
        prof.calls[name] = prof.calls.get(name, 0) + 1
        if self._span is not None:
            self._span.__exit__(None, None, None)


#: The block of every null-profiler stage (``nullcontext`` is reusable).
_NO_STAGE: ContextManager[None] = nullcontext()


class _NullProfiler(StageProfiler):
    """Shared no-op sink for call sites given no profiler.

    Methods intentionally record nothing, so hot loops can call the
    profiler unconditionally.  The dicts stay empty forever.
    """

    def stage(self, name: str) -> ContextManager[None]:  # noqa: ARG002
        return _NO_STAGE

    def count(self, name: str, amount: int = 1) -> None:  # noqa: ARG002
        pass

    def merge(self, other: "StageProfiler") -> None:  # noqa: ARG002
        pass


#: Shared do-nothing profiler; see :func:`as_profiler`.
NULL_PROFILER = _NullProfiler()


def as_profiler(profiler: Optional[StageProfiler]) -> StageProfiler:
    """Normalise an optional profiler to a safe-to-call instance."""
    return NULL_PROFILER if profiler is None else profiler
