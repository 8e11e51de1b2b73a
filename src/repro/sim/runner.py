"""Trace-driven evaluation of the adaptive and non-adaptive policies.

This is the experimental harness of the paper's §IV: a *trace* (one
branch decision vector per CTG instance) is replayed against

* the **non-adaptive online** policy — one schedule built from profiled
  training probabilities and kept for the whole run ("online" in the
  paper's tables), and
* the **adaptive** policy — the same online algorithm re-invoked by the
  windowed threshold controller as statistics drift — optionally with
  faults injected (:func:`run_faulted`).

All three report total/mean energy, per-instance energies, deadline
misses and (adaptive) the number of re-scheduling calls.  They share
one trace loop, :func:`_replay`; what varies is data — an optional
controller and an optional fault injector — not a mode flag.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..adaptive.controller import AdaptiveConfig, AdaptiveController
from ..ctg.graph import ConditionalTaskGraph
from ..faults.injectors import FaultInjector, InstanceFaults, rotate_label
from ..faults.log import FaultLog, RecoveryAction
from ..faults.plan import FaultPlan
from ..faults.policy import DegradationPolicy
from ..obs.trace import Tracer, as_tracer
from ..platform.mpsoc import Platform
from ..profiling import StageProfiler
from ..scheduling.online import schedule_online
from ..scheduling.policies import SpeedPolicy, resolve_speed_policy
from ..scheduling.schedule import Schedule
from .executor import InstanceExecutor
from .vectors import Trace


@dataclass
class RunResult:
    """Aggregate outcome of replaying a trace under one policy.

    Attributes
    ----------
    energies:
        Per-instance energy, in trace order.
    reschedule_calls:
        How many times the online algorithm was re-invoked (0 for the
        non-adaptive policy).
    call_instances:
        Instance indices (1-based) at which re-scheduling happened.
    deadline_misses:
        Number of instances finishing past the deadline (0 by
        construction for schedules built by this package).
    profile:
        Stage timings and counters of the whole run — scheduling stages
        (``dls``, ``stretch``, cache hit/miss counters), instance
        replay (``executor.replay`` / ``executor.instances``) and, for
        the adaptive policy, ``reschedule.calls``.
    fault_log:
        Faulted runs only (:func:`run_faulted`): the structured record
        of every injected fault and recovery action, with the
        miss/recovery/energy-cost summary the chaos artifacts expose.
    """

    energies: List[float] = field(default_factory=list)
    reschedule_calls: int = 0
    call_instances: List[int] = field(default_factory=list)
    deadline_misses: int = 0
    profile: Optional[StageProfiler] = None
    fault_log: Optional[FaultLog] = None

    @property
    def total_energy(self) -> float:
        """Sum of all instance energies (re-scheduling overhead excluded)."""
        return sum(self.energies)

    @property
    def mean_energy(self) -> float:
        """Average energy per instance (0 for an empty trace)."""
        return self.total_energy / len(self.energies) if self.energies else 0.0

    def total_with_overhead(self, energy_per_call: float) -> float:
        """Total energy including a per-re-scheduling-call cost.

        The paper neglects the overhead of the online algorithm itself
        but motivates the threshold by it ("appropriate threshold
        selection minimizes the overhead"); this puts a number on the
        trade-off (see the overhead ablation bench).
        """
        return self.total_energy + self.reschedule_calls * energy_per_call

    def break_even_overhead(self, baseline: "RunResult") -> float:
        """Per-call overhead at which this run's saving over ``baseline``
        vanishes (``inf`` when no calls were made)."""
        if self.reschedule_calls == 0:
            return float("inf")
        return (baseline.total_energy - self.total_energy) / self.reschedule_calls


def _setup(
    ctg: ConditionalTaskGraph,
    deadline: Optional[float],
    tracer: Optional[Tracer],
    speed_policy: Union[None, str, SpeedPolicy],
) -> Tuple[ConditionalTaskGraph, StageProfiler, SpeedPolicy]:
    """The graph to run (a private copy when ``deadline`` overrides
    its own), the run's profiler and the resolved speed policy."""
    if deadline is not None:
        ctg = ctg.copy()
        ctg.deadline = deadline
    stats = StageProfiler(tracer=as_tracer(tracer))
    return ctg, stats, resolve_speed_policy(speed_policy)


def _ratio_sampler(
    platform: Platform, et_seed: Optional[int]
) -> Optional[Callable[[], Dict[str, float]]]:
    """Per-instance execution-time ratio sampler: each call draws one
    WCET ratio per profiled task from the platform's
    :class:`~repro.platform.distributions.ExecutionTimeDistribution`
    objects (sorted task order, one stream seeded with ``et_seed``).
    ``None`` when ``et_seed`` is unset or the platform carries no
    profiles."""
    profiles = platform.execution_profiles() if et_seed is not None else []
    if not profiles:
        return None
    rng = random.Random(et_seed)
    return lambda: {task: dist.sample(rng) for task, dist in profiles}


def run_non_adaptive(
    ctg: ConditionalTaskGraph,
    platform: Platform,
    trace: Trace,
    probabilities: Mapping[str, Mapping[str, float]],
    deadline: Optional[float] = None,
    tracer: Optional[Tracer] = None,
    speed_policy: Union[None, str, SpeedPolicy] = None,
    et_seed: Optional[int] = None,
) -> RunResult:
    """Replay a trace under a single schedule built from ``probabilities``.

    ``probabilities`` is the profiled training distribution (the paper's
    "online"/"non-adaptive" rows); it is *not* updated during the run.
    A ``deadline`` override is applied to a private copy of the graph —
    the caller's CTG object is never mutated (same contract as
    :func:`run_adaptive`).  ``tracer`` (optional) records the span/event
    timeline of the run (see :mod:`repro.obs.trace`); ``profile``
    contents are identical with or without it.  ``speed_policy`` selects
    the speed-selection family (``None`` means ``"continuous"``, the
    paper's stretching); ``et_seed`` activates stochastic
    execution times when the platform carries per-task distributions —
    each instance then replays sampled WCET ratios through the
    executor's dynamic path.
    """
    ctg, stats, pol = _setup(ctg, deadline, tracer, speed_policy)
    online = schedule_online(ctg, platform, probabilities, profiler=stats, speed_policy=pol)
    sample_ratios = _ratio_sampler(platform, et_seed)
    return _replay(ctg, trace, online.schedule, stats, pol, sample_ratios=sample_ratios)


def run_adaptive(
    ctg: ConditionalTaskGraph,
    platform: Platform,
    trace: Trace,
    initial_probabilities: Mapping[str, Mapping[str, float]],
    config: Optional[AdaptiveConfig] = None,
    deadline: Optional[float] = None,
    profiler=None,
    tracer: Optional[Tracer] = None,
    speed_policy: Union[None, str, SpeedPolicy] = None,
    et_seed: Optional[int] = None,
) -> RunResult:
    """Replay a trace under the window/threshold adaptive policy.

    Each instance executes under the *current* schedule; its executed
    branch decisions are then shifted into the profiler, possibly
    triggering re-scheduling that takes effect from the next instance
    (the paper: "each time after a branch fork task is executed, a new
    branch decision is shifted into the buffer").  ``profiler`` swaps
    the estimator (default: the paper's sliding window); ``config``
    defaults to a fresh :class:`AdaptiveConfig` (never a shared
    instance — the config is mutable).  ``tracer`` (optional) records
    the run's span/event timeline — scheduling stages, per-task
    simulated spans, a ``sim.reschedule`` event at every schedule
    swap — without changing the ``profile`` dicts.  A re-schedule that
    fails raises its :class:`~repro.scheduling.schedule.SchedulingError`.
    """
    ctg, stats, pol = _setup(ctg, deadline, tracer, speed_policy)
    controller = AdaptiveController(
        ctg,
        platform,
        initial_probabilities,
        config,
        profiler=profiler,
        stage_profiler=stats,
        speed_policy=pol,
    )
    sample_ratios = _ratio_sampler(platform, et_seed)
    return _replay(
        ctg,
        trace,
        controller.schedule,
        stats,
        pol,
        controller=controller,
        sample_ratios=sample_ratios,
    )


def run_faulted(
    ctg: ConditionalTaskGraph,
    platform: Platform,
    trace: Trace,
    initial_probabilities: Mapping[str, Mapping[str, float]],
    plan: FaultPlan,
    policy: Optional[DegradationPolicy] = None,
    config: Optional[AdaptiveConfig] = None,
    deadline: Optional[float] = None,
    profiler=None,
    tracer: Optional[Tracer] = None,
    speed_policy: Union[None, str, SpeedPolicy] = None,
) -> RunResult:
    """Replay a trace under the adaptive policy with faults injected.

    The loop is :func:`run_adaptive` with three interception points:

    * each instance executes through
      :meth:`~repro.sim.executor.InstanceExecutor.run_faulted`, which
      times a *baseline* (no-reaction) arm alongside the *policy* arm —
      an instance counts as **threatened** when the baseline arm misses
      the deadline, **recovered** when the policy arm then meets it,
      and **unrecovered** when even the policy arm misses;
    * branch observations pass through the plan's corruption faults
      *before* reaching the controller's windows (execution itself uses
      the true decisions — it is the estimator that is lied to);
    * re-schedule invocations pass through the drop/delay faults: a
      dropped or deferred invocation is retried ``policy.retry_backoff``
      instances later, doubling the backoff per failed retry up to
      ``policy.max_retries`` attempts; an unrecovered miss triggers an
      emergency re-schedule (when the policy allows), and a
      re-scheduling *failure* installs the full-speed fallback
      schedule rather than crashing the run.

    Under a discrete ``speed_policy`` whose frequency table tops out
    below 1.0, escalation cannot exceed the table's highest level; a
    miss that even a 1.0-ceiling escalation of the *same* decisions
    would have avoided is classified as a **quantization loss**
    (``fault_log.quantization_losses``, counter
    ``fault.quantization_loss``) rather than an unrecovered miss — it
    is a property of the frequency table, not of the recovery policy.

    Every fault and every reaction lands in ``result.fault_log``; the
    run's :class:`~repro.profiling.StageProfiler` picks up the matching
    counters (``fault.*``, ``reschedule.dropped`` / ``.emergency`` /
    ``.fallback``).  ``tracer`` (optional) additionally places every
    injected fault, escalation, recovery outcome and schedule swap on
    the simulated timeline (``sim.fault`` / ``sim.escalation`` /
    ``sim.recovered`` / ``sim.unrecovered`` / ``sim.reschedule``).
    """
    ctg, stats, pol = _setup(ctg, deadline, tracer, speed_policy)
    controller = AdaptiveController(
        ctg,
        platform,
        initial_probabilities,
        config,
        profiler=profiler,
        stage_profiler=stats,
        speed_policy=pol,
    )
    return _replay(
        ctg,
        trace,
        controller.schedule,
        stats,
        pol,
        controller=controller,
        injector=FaultInjector(plan, ctg=ctg, platform=platform),
        policy=policy if policy is not None else DegradationPolicy.default(),
    )


def _replay(
    ctg: ConditionalTaskGraph,
    trace: Trace,
    schedule: Schedule,
    stats: StageProfiler,
    pol: SpeedPolicy,
    controller: Optional[AdaptiveController] = None,
    injector: Optional[FaultInjector] = None,
    policy: Optional[DegradationPolicy] = None,
    sample_ratios: Optional[Callable[[], Dict[str, float]]] = None,
) -> RunResult:
    """The one trace loop behind the three public runners.

    Each instance executes under the current schedule — with sampled
    work ratios when ``sample_ratios`` is given, or through the faulted
    two-arm replay under ``policy`` when ``injector`` is, in which case
    every fault, threat and reaction is logged in the result's
    ``fault_log``.  With a ``controller``, the executed (under faults:
    possibly corrupted) branch decisions go to its windows and a
    re-schedule swaps the executor from the next instance on; a failing
    re-schedule raises in a fault-free run and installs the full-speed
    fallback in a faulted one.  When traced, each instance's simulated
    timeline starts one period (the deadline) after the previous one.
    """
    trc = stats.tracer
    executor = InstanceExecutor(schedule, profiler=stats, speed_policy=pol)
    branches = ctg.branch_nodes()
    log = FaultLog() if injector is not None else None
    on_error = "fallback" if injector is not None else "raise"
    result = RunResult(profile=stats, fault_log=log)
    # one pending (dropped/delayed) re-schedule incident at a time:
    # [due_instance, attempts_left, current_backoff]
    pending: Optional[List[int]] = None

    for index, vector in enumerate(trace):
        faults = injector.faults_at(index) if injector is not None else None
        if faults is None:
            ratios = sample_ratios() if sample_ratios is not None else None
            outcome = executor.run(vector, work_ratios=ratios)
        else:
            for event in faults.events:
                log.record(event)
                if trc.enabled:
                    trc.event(
                        "sim.fault",
                        ts=0.0,
                        category="sim.event",
                        instance=index,
                        kind=event.kind,
                        target=event.target,
                        severity=event.severity,
                    )
            if not faults.empty:
                stats.count("fault.injected", len(faults.events))
            outcome = executor.run_faulted(vector, faults, policy)
        result.energies.append(outcome.energy)
        if not outcome.deadline_met:
            result.deadline_misses += 1
        if log is not None:
            _log_outcome(outcome, index, log, stats)

        if controller is not None:
            # the estimator sees the (possibly corrupted) observations
            observed = {}
            for branch in branches:
                if branch not in outcome.scenario.active:
                    continue
                label = vector[branch]
                rotation = 0 if faults is None else faults.branch_rotations.get(branch, 0)
                if rotation:
                    label = rotate_label(ctg.outcomes_of(branch), label, rotation)
                    stats.count("fault.corrupted_observations")
                observed[branch] = label
            controller.record(observed)
            wants = controller.wants_reschedule()
            emergency = bool(
                policy is not None and policy.emergency_reschedule and not outcome.deadline_met
            )
            due = wants or emergency or (pending is not None and index >= pending[0])
            lost = faults is not None and (faults.drop_reschedule or faults.delay_reschedule)
            if due and lost:
                pending = _defer_reschedule(pending, faults, policy, index, log, stats)
            elif due:
                if emergency and not wants:
                    log.act(RecoveryAction(index, "emergency_reschedule"))
                used_fallback = controller.reschedule(emergency=emergency, on_error=on_error)
                if used_fallback:
                    log.act(RecoveryAction(index, "fallback_schedule"))
                executor = InstanceExecutor(
                    controller.schedule, profiler=stats, speed_policy=pol
                )
                if trc.enabled:
                    # numbered like call_instances: the controller's count, from 1
                    trc.event(
                        "sim.reschedule",
                        ts=outcome.finish_time,
                        category="sim.event",
                        instance=controller.call_log[-1],
                        call=controller.calls,
                        emergency=emergency,
                        fallback=used_fallback,
                    )
                pending = None

        if trc.enabled:
            trc.sim_offset += ctg.deadline if ctg.deadline > 0 else outcome.finish_time

    if controller is not None:
        result.reschedule_calls = controller.calls
        result.call_instances = list(controller.call_log)
    return result


def _log_outcome(outcome, index: int, log: FaultLog, stats: StageProfiler) -> None:
    """Miss, threat, recovery, energy and escalation accounting of one
    faulted instance."""
    trc = stats.tracer
    if not outcome.deadline_met:
        if outcome.quantization_loss:
            log.quantization_losses += 1
            stats.count("fault.quantization_loss")
        else:
            log.unrecovered += 1
    if outcome.baseline_deadline_met is False:  # threatened
        log.threatened += 1
        stats.count("fault.threatened")
        if outcome.deadline_met:
            log.recovered += 1
            log.act(RecoveryAction(index, "recovered"))
        elif outcome.quantization_loss:
            log.act(RecoveryAction(index, "quantization_loss"))
        else:
            log.act(RecoveryAction(index, "unrecovered"))
        if trc.enabled:
            trc.event(
                "sim.recovered" if outcome.deadline_met else "sim.unrecovered",
                ts=outcome.finish_time,
                category="sim.event",
                instance=index,
            )
    if outcome.baseline_energy is not None:
        log.policy_energy += outcome.energy
        log.baseline_energy += outcome.baseline_energy
    if outcome.overrun_detected:
        escalated = f"{len(outcome.escalated)} tasks to max speed"
        log.act(RecoveryAction(index, "escalate", escalated))
        stats.count("fault.escalations")
        if trc.enabled:
            trc.event(
                "sim.escalation",
                ts=outcome.finish_time,
                category="sim.event",
                instance=index,
                escalated=len(outcome.escalated),
            )


def _defer_reschedule(
    pending: Optional[List[int]],
    faults: InstanceFaults,
    policy: DegradationPolicy,
    index: int,
    log: FaultLog,
    stats: StageProfiler,
) -> Optional[List[int]]:
    """A re-schedule invocation lost (drop) or deferred (delay) at
    instance ``index``: open, back off or give up the pending retry
    incident, and return it."""
    if faults.drop_reschedule:
        stats.count("reschedule.dropped")
        defer = policy.retry_backoff
    else:
        stats.count("reschedule.delayed")
        defer = faults.delay_reschedule
    if pending is None:
        pending = [index + defer, policy.max_retries, defer]
    else:
        pending[1] -= 1
        if pending[1] <= 0:
            log.act(RecoveryAction(index, "reschedule_retry", "retries exhausted"))
            return None
        pending[2] *= 2
        pending[0] = index + pending[2]
    log.act(RecoveryAction(index, "reschedule_retry", f"retry at instance {pending[0]}"))
    return pending


def energy_savings(non_adaptive: RunResult, adaptive: RunResult) -> float:
    """Relative energy saving of the adaptive policy (paper's headline
    percentage): ``1 − adaptive / non-adaptive``."""
    if non_adaptive.total_energy == 0:
        return 0.0
    return 1.0 - adaptive.total_energy / non_adaptive.total_energy
