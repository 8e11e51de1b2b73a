"""Per-instance execution of a locked schedule under concrete decisions.

Given a schedule (mapping + order + DVFS speeds) and one branch
decision vector, the executor replays the instance the way the MPSoC
would run it:

* only the tasks activated by the decisions execute, as the schedule's
  :class:`~repro.scheduling.replay.ReplayPlan` resolves them from its
  compiled guards (no networkx walk, no graph copy);
* each task starts by the plan's start-time rule — data arrival over
  the taken edges, same-PE serialisation over pseudo edges, and the
  paper's Example-1 wait of an or-node for its deciding branch forks;
* energy is the sum over activated tasks of their DVFS-scaled energy
  plus the transfer energy of the taken cross-PE edges, summed from
  rows compiled once per executor in the order
  :meth:`~repro.scheduling.schedule.Schedule.scenario_energy` sums
  them, so the totals are bit-identical.

The result also reports whether the instance met the deadline; with
schedules produced by this package that is guaranteed by construction
(worst-case feasibility), and the executor asserts it in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Mapping, Optional, Tuple, Union

from ..check.tolerances import EXACT_EPS, TIME_EPS
from ..ctg.minterms import Scenario
from ..faults.injectors import InstanceFaults
from ..faults.policy import DegradationPolicy
from ..profiling import StageProfiler, as_profiler
from ..scheduling.policies import SpeedPolicy, resolve_speed_policy
from ..scheduling.replay import ReplayPlan
from ..scheduling.schedule import Schedule
from .vectors import DecisionVector


@dataclass(frozen=True)
class InstanceResult:
    """Outcome of one executed CTG instance.

    Attributes
    ----------
    energy:
        Total energy of the instance (computation + communication).
    finish_time:
        Completion time of the last activated task.
    deadline_met:
        ``finish_time ≤ deadline`` (always true for schedules built by
        this package **in the absence of injected faults**).
    scenario:
        The resolved scenario (executed branches + activated tasks).
    start_times / finish_times:
        Per activated task timing, for inspection and tests.
    overrun_detected / escalated:
        Faulted runs only: whether the degradation policy detected an
        overrun-in-progress, and which tasks it escalated to max speed.
    baseline_finish_time / baseline_energy / baseline_deadline_met:
        Faulted runs only: the same instance re-timed with the
        degradation policy switched off (the no-policy arm the
        recovery-rate and energy-cost-of-recovery metrics compare
        against).  ``None`` when the instance ran fault-free.
    """

    energy: float
    finish_time: float
    deadline_met: bool
    scenario: Scenario
    start_times: Mapping[str, float]
    finish_times: Mapping[str, float]
    overrun_detected: bool = False
    escalated: Tuple[str, ...] = ()
    baseline_finish_time: Optional[float] = None
    baseline_energy: Optional[float] = None
    baseline_deadline_met: Optional[bool] = None
    #: faulted runs under a capped (discrete) escalation ceiling only:
    #: the instance missed the deadline, but re-timing escalation at
    #: nominal speed 1.0 would have met it — the miss is quantisation
    #: loss of the frequency table, not a policy failure
    quantization_loss: bool = False
    #: tasks whose speed was re-budgeted at run time (slack reclamation)
    reclaimed: Tuple[str, ...] = ()


class InstanceExecutor:
    """Reusable executor for one schedule (compiles its replay plan and
    energy rows once, so the schedule must not change after).

    ``profiler`` (optional) accumulates the ``executor.replay`` stage
    timing and the ``executor.instances`` counter across :meth:`run`
    calls; omitted, the null profiler keeps the replay loop free of
    instrumentation cost.  A profiler built with a tracer
    (``StageProfiler(tracer=...)``) additionally has each instance
    recorded on ``profiler.tracer``: one simulated-time span per
    executed task (on its PE's track, with the chosen DVFS speed) and
    per activated cross-PE transfer — the per-instance timeline the
    Perfetto export renders; with the default
    :data:`~repro.obs.trace.NULL_TRACER` the replay loop skips span
    construction entirely (``enabled`` is checked once per instance).
    ``speed_policy`` (a policy or registry name; ``None`` means
    ``"continuous"``) sets the escalation ceiling of the faulted replay
    and whether tasks reclaim slack at run time.
    """

    def __init__(
        self,
        schedule: Schedule,
        profiler: Optional[StageProfiler] = None,
        speed_policy: Union[None, str, SpeedPolicy] = None,
    ) -> None:
        self.schedule = schedule
        self._prof = as_profiler(profiler)
        self._tracer = self._prof.tracer
        self._policy = resolve_speed_policy(speed_policy)
        self._esc_speeds: Dict[str, float] = {}
        self._plan = ReplayPlan.of(schedule)
        self._worst_case: Optional[Dict[str, Tuple[float, float]]] = None
        # the terms of Schedule.scenario_energy, compiled once: each
        # placed task's static energy in sorted task order, and each real
        # edge's transfer energy in graph edge order (zero rows dropped:
        # adding 0.0 to the non-negative sum leaves its bits unchanged)
        exponent = schedule.platform.dvfs.exponent
        placements = schedule.placements
        self._comp_rows: Tuple[Tuple[str, float], ...] = tuple(
            (task, placements[task].energy(exponent)) for task in sorted(placements)
        )
        comm_rows = []
        for src, dst, data in schedule.ctg.edges(include_pseudo=False):
            if src not in placements or dst not in placements:
                continue
            energy = schedule.platform.comm_energy(
                placements[src].pe, placements[dst].pe, data.comm_kbytes
            )
            if energy:
                guard = data.condition
                branch = None if guard is None else guard.branch
                label = None if guard is None else guard.label
                comm_rows.append((src, dst, branch, label, energy))
        self._comm_rows = tuple(comm_rows)

    def _escalation_speed(self, pe_name: str) -> float:
        """Escalation ceiling of a PE: the policy's top level."""
        try:
            return self._esc_speeds[pe_name]
        except KeyError:
            pe = self.schedule.platform.pe(pe_name)
            speed = self._policy.escalation_speed(pe)
            self._esc_speeds[pe_name] = speed
            return speed

    def _static_energy(
        self, active: FrozenSet[str], decisions: DecisionVector
    ) -> Tuple[float, float]:
        """``(computation, total)`` energy of the activated tasks at their
        static speeds: :meth:`Schedule.scenario_energy`, term for term."""
        comp = 0.0
        for task, energy in self._comp_rows:
            if task in active:
                comp += energy
        total = comp
        for src, dst, branch, label, energy in self._comm_rows:
            if src in active and dst in active and (
                branch is None or decisions[branch] == label
            ):
                total += energy
        return comp, total

    def run(
        self,
        decisions: DecisionVector,
        work_ratios: Optional[Mapping[str, float]] = None,
    ) -> InstanceResult:
        """Execute one instance under a concrete decision vector.

        ``work_ratios`` (optional) gives each task's *actual* execution
        work as a fraction of WCET in ``(0, 1]`` — sampled from the
        platform's execution-time distributions.  With ratios, tasks
        finish early, and a slack-reclaiming speed policy (Leung–Tsui)
        re-budgets each task's speed at its start so released slack is
        converted into voltage reduction.  Omitted (the default), the
        replay is the historical WCET replay, bit-identical.
        """
        with self._prof.stage("executor.replay"):
            result = self._run(decisions, work_ratios)
            self._prof.count("executor.instances")
        if self._tracer.enabled:
            self._emit_instance_spans(result, decisions)
        return result

    def _emit_instance_spans(
        self,
        result: InstanceResult,
        decisions: DecisionVector,
        edge_factors: Optional[Mapping[Tuple[str, str], float]] = None,
    ) -> None:
        """Record the instance's simulated timeline on the tracer.

        One ``sim.task`` span per executed task on its PE's track
        (attrs: DVFS speed), one ``sim.link`` span per activated
        cross-PE transfer with non-zero delay (``edge_factors`` scales
        delays the way the faulted replay did).  Timestamps are
        instance-local; the tracer's ``sim_offset`` (advanced by the
        runners) places them on the run-global timeline.
        """
        tracer = self._tracer
        schedule = self.schedule
        finishes = result.finish_times
        for task, start in result.start_times.items():
            placement = schedule.placement(task)
            tracer.add_span(
                task,
                start,
                finishes[task],
                category="sim.task",
                track=f"pe:{placement.pe}",
                speed=round(placement.speed, 4),
            )
        for task in result.start_times:
            for src, delay, branch, label in self._plan.inputs[task]:
                if delay is None or delay <= 0.0 or src not in finishes:
                    continue
                if branch is not None and decisions.get(branch) != label:
                    continue
                if edge_factors:
                    delay *= edge_factors.get((src, task), 1.0)
                src_pe = schedule.placement(src).pe
                dst_pe = schedule.placement(task).pe
                tracer.add_span(
                    f"{src}->{task}",
                    finishes[src],
                    finishes[src] + delay,
                    category="sim.link",
                    track=f"link:{src_pe}-{dst_pe}",
                )

    def _run(
        self,
        decisions: DecisionVector,
        work_ratios: Optional[Mapping[str, float]],
    ) -> InstanceResult:
        """Fault-free replay of one instance.

        Without ``work_ratios`` under a non-reclaiming policy, every
        task runs its WCET at its static speed and the energy is
        :meth:`Schedule.scenario_energy`.  Otherwise each task executes
        ``work_ratios[task]`` (default 1.0) of its WCET following the
        speed plan its policy chooses at start time (static speed for
        non-reclaiming policies); computation energy is accumulated per
        executed work segment — ``fraction · E_nominal · ρ^α`` — plus
        the scenario's communication energy.
        """
        schedule = self.schedule
        plan = self._plan
        platform = schedule.platform
        exponent = platform.dvfs.exponent
        policy = self._policy
        reclaiming = policy.reclaims_slack
        dynamic = work_ratios is not None or reclaiming
        ratios = work_ratios or {}
        if reclaiming and self._worst_case is None:
            self._worst_case = schedule.worst_case_times()
        scenario = plan.activate(decisions)
        active = scenario.active

        starts: Dict[str, float] = {}
        finishes: Dict[str, float] = {}
        reclaimed: list = []
        comp_energy = 0.0
        for task in plan.order:
            if task not in active:
                continue
            start = plan.start(task, finishes, decisions)
            placement = schedule.placement(task)
            if not dynamic:
                starts[task] = start
                finishes[task] = start + placement.duration
                continue
            if reclaiming:
                budget_finish = self._worst_case[task][1]
                pe = platform.pe(placement.pe)
                speeds = policy.reclaim_plan(placement, pe, start, budget_finish)
                if len(speeds) > 1 or speeds[0][0] < placement.speed - EXACT_EPS:
                    reclaimed.append(task)
                    self._prof.count("executor.reclaimed")
            else:
                speeds = ((placement.speed, 1.0),)

            duration = 0.0
            remaining = ratios.get(task, 1.0)
            for speed, fraction in speeds:
                if remaining <= 0.0:
                    break
                executed = min(remaining, fraction)
                duration += executed * placement.wcet / speed
                comp_energy += (
                    executed * placement.nominal_energy * speed**exponent
                )
                remaining -= executed
            if remaining > 0.0:
                tail_speed = speeds[-1][0]
                duration += remaining * placement.wcet / tail_speed
                comp_energy += (
                    remaining * placement.nominal_energy * tail_speed**exponent
                )
            starts[task] = start
            finishes[task] = start + duration

        finish_time = max(finishes.values(), default=0.0)
        static_comp, energy = self._static_energy(active, decisions)
        if dynamic:
            # the static energy minus its computation part leaves exactly
            # the communication energy of the scenario
            energy = energy - static_comp + comp_energy
        deadline = schedule.ctg.deadline
        return InstanceResult(
            energy=energy,
            finish_time=finish_time,
            deadline_met=(deadline <= 0 or finish_time <= deadline + TIME_EPS),
            scenario=scenario,
            start_times=starts,
            finish_times=finishes,
            reclaimed=tuple(reclaimed),
        )

    # ------------------------------------------------------------------
    # Fault-injected replay with graceful degradation
    # ------------------------------------------------------------------
    def run_faulted(
        self,
        decisions: DecisionVector,
        faults: InstanceFaults,
        policy: Optional[DegradationPolicy] = None,
    ) -> InstanceResult:
        """Execute one instance with ``faults`` applied.

        The replay times **two arms in one pass** over the same
        activated scenario:

        * the *baseline* arm runs the faulted instance exactly as
          scheduled (no reaction) — this is what the recovery metrics
          compare against;
        * the *policy* arm runs a per-task watchdog: once a task is
          still executing ``policy.overrun_margin`` (relative) past its
          scheduled duration, its remainder — and every task after it in
          topological order — escalates to max speed (the
          paper-consistent fallback: the DVFS slow-down is exactly the
          slack the stretching heuristic inserted, so undoing it buys
          that slack back at nominal-energy price).  A start-lateness
          backup detector (``overrun_margin × deadline``) catches
          freezes and link jitter, which delay starts without ever
          extending a task's duration.

        Fault semantics: WCET factors/additions extend the task's work
        (so its energy scales with the extra cycles), PE slowdown
        factors stretch durations, PE freezes forbid task starts before
        a fraction of the deadline, and link jitter stretches cross-PE
        transfer delays.  Escalation can only *raise* speeds, so the
        policy arm never finishes later than the baseline arm.
        """
        if policy is None:
            policy = DegradationPolicy.none()
        if not faults.perturbs_timing:
            # only control-plane faults (drops/corruption): timing and
            # energy are exactly the nominal replay, both arms alike
            result = self.run(decisions)
            return replace(
                result,
                baseline_finish_time=result.finish_time,
                baseline_energy=result.energy,
                baseline_deadline_met=result.deadline_met,
            )
        with self._prof.stage("executor.replay_faulted"):
            result = self._run_faulted(decisions, faults, policy)
            self._prof.count("executor.instances")
            self._prof.count("executor.faulted_instances")
        if self._tracer.enabled:
            self._emit_instance_spans(
                result, decisions, edge_factors=faults.edge_factors
            )
        return result

    def _run_faulted(
        self,
        decisions: DecisionVector,
        faults: InstanceFaults,
        policy: DegradationPolicy,
    ) -> InstanceResult:
        schedule = self.schedule
        deadline = schedule.ctg.deadline
        exponent = schedule.platform.dvfs.exponent
        scenario = self._plan.activate(decisions)
        active = scenario.active
        if self._worst_case is None:
            self._worst_case = schedule.worst_case_times()

        freezes = {
            pe: fraction * deadline for pe, fraction in faults.pe_freezes.items()
        }
        escalate = policy.escalate_on_overrun
        # Stretching fills the slack, so the worst-case finish sits on
        # the deadline and even small overruns threaten it; the watchdog
        # margin is therefore relative to each task's own scheduled
        # duration (5% default), not the deadline.  The start-lateness
        # backup detector — which catches freezes and link jitter that
        # never extend a task's duration — keeps the deadline scale.
        lateness_margin = policy.overrun_margin * deadline
        # With a capped (discrete) escalation ceiling, a third timing
        # arm re-times the policy arm at ceiling 1.0: a miss the
        # uncapped ceiling would have avoided is quantisation loss of
        # the frequency table, not a degradation-policy failure.
        track_q = any(
            self._escalation_speed(name) < 1.0 - EXACT_EPS
            for name in schedule.platform.pe_names
        )

        finishes_b: Dict[str, float] = {}
        starts_p: Dict[str, float] = {}
        finishes_p: Dict[str, float] = {}
        finishes_q: Dict[str, float] = {}
        escalated: list = []
        comp_extra_b = 0.0  # faulted-minus-nominal computation energy
        comp_extra_p = 0.0
        escalating = False
        overrun_detected = False

        plan = self._plan
        edge_factors = faults.edge_factors
        for task in plan.order:
            if task not in active:
                continue
            start_b = plan.start(task, finishes_b, decisions, edge_factors)
            start_p = plan.start(task, finishes_p, decisions, edge_factors)
            start_q = 0.0
            if track_q:
                start_q = plan.start(task, finishes_q, decisions, edge_factors)

            placement = schedule.placement(task)
            freeze = freezes.get(placement.pe, 0.0)
            if freeze > 0.0:
                start_b = max(start_b, freeze)
                start_p = max(start_p, freeze)
                start_q = max(start_q, freeze)

            pe_factor = faults.pe_factors.get(placement.pe, 1.0)
            effective_wcet = (
                placement.wcet * faults.wcet_factors.get(task, 1.0)
                + faults.wcet_additions.get(task, 0.0)
            )
            work_ratio = (
                effective_wcet / placement.wcet if placement.wcet > 0 else 1.0
            )
            nominal = placement.energy(exponent)
            faulted_duration = effective_wcet / placement.speed * pe_factor

            finishes_b[task] = start_b + faulted_duration

            # Policy arm.  Two detectors feed the escalation latch:
            # a start later than the schedule's worst-case start (the
            # instance is already behind), and a per-task watchdog that
            # fires when the task is still running past its scheduled
            # duration budget — the rest of that task then executes at
            # max speed (the runtime notices the overrun mid-task, not
            # after the fact).
            if escalate and not escalating:
                wc_start = self._worst_case[task][0]
                if start_p > wc_start + lateness_margin + TIME_EPS:
                    escalating = True
                    overrun_detected = True
            # the escalation ceiling is the top frequency level, 1.0 on
            # continuous platforms; x / 1.0 and x * 1.0 ** e are exact,
            # so one formula serves capped and uncapped PEs bit for bit
            esc = self._escalation_speed(placement.pe)
            if esc < 1.0 - EXACT_EPS:
                top, below_top = esc, esc - EXACT_EPS
            else:
                top, below_top = 1.0, 1.0
            duration_p = faulted_duration
            energy_p = nominal * work_ratio
            duration_q = faulted_duration
            if escalating and escalate:
                # task runs entirely at the escalation ceiling
                duration_p = effective_wcet / top * pe_factor
                energy_p = placement.nominal_energy * work_ratio * top ** exponent
                if placement.speed < below_top:
                    escalated.append(task)
                duration_q = effective_wcet * pe_factor
            else:
                budget = placement.duration * (1.0 + policy.overrun_margin)
                if escalate and faulted_duration > budget + TIME_EPS:
                    escalating = True
                    overrun_detected = True
                    if placement.speed < below_top and placement.wcet > 0:
                        # watchdog fires mid-task: the work done inside
                        # the budget ran at the assigned speed, the
                        # remainder runs at the ceiling
                        work_done = budget * placement.speed / pe_factor
                        work_left = effective_wcet - work_done
                        duration_p = budget + work_left * pe_factor / top
                        energy_p = placement.nominal_energy * (
                            work_done / placement.wcet * placement.speed ** exponent
                            + work_left / placement.wcet * top ** exponent
                        )
                        escalated.append(task)
                    if placement.speed < 1.0 and placement.wcet > 0:
                        work_done_q = budget * placement.speed / pe_factor
                        duration_q = budget + (effective_wcet - work_done_q) * pe_factor
            starts_p[task] = start_p
            finishes_p[task] = start_p + duration_p
            if track_q:
                finishes_q[task] = start_q + duration_q

            comp_extra_b += nominal * (work_ratio - 1.0)
            comp_extra_p += energy_p - nominal

        finish_b = max(finishes_b.values(), default=0.0)
        finish_p = max(finishes_p.values(), default=0.0)
        base_energy = self._static_energy(active, decisions)[1]
        met = deadline <= 0 or finish_p <= deadline + TIME_EPS
        met_b = deadline <= 0 or finish_b <= deadline + TIME_EPS
        quantization_loss = False
        if track_q and not met:
            finish_q = max(finishes_q.values(), default=0.0)
            quantization_loss = finish_q <= deadline + TIME_EPS
        return InstanceResult(
            energy=base_energy + comp_extra_p,
            finish_time=finish_p,
            deadline_met=met,
            scenario=scenario,
            start_times=starts_p,
            finish_times=finishes_p,
            overrun_detected=overrun_detected,
            escalated=tuple(escalated),
            baseline_finish_time=finish_b,
            baseline_energy=base_energy + comp_extra_b,
            baseline_deadline_met=met_b,
            quantization_loss=quantization_loss,
        )


def execute_instance(schedule: Schedule, decisions: DecisionVector) -> InstanceResult:
    """One-shot convenience wrapper around :class:`InstanceExecutor`."""
    return InstanceExecutor(schedule).run(decisions)
