"""Object-walking reference replay of a locked schedule.

This is the executor the production :class:`repro.sim.executor.
InstanceExecutor` replaced, kept as a test oracle: its three walks
(``_run`` for the WCET replay, ``_run_dynamic`` for sampled work ratios
and slack reclamation, ``_run_faulted`` for the two-arm faulted replay)
and its span emission each spell out the Example-1 start-time rule
over the networkx in-edge views, instead of reading one compiled
:class:`~repro.scheduling.replay.ReplayPlan`.  The production executor
must return equal :class:`~repro.sim.executor.InstanceResult` records,
bit for bit, and trace equal ``sim.task``/``sim.link`` spans (see
``tests/test_replay.py``).

:class:`ReferenceExecutor` has the constructor and the ``run`` /
``run_faulted`` signatures of ``InstanceExecutor``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.check.tolerances import EXACT_EPS, TIME_EPS
from repro.faults.injectors import InstanceFaults
from repro.faults.policy import DegradationPolicy
from repro.profiling import StageProfiler, as_profiler
from repro.scheduling.policies import SpeedPolicy, resolve_speed_policy
from repro.scheduling.schedule import Schedule
from repro.sim.executor import InstanceResult
from repro.sim.vectors import DecisionVector, scenario_from_decisions


class ReferenceExecutor:
    """Reference replay of one schedule (see module doc).

    Records the same profiler stages, counters and trace spans as the
    production executor.
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
        ctg = schedule.ctg
        self._real_ctg = ctg.without_pseudo_edges()
        self._order = ctg.topological_order()
        self._deciders: Dict[str, Tuple[str, ...]] = {
            task: tuple(self._real_ctg.deciding_branches(task))
            for task in ctg.tasks()
            if ctg.kind(task).value == "or"
        }
        self._edge_delays = schedule.edge_delays()
        self._worst_case: Optional[Dict[str, Tuple[float, float]]] = None

    def _escalation_speed(self, pe_name: str) -> float:
        """Escalation ceiling of a PE: the policy's top level."""
        try:
            return self._esc_speeds[pe_name]
        except KeyError:
            pe = self.schedule.platform.pe(pe_name)
            speed = self._policy.escalation_speed(pe)
            self._esc_speeds[pe_name] = speed
            return speed

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
        dynamic = work_ratios is not None or self._policy.reclaims_slack
        with self._prof.stage("executor.replay"):
            if dynamic:
                result = self._run_dynamic(decisions, work_ratios or {})
            else:
                result = self._run(decisions)
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
        ctg = schedule.ctg
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
            for src, _dst, data in ctg.in_edges(task, include_pseudo=False):
                if src not in finishes:
                    continue
                if data.condition is not None and (
                    decisions.get(data.condition.branch) != data.condition.label
                ):
                    continue
                delay = self._edge_delays.get((src, task), 0.0)
                if delay <= 0.0:
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

    def _run(self, decisions: DecisionVector) -> InstanceResult:
        schedule = self.schedule
        ctg = schedule.ctg
        scenario = scenario_from_decisions(self._real_ctg, decisions)
        active = scenario.active

        starts: Dict[str, float] = {}
        finishes: Dict[str, float] = {}
        for task in self._order:
            if task not in active:
                continue
            start = 0.0
            for src, _dst, data in ctg.in_edges(task, include_pseudo=True):
                if src not in active:
                    continue
                if data.pseudo:
                    start = max(start, finishes[src])
                    continue
                if data.condition is not None and (
                    decisions.get(data.condition.branch) != data.condition.label
                ):
                    continue
                start = max(start, finishes[src] + self._edge_delays.get((src, task), 0.0))
            for branch in self._deciders.get(task, ()):
                if branch in active:
                    start = max(start, finishes[branch])
            starts[task] = start
            finishes[task] = start + schedule.placement(task).duration
        finish_time = max(finishes.values(), default=0.0)
        energy = schedule.scenario_energy(scenario)
        deadline = ctg.deadline
        return InstanceResult(
            energy=energy,
            finish_time=finish_time,
            deadline_met=(deadline <= 0 or finish_time <= deadline + TIME_EPS),
            scenario=scenario,
            start_times=starts,
            finish_times=finishes,
        )


    def _run_dynamic(
        self, decisions: DecisionVector, work_ratios: Mapping[str, float]
    ) -> InstanceResult:
        """Replay with actual execution times and run-time speed plans.

        Same propagation as :meth:`_run`, but each task executes
        ``work_ratios[task]`` of its WCET following the speed plan its
        policy chooses at start time (static speed for non-reclaiming
        policies).  Energy is accumulated per executed work segment —
        ``fraction · E_nominal · ρ^α`` — plus the scenario's
        communication energy.
        """
        schedule = self.schedule
        ctg = schedule.ctg
        platform = schedule.platform
        exponent = platform.dvfs.exponent
        policy = self._policy
        reclaiming = policy.reclaims_slack
        if reclaiming and self._worst_case is None:
            self._worst_case = schedule.worst_case_times()
        scenario = scenario_from_decisions(self._real_ctg, decisions)
        active = scenario.active

        starts: Dict[str, float] = {}
        finishes: Dict[str, float] = {}
        reclaimed: list = []
        comp_energy = 0.0
        for task in self._order:
            if task not in active:
                continue
            start = 0.0
            for src, _dst, data in ctg.in_edges(task, include_pseudo=True):
                if src not in active:
                    continue
                if data.pseudo:
                    start = max(start, finishes[src])
                    continue
                if data.condition is not None and (
                    decisions.get(data.condition.branch) != data.condition.label
                ):
                    continue
                start = max(start, finishes[src] + self._edge_delays.get((src, task), 0.0))
            for branch in self._deciders.get(task, ()):
                if branch in active:
                    start = max(start, finishes[branch])

            placement = schedule.placement(task)
            ratio = work_ratios.get(task, 1.0)
            if reclaiming:
                budget_finish = self._worst_case[task][1]
                pe = platform.pe(placement.pe)
                plan = policy.reclaim_plan(placement, pe, start, budget_finish)
                if len(plan) > 1 or plan[0][0] < placement.speed - EXACT_EPS:
                    reclaimed.append(task)
                    self._prof.count("executor.reclaimed")
            else:
                plan = ((placement.speed, 1.0),)

            duration = 0.0
            remaining = ratio
            for speed, fraction in plan:
                if remaining <= 0.0:
                    break
                executed = min(remaining, fraction)
                duration += executed * placement.wcet / speed
                comp_energy += (
                    executed * placement.nominal_energy * speed**exponent
                )
                remaining -= executed
            if remaining > 0.0:
                tail_speed = plan[-1][0]
                duration += remaining * placement.wcet / tail_speed
                comp_energy += (
                    remaining * placement.nominal_energy * tail_speed**exponent
                )
            starts[task] = start
            finishes[task] = start + duration

        finish_time = max(finishes.values(), default=0.0)
        # scenario_energy at static speeds minus its computation part
        # leaves exactly the communication energy of the scenario
        static_comp = 0.0
        for task in sorted(active):
            if task in schedule.placements:
                static_comp += schedule.placements[task].energy(exponent)
        energy = schedule.scenario_energy(scenario) - static_comp + comp_energy
        deadline = ctg.deadline
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
        ctg = schedule.ctg
        deadline = ctg.deadline
        exponent = schedule.platform.dvfs.exponent
        scenario = scenario_from_decisions(self._real_ctg, decisions)
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

        starts_b: Dict[str, float] = {}
        finishes_b: Dict[str, float] = {}
        starts_p: Dict[str, float] = {}
        finishes_p: Dict[str, float] = {}
        finishes_q: Dict[str, float] = {}
        escalated: list = []
        comp_extra_b = 0.0  # faulted-minus-nominal computation energy
        comp_extra_p = 0.0
        escalating = False
        overrun_detected = False

        for task in self._order:
            if task not in active:
                continue
            start_b = start_p = start_q = 0.0
            for src, _dst, data in ctg.in_edges(task, include_pseudo=True):
                if src not in active:
                    continue
                if data.pseudo:
                    start_b = max(start_b, finishes_b[src])
                    start_p = max(start_p, finishes_p[src])
                    if track_q:
                        start_q = max(start_q, finishes_q[src])
                    continue
                if data.condition is not None and (
                    decisions.get(data.condition.branch) != data.condition.label
                ):
                    continue
                delay = self._edge_delays.get((src, task), 0.0)
                if delay > 0.0:
                    delay *= faults.edge_factors.get((src, task), 1.0)
                start_b = max(start_b, finishes_b[src] + delay)
                start_p = max(start_p, finishes_p[src] + delay)
                if track_q:
                    start_q = max(start_q, finishes_q[src] + delay)
            for branch in self._deciders.get(task, ()):
                if branch in active:
                    start_b = max(start_b, finishes_b[branch])
                    start_p = max(start_p, finishes_p[branch])
                    if track_q:
                        start_q = max(start_q, finishes_q[branch])

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

            starts_b[task] = start_b
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
            esc = self._escalation_speed(placement.pe)
            capped = esc < 1.0 - EXACT_EPS
            energy_p = nominal * work_ratio
            duration_q = faulted_duration
            if escalating and escalate:
                # task runs entirely at the escalation ceiling — the
                # top frequency level, 1.0 on continuous platforms
                if capped:
                    duration_p = effective_wcet / esc * pe_factor
                    energy_p = (
                        placement.nominal_energy * work_ratio * esc ** exponent
                    )
                    if placement.speed < esc - EXACT_EPS:
                        escalated.append(task)
                else:
                    duration_p = effective_wcet * pe_factor
                    energy_p = placement.nominal_energy * work_ratio
                    if placement.speed < 1.0:
                        escalated.append(task)
                duration_q = effective_wcet * pe_factor
            else:
                budget = placement.duration * (1.0 + policy.overrun_margin)
                if escalate and faulted_duration > budget + TIME_EPS:
                    escalating = True
                    overrun_detected = True
                    if capped:
                        if placement.speed < esc - EXACT_EPS and placement.wcet > 0:
                            work_done = budget * placement.speed / pe_factor
                            work_left = effective_wcet - work_done
                            duration_p = budget + work_left * pe_factor / esc
                            energy_p = placement.nominal_energy * (
                                work_done / placement.wcet * placement.speed ** exponent
                                + work_left / placement.wcet * esc ** exponent
                            )
                            escalated.append(task)
                        else:
                            duration_p = faulted_duration
                            energy_p = nominal * work_ratio
                    elif placement.speed < 1.0 and placement.wcet > 0:
                        # watchdog fires mid-task: the work done inside
                        # the budget ran at the assigned speed, the
                        # remainder runs at max speed
                        work_done = budget * placement.speed / pe_factor
                        work_left = effective_wcet - work_done
                        duration_p = budget + work_left * pe_factor
                        energy_p = placement.nominal_energy * (
                            work_done / placement.wcet * placement.speed ** exponent
                            + work_left / placement.wcet
                        )
                        escalated.append(task)
                    else:
                        duration_p = faulted_duration
                        energy_p = nominal * work_ratio
                    if placement.speed < 1.0 and placement.wcet > 0:
                        work_done_q = budget * placement.speed / pe_factor
                        duration_q = budget + (effective_wcet - work_done_q) * pe_factor
                else:
                    duration_p = faulted_duration
                    energy_p = nominal * work_ratio
            starts_p[task] = start_p
            finishes_p[task] = start_p + duration_p
            if track_q:
                finishes_q[task] = start_q + duration_q

            comp_extra_b += nominal * (work_ratio - 1.0)
            comp_extra_p += energy_p - nominal

        finish_b = max(finishes_b.values(), default=0.0)
        finish_p = max(finishes_p.values(), default=0.0)
        base_energy = schedule.scenario_energy(scenario)
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
