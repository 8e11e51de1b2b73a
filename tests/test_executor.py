"""Unit tests for the per-instance executor and decision vectors."""

import pytest

from repro.ctg import figure1_ctg
from repro.ctg.examples import two_sided_branch_ctg
from repro.obs import Tracer
from repro.platform import Platform, PlatformConfig, ProcessingElement, generate_platform
from repro.profiling import StageProfiler
from repro.scheduling import dls_schedule, schedule_online, set_deadline_from_makespan
from repro.sim import (
    InstanceExecutor,
    empirical_distribution,
    execute_instance,
    executed_decisions,
    scenario_from_decisions,
    validate_trace,
)


@pytest.fixture
def fig1_schedule():
    ctg = figure1_ctg()
    platform = generate_platform(ctg.tasks(), PlatformConfig(pes=2, seed=6))
    set_deadline_from_makespan(ctg, platform, 1.4)
    return schedule_online(ctg, platform).schedule


class TestScenarioFromDecisions:
    def test_a1_scenario(self):
        ctg = figure1_ctg()
        scenario = scenario_from_decisions(ctg, {"t3": "a1", "t5": "b1"})
        assert scenario.active == frozenset({"t1", "t2", "t3", "t4", "t8"})
        # t5 never executed, so its decision is not part of the product
        assert scenario.product.label_for("t5") is None

    def test_nested_scenario(self):
        ctg = figure1_ctg()
        scenario = scenario_from_decisions(ctg, {"t3": "a2", "t5": "b2"})
        assert "t7" in scenario.active
        assert str(scenario.product) == "a2b2"

    def test_missing_decision_raises(self):
        ctg = figure1_ctg()
        with pytest.raises(ValueError):
            scenario_from_decisions(ctg, {"t3": "a2"})  # t5 now needed

    def test_executed_decisions_filters_inactive(self):
        ctg = figure1_ctg()
        executed = executed_decisions(ctg, {"t3": "a1", "t5": "b1"})
        assert executed == {"t3": "a1"}


class TestValidateTrace:
    def test_good_trace_passes(self):
        ctg = figure1_ctg()
        validate_trace(ctg, [{"t3": "a1", "t5": "b1"}, {"t3": "a2", "t5": "b2"}])

    def test_missing_branch_rejected(self):
        ctg = figure1_ctg()
        with pytest.raises(ValueError):
            validate_trace(ctg, [{"t3": "a1"}])

    def test_unknown_label_rejected(self):
        ctg = figure1_ctg()
        with pytest.raises(ValueError):
            validate_trace(ctg, [{"t3": "a9", "t5": "b1"}])


class TestEmpiricalDistribution:
    def test_counts_executed_only(self):
        ctg = figure1_ctg()
        trace = [
            {"t3": "a1", "t5": "b1"},  # t5 not executed
            {"t3": "a2", "t5": "b1"},
            {"t3": "a2", "t5": "b2"},
        ]
        dist = empirical_distribution(ctg, trace)
        assert dist["t3"]["a1"] == pytest.approx(1 / 3)
        # t5 executed twice: b1 once, b2 once
        assert dist["t5"]["b1"] == pytest.approx(0.5)

    def test_never_executed_branch_falls_back_to_vectors(self):
        ctg = figure1_ctg()
        trace = [{"t3": "a1", "t5": "b1"}, {"t3": "a1", "t5": "b2"}]
        dist = empirical_distribution(ctg, trace)
        assert dist["t5"]["b1"] == pytest.approx(0.5)


class TestInstanceExecutor:
    def test_energy_counts_only_active_tasks(self, fig1_schedule):
        result = execute_instance(fig1_schedule, {"t3": "a1", "t5": "b1"})
        assert result.scenario.active == frozenset({"t1", "t2", "t3", "t4", "t8"})
        assert result.energy == pytest.approx(
            fig1_schedule.scenario_energy(result.scenario)
        )

    def test_inactive_tasks_have_no_times(self, fig1_schedule):
        result = execute_instance(fig1_schedule, {"t3": "a1", "t5": "b1"})
        assert "t6" not in result.finish_times
        assert "t5" not in result.finish_times

    def test_every_scenario_meets_deadline(self, fig1_schedule):
        for decisions in (
            {"t3": "a1", "t5": "b1"},
            {"t3": "a2", "t5": "b1"},
            {"t3": "a2", "t5": "b2"},
        ):
            result = execute_instance(fig1_schedule, decisions)
            assert result.deadline_met
            assert result.finish_time <= fig1_schedule.ctg.deadline + 1e-6

    def test_actual_finish_at_most_worst_case(self, fig1_schedule):
        worst = fig1_schedule.makespan()
        for decisions in (
            {"t3": "a1", "t5": "b1"},
            {"t3": "a2", "t5": "b2"},
        ):
            result = execute_instance(fig1_schedule, decisions)
            assert result.finish_time <= worst + 1e-6

    def test_precedence_respected_per_instance(self, fig1_schedule):
        result = execute_instance(fig1_schedule, {"t3": "a2", "t5": "b1"})
        ctg = fig1_schedule.ctg
        for src, dst, data in ctg.edges(include_pseudo=False):
            if src in result.finish_times and dst in result.start_times:
                if data.condition is None or data.condition.label == {"t3": "a2", "t5": "b1"}.get(data.condition.branch):
                    assert result.start_times[dst] >= result.finish_times[src] - 1e-9

    def test_or_node_waits_for_deciding_fork(self):
        """Example 1: τ₈ cannot start before the branch fork τ₃ finishes
        even when a₁ is false (τ₄ deselected)."""
        ctg = figure1_ctg()
        platform = Platform([ProcessingElement("pe0"), ProcessingElement("pe1")])
        platform.connect_all(bandwidth=10.0, energy_per_kbyte=0.01)
        # make t2 very fast and t3 slow: without the implied dependency
        # t8 could start right after t2.
        wcets = {"t1": 1.0, "t2": 1.0, "t3": 50.0, "t4": 1.0, "t5": 1.0,
                 "t6": 1.0, "t7": 1.0, "t8": 1.0}
        for task, wcet in wcets.items():
            for pe in platform.pe_names:
                platform.set_task_profile(task, pe, wcet=wcet, energy=wcet)
        sched = dls_schedule(ctg, platform)
        result = InstanceExecutor(sched).run({"t3": "a2", "t5": "b1"})
        assert result.start_times["t8"] >= result.finish_times["t3"] - 1e-9

    def test_reusable_executor_matches_one_shot(self, fig1_schedule):
        executor = InstanceExecutor(fig1_schedule)
        decisions = {"t3": "a2", "t5": "b2"}
        assert executor.run(decisions).energy == pytest.approx(
            execute_instance(fig1_schedule, decisions).energy
        )

    def test_cheaper_scenario_uses_less_energy(self):
        ctg = two_sided_branch_ctg()
        platform = Platform([ProcessingElement("pe0")])
        weights = {"entry": 5, "fork": 5, "heavy": 50, "light": 5, "join": 5}
        for task, wcet in weights.items():
            platform.set_task_profile(task, "pe0", wcet=wcet, energy=float(wcet))
        sched = dls_schedule(ctg, platform)
        heavy = execute_instance(sched, {"fork": "h"})
        light = execute_instance(sched, {"fork": "l"})
        assert heavy.energy > light.energy


class TestExecutorTracing:
    """The executor traces through ``profiler.tracer``, nothing else."""

    def test_traced_profiler_records_task_spans(self, fig1_schedule):
        tracer = Tracer()
        executor = InstanceExecutor(fig1_schedule, profiler=StageProfiler(tracer=tracer))
        result = executor.run({"t3": "a2", "t5": "b2"})
        tasks = [s for s in tracer.spans if s.category == "sim.task"]
        assert sorted(s.name for s in tasks) == sorted(result.start_times)
        assert all(s.track.startswith("pe:") and "speed" in s.attrs for s in tasks)
        assert tracer.span_counts()["stage:executor.replay"] == 1

    def test_plain_profiler_records_no_spans(self, fig1_schedule):
        profiler = StageProfiler()
        InstanceExecutor(fig1_schedule, profiler=profiler).run({"t3": "a2", "t5": "b2"})
        assert profiler.counters == {"executor.instances": 1}
        assert profiler.tracer.spans == []
