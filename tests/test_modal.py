"""Tests for the modal (per-scenario) DVFS extension."""

import pytest

from repro.ctg import GeneratorConfig, enumerate_scenarios, figure1_ctg, generate_ctg
from repro.platform import PlatformConfig, generate_platform
from repro.scheduling import schedule_online, set_deadline_from_makespan
from repro.scheduling.modal import build_modal_table, modal_instance_energy
from repro.sim import execute_instance


def build(seed=5, pes=2, factor=1.5):
    ctg = figure1_ctg()
    platform = generate_platform(ctg.tasks(), PlatformConfig(pes=pes, seed=seed))
    set_deadline_from_makespan(ctg, platform, factor)
    result = schedule_online(ctg, platform)
    return ctg, platform, result.schedule


def decisions_of(scenario, ctg):
    vector = {}
    for branch in ctg.branch_nodes():
        chosen = scenario.product.label_for(branch)
        vector[branch] = chosen if chosen is not None else ctg.outcomes_of(branch)[0]
    return vector


class TestModalTable:
    def test_one_row_per_scenario(self):
        ctg, _platform, schedule = build()
        table = build_modal_table(schedule)
        assert len(table.speeds) == len(table.scenarios) == 3

    def test_rows_cover_active_tasks_only(self):
        ctg, _platform, schedule = build()
        table = build_modal_table(schedule)
        for scenario, row in zip(table.scenarios, table.speeds):
            assert set(row) == set(scenario.active)

    def test_modal_speeds_mostly_deeper_than_single(self):
        """With other scenarios' paths pruned, the per-scenario stretch
        goes deeper for most tasks (not necessarily all: the mixed
        distribution can favour an individual task more than its own
        scenario's slack structure does)."""
        ctg, _platform, schedule = build()
        table = build_modal_table(schedule)
        deeper = total = 0
        for _scenario, row in zip(table.scenarios, table.speeds):
            for task, theta in row.items():
                total += 1
                if theta <= schedule.placement(task).speed + 1e-6:
                    deeper += 1
        assert deeper / total > 0.6

    def test_speed_for_takes_max_over_compatible(self):
        ctg, _platform, schedule = build()
        table = build_modal_table(schedule)
        # before t3 resolves, t1 must use the fastest of all three rows
        all_thetas = [row["t1"] for row in table.speeds]
        assert table.speed_for("t1", {}) == pytest.approx(max(all_thetas))

    def test_original_schedule_untouched(self):
        ctg, _platform, schedule = build()
        before = {t: p.speed for t, p in schedule.placements.items()}
        build_modal_table(schedule)
        after = {t: p.speed for t, p in schedule.placements.items()}
        assert before == after


class TestModalExecution:
    def test_every_scenario_meets_deadline(self):
        ctg, _platform, schedule = build()
        table = build_modal_table(schedule)
        for scenario in enumerate_scenarios(ctg):
            decisions = decisions_of(scenario, ctg)
            _energy, finish, met = modal_instance_energy(schedule, table, decisions)
            assert met, f"{scenario.product}: finish {finish} > {ctg.deadline}"

    def test_modal_beats_single_speed_in_expectation(self):
        """The headline claim of the extension: over the branch
        distribution, per-scenario speeds use the per-scenario slack
        the single compromise speed cannot, lowering expected energy
        (individual scenarios may be slightly worse)."""
        ctg, _platform, schedule = build()
        table = build_modal_table(schedule)
        probs = ctg.default_probabilities
        modal_expected = single_expected = 0.0
        for scenario in enumerate_scenarios(ctg):
            decisions = decisions_of(scenario, ctg)
            modal_e, _f, _m = modal_instance_energy(schedule, table, decisions)
            single_e = execute_instance(schedule, decisions).energy
            weight = scenario.probability(probs)
            modal_expected += weight * modal_e
            single_expected += weight * single_e
        assert modal_expected < single_expected

    @pytest.mark.parametrize("seed", [11, 13])
    def test_random_graphs_feasible(self, seed):
        ctg = generate_ctg(GeneratorConfig(nodes=16, branch_nodes=2, seed=seed))
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=3, seed=seed))
        set_deadline_from_makespan(ctg, platform, 1.4)
        schedule = schedule_online(ctg, platform).schedule
        table = build_modal_table(schedule)
        for scenario in enumerate_scenarios(ctg):
            decisions = decisions_of(scenario, ctg)
            _e, _f, met = modal_instance_energy(schedule, table, decisions)
            assert met


    @pytest.mark.parametrize("seed", [None, 11, 13])
    def test_own_speeds_replay_like_the_executor(self, seed):
        """A table whose every row holds the schedule's own speeds times
        tasks exactly like the executor: both read one replay plan."""
        if seed is None:
            ctg, _platform, schedule = build()
        else:
            ctg = generate_ctg(GeneratorConfig(nodes=16, branch_nodes=2, seed=seed))
            platform = generate_platform(ctg.tasks(), PlatformConfig(pes=3, seed=seed))
            set_deadline_from_makespan(ctg, platform, 1.4)
            schedule = schedule_online(ctg, platform).schedule
        table = build_modal_table(schedule)
        table.speeds = [
            {task: schedule.placement(task).speed for task in row}
            for row in table.speeds
        ]
        for scenario in enumerate_scenarios(ctg):
            decisions = decisions_of(scenario, ctg)
            energy, finish, met = modal_instance_energy(schedule, table, decisions)
            outcome = execute_instance(schedule, decisions)
            assert finish == outcome.finish_time
            assert met == outcome.deadline_met
            assert energy == pytest.approx(outcome.energy, rel=1e-12)


class TestPseudoEdgeSkips:
    """The implied-edge injection must skip narrowly and observably."""

    def test_clean_graph_counts_no_skips(self):
        from repro.profiling import StageProfiler

        _ctg, _platform, schedule = build()
        prof = StageProfiler()
        build_modal_table(schedule, profiler=prof)
        assert prof.counter("modal.pseudo_edge_skips") == 0

    def test_ctg_error_is_counted_not_swallowed_silently(self, monkeypatch):
        from repro.ctg.graph import CTGError, ConditionalTaskGraph
        from repro.profiling import StageProfiler

        _ctg, _platform, schedule = build()

        def refuse(self, src, dst):
            raise CTGError("injected")

        monkeypatch.setattr(ConditionalTaskGraph, "add_pseudo_edge", refuse)
        prof = StageProfiler()
        table = build_modal_table(schedule, profiler=prof)
        assert len(table.speeds) == len(table.scenarios)
        assert prof.counter("modal.pseudo_edge_skips") > 0

    def test_unrelated_errors_propagate(self, monkeypatch):
        """Regression: the handler used to be `except Exception: pass`."""
        from repro.ctg.graph import ConditionalTaskGraph

        _ctg, _platform, schedule = build()

        def explode(self, src, dst):
            raise RuntimeError("not a CTG problem")

        monkeypatch.setattr(ConditionalTaskGraph, "add_pseudo_edge", explode)
        with pytest.raises(RuntimeError, match="not a CTG problem"):
            build_modal_table(schedule)
