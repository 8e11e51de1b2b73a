"""Oracle tests of the array-native batch core (:mod:`repro.batch`).

Every kernel is validated against the object-walking implementation it
batches: the instance executor and the faulted replay's baseline arm.
The scalar code is the specification; the arrays must agree.
"""

import numpy as np
import pytest

from repro.batch import (
    BatchSchedule,
    instance_energies,
    instance_finish_times,
    monte_carlo,
    scenario_energies,
    scenario_finish_times,
)
from repro.ctg import CtgAnalysis, GeneratorConfig, enumerate_scenarios, generate_ctg
from repro.faults.injectors import InstanceFaults
from repro.platform import PlatformConfig, generate_platform
from repro.scheduling import dls_schedule, schedule_online, set_deadline_from_makespan
from repro.scheduling.pathcache import structure_for
from repro.sim import InstanceExecutor
from repro.workloads import mpeg_ctg, mpeg_platform


def _mpeg_schedule():
    ctg = mpeg_ctg()
    platform = mpeg_platform()
    set_deadline_from_makespan(ctg, platform, 1.3)
    return ctg, platform, schedule_online(ctg, platform).schedule


def _decisions_of(scenario, ctg):
    vector = {}
    for branch in ctg.branch_nodes():
        chosen = scenario.product.label_for(branch)
        vector[branch] = chosen if chosen is not None else ctg.outcomes_of(branch)[0]
    return vector


class TestRoundTrip:
    def test_mpeg_round_trip_is_bit_exact(self):
        _ctg, _platform, schedule = _mpeg_schedule()
        batch = BatchSchedule.from_ctg(schedule)
        rebuilt = batch.to_schedule()
        assert rebuilt.ctg is schedule.ctg
        assert rebuilt.platform is schedule.platform
        assert set(rebuilt.placements) == set(schedule.placements)
        for task, placement in schedule.placements.items():
            clone = rebuilt.placements[task]
            assert clone.pe == placement.pe
            assert clone.wcet == placement.wcet
            assert clone.nominal_energy == placement.nominal_energy
            assert clone.speed == placement.speed
            assert clone.order_index == placement.order_index
        assert rebuilt.comm_bookings == schedule.comm_bookings
        assert rebuilt.exclusions == schedule.exclusions

    def test_snapshot_is_insulated_from_later_speed_changes(self):
        _ctg, _platform, schedule = _mpeg_schedule()
        batch = BatchSchedule.from_ctg(schedule)
        before = batch.speed.copy()
        task = next(iter(schedule.placements))
        schedule.set_speed(task, 0.123)
        assert np.array_equal(batch.speed, before)


class TestFinishAndEnergyKernels:
    def test_scenario_kernels_match_executor_on_every_minterm(self):
        ctg, _platform, schedule = _mpeg_schedule()
        batch = BatchSchedule.from_ctg(schedule)
        executor = InstanceExecutor(schedule)
        finishes = scenario_finish_times(batch)
        energies = scenario_energies(batch)
        assert finishes.shape == (batch.n_scenarios,)
        for s, scenario in enumerate(batch.scenarios):
            outcome = executor.run(_decisions_of(scenario, ctg))
            assert finishes[s] == pytest.approx(outcome.finish_time, abs=1e-9)
            assert energies[s] == pytest.approx(outcome.energy, rel=1e-9)

    def test_scenario_kernels_match_executor_on_generated_graphs(self):
        for seed in (3, 17, 91):
            cfg = GeneratorConfig(nodes=18, branch_nodes=2, category=2, seed=seed)
            ctg = generate_ctg(cfg)
            platform = generate_platform(ctg.tasks(), PlatformConfig(pes=3, seed=seed))
            set_deadline_from_makespan(ctg, platform, 1.4)
            schedule = schedule_online(ctg, platform).schedule
            batch = BatchSchedule.from_ctg(schedule)
            executor = InstanceExecutor(schedule)
            finishes = scenario_finish_times(batch)
            for s, scenario in enumerate(batch.scenarios):
                outcome = executor.run(_decisions_of(scenario, ctg))
                assert finishes[s] == pytest.approx(outcome.finish_time, abs=1e-9)

    def test_instance_kernel_matches_scenario_kernel_without_factors(self):
        _ctg, _platform, schedule = _mpeg_schedule()
        batch = BatchSchedule.from_ctg(schedule)
        scn = np.arange(batch.n_scenarios, dtype=np.intp)
        np.testing.assert_allclose(
            instance_finish_times(batch, scn), scenario_finish_times(batch),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            instance_energies(batch, scn), scenario_energies(batch), rtol=1e-12
        )

    def test_wcet_factor_kernels_match_faulted_baseline_arm(self):
        ctg, _platform, schedule = _mpeg_schedule()
        batch = BatchSchedule.from_ctg(schedule)
        executor = InstanceExecutor(schedule)
        rng = np.random.default_rng(5)
        n = 24
        scn = rng.integers(0, batch.n_scenarios, size=n)
        factors = rng.uniform(1.0, 1.4, size=(n, batch.n_tasks))
        finishes = instance_finish_times(batch, scn, factors)
        energies = instance_energies(batch, scn, factors)
        for i in range(n):
            scenario = batch.scenarios[scn[i]]
            faults = InstanceFaults(
                instance=i,
                wcet_factors={
                    task: float(factors[i, t])
                    for t, task in enumerate(batch.tasks)
                },
            )
            outcome = executor.run_faulted(_decisions_of(scenario, ctg), faults)
            assert finishes[i] == pytest.approx(
                outcome.baseline_finish_time, abs=1e-9
            )
            assert energies[i] == pytest.approx(outcome.baseline_energy, rel=1e-9)


class TestMonteCarlo:
    def test_fast_path_matches_executor_elementwise(self):
        ctg, platform, schedule = _mpeg_schedule()
        result = monte_carlo(ctg, platform, 200, seed=11, schedule=schedule)
        executor = InstanceExecutor(schedule)
        for i in range(result.n):
            outcome = executor.run(result.decisions(i))
            assert result.finish_times[i] == pytest.approx(
                outcome.finish_time, abs=1e-9
            )
            assert result.energies[i] == pytest.approx(outcome.energy, rel=1e-9)
            assert bool(result.deadline_met[i]) == outcome.deadline_met

    def test_wcet_range_path_matches_faulted_baseline_arm(self):
        ctg, platform, schedule = _mpeg_schedule()
        result = monte_carlo(
            ctg, platform, 32, seed=4, schedule=schedule, wcet_range=(1.0, 1.3)
        )
        assert result.wcet_factors is not None
        executor = InstanceExecutor(schedule)
        for i in range(result.n):
            faults = InstanceFaults(
                instance=i,
                wcet_factors={
                    task: float(result.wcet_factors[i, t])
                    for t, task in enumerate(
                        BatchSchedule.from_ctg(schedule).tasks
                    )
                },
            )
            outcome = executor.run_faulted(result.decisions(i), faults)
            assert result.finish_times[i] == pytest.approx(
                outcome.baseline_finish_time, abs=1e-9
            )
            assert result.energies[i] == pytest.approx(
                outcome.baseline_energy, rel=1e-9
            )

    def test_same_seed_reproduces_and_seeds_differ(self):
        ctg, platform, schedule = _mpeg_schedule()
        a = monte_carlo(ctg, platform, 500, seed=2, schedule=schedule)
        b = monte_carlo(ctg, platform, 500, seed=2, schedule=schedule)
        c = monte_carlo(ctg, platform, 500, seed=3, schedule=schedule)
        assert np.array_equal(a.scenario_indices, b.scenario_indices)
        assert np.array_equal(a.finish_times, b.finish_times)
        assert not np.array_equal(a.scenario_indices, c.scenario_indices)

    def test_sampled_scenario_frequencies_track_probabilities(self):
        ctg, platform, schedule = _mpeg_schedule()
        probabilities = ctg.default_probabilities
        result = monte_carlo(ctg, platform, 20_000, seed=0, schedule=schedule)
        batch = BatchSchedule.from_ctg(schedule)
        counts = result.scenario_counts(batch.n_scenarios)
        for s, scenario in enumerate(batch.scenarios):
            expected = scenario.probability(probabilities)
            assert counts[s] / result.n == pytest.approx(expected, abs=0.02)

    def test_every_sampled_instance_meets_the_deadline(self):
        """Hard real-time through the batched path: the stretched
        schedule was built for the worst case, so no sampled scenario
        (without execution-time faults) may miss."""
        ctg, platform, schedule = _mpeg_schedule()
        result = monte_carlo(ctg, platform, 5_000, seed=9, schedule=schedule)
        assert result.miss_rate == 0.0

    def test_rejects_nonpositive_n(self):
        ctg, platform, schedule = _mpeg_schedule()
        with pytest.raises(ValueError):
            monte_carlo(ctg, platform, 0, schedule=schedule)


class TestMembershipMasks:
    def test_masks_pack_the_membership_matrix(self):
        ctg = mpeg_ctg()
        platform = mpeg_platform()
        set_deadline_from_makespan(ctg, platform, 1.3)
        analysis = CtgAnalysis.of(ctg)
        schedule = dls_schedule(ctg, platform, analysis=analysis)
        structure = structure_for(schedule, analysis.scenarios, analysis.path_cache)
        masks = structure.membership_masks()
        assert len(masks) == structure.path_count
        for p, mask in enumerate(masks):
            for s in range(len(structure.scenarios)):
                assert bool(mask >> s & 1) == bool(structure.membership[p, s])
        # cached: second call returns the identical tuple
        assert structure.membership_masks() is masks

    def test_task_scenario_masks_match_active_matrix(self):
        _ctg, _platform, schedule = _mpeg_schedule()
        batch = BatchSchedule.from_ctg(schedule)
        for t in range(batch.n_tasks):
            expected = sum(
                1 << s for s in range(batch.n_scenarios) if batch.active[s, t]
            )
            assert batch.task_scenario_masks[t] == expected
