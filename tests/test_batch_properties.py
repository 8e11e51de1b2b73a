"""Property-based agreement between the batch kernels and the scalar
object-walking implementations, on randomly generated instances.

The contract under test (see ``docs/algorithms.md`` §6.5): for any
generable CTG/platform pair, the array-native kernels agree elementwise
with the executor replay they batch, and the struct-of-arrays round
trip is bit-exact.  (Stretching is checked against its scalar oracle in
``tests/test_stretching_oracle.py``.)
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchSchedule,
    monte_carlo,
    scenario_energies,
    scenario_finish_times,
)
from repro.check.feasibility import scenario_finish_time
from repro.scheduling import schedule_online
from repro.sim import InstanceExecutor

from .instances import build_instance, decisions_of


@settings(max_examples=10, deadline=None)
@given(
    nodes=st.integers(12, 26),
    branches=st.integers(1, 3),
    category=st.sampled_from([1, 2]),
    pes=st.integers(2, 4),
    seed=st.integers(0, 400),
    factor=st.floats(1.05, 2.0),
)
def test_round_trip_is_bit_exact(nodes, branches, category, pes, seed, factor):
    """from_ctg → to_schedule preserves every placement field exactly."""
    try:
        ctg, platform = build_instance(nodes, branches, category, pes, seed, factor)
    except ValueError:
        return
    schedule = schedule_online(ctg, platform).schedule
    rebuilt = BatchSchedule.from_ctg(schedule).to_schedule()
    assert set(rebuilt.placements) == set(schedule.placements)
    for task, placement in schedule.placements.items():
        clone = rebuilt.placements[task]
        assert clone.pe == placement.pe
        assert clone.wcet == placement.wcet
        assert clone.nominal_energy == placement.nominal_energy
        assert clone.speed == placement.speed
        assert clone.order_index == placement.order_index
    assert rebuilt.comm_bookings == schedule.comm_bookings


@settings(max_examples=10, deadline=None)
@given(
    nodes=st.integers(12, 26),
    branches=st.integers(1, 3),
    category=st.sampled_from([1, 2]),
    pes=st.integers(2, 4),
    seed=st.integers(0, 400),
    factor=st.floats(1.05, 2.0),
)
def test_scenario_kernels_agree_with_executor(
    nodes, branches, category, pes, seed, factor
):
    """Batched per-scenario finish times and energies, and the static
    feasibility check's finish times, equal the executor's replay of
    every minterm (the feasibility check exactly: it walks the same
    replay plan)."""
    try:
        ctg, platform = build_instance(nodes, branches, category, pes, seed, factor)
    except ValueError:
        return
    schedule = schedule_online(ctg, platform).schedule
    batch = BatchSchedule.from_ctg(schedule)
    executor = InstanceExecutor(schedule)
    finishes = scenario_finish_times(batch)
    energies = scenario_energies(batch)
    for s, scenario in enumerate(batch.scenarios):
        outcome = executor.run(decisions_of(scenario, ctg))
        assert finishes[s] == pytest.approx(outcome.finish_time, abs=1e-9)
        assert energies[s] == pytest.approx(outcome.energy, rel=1e-9)
        assert scenario_finish_time(schedule, scenario) == outcome.finish_time


@settings(max_examples=8, deadline=None)
@given(
    nodes=st.integers(12, 24),
    branches=st.integers(1, 3),
    pes=st.integers(2, 4),
    seed=st.integers(0, 300),
    mc_seed=st.integers(0, 50),
)
def test_monte_carlo_agrees_with_executor_elementwise(
    nodes, branches, pes, seed, mc_seed
):
    """Every sampled instance's finish/energy/deadline flag equals the
    executor's replay of the same decision vector."""
    try:
        ctg, platform = build_instance(nodes, branches, 1, pes, seed, 1.4)
    except ValueError:
        return
    schedule = schedule_online(ctg, platform).schedule
    result = monte_carlo(ctg, platform, 64, seed=mc_seed, schedule=schedule)
    executor = InstanceExecutor(schedule)
    for i in range(result.n):
        outcome = executor.run(result.decisions(i))
        assert result.finish_times[i] == pytest.approx(outcome.finish_time, abs=1e-9)
        assert result.energies[i] == pytest.approx(outcome.energy, rel=1e-9)
        assert bool(result.deadline_met[i]) == outcome.deadline_met


@settings(max_examples=8, deadline=None)
@given(
    nodes=st.integers(12, 24),
    branches=st.integers(1, 3),
    pes=st.integers(2, 4),
    seed=st.integers(0, 300),
)
def test_task_scenario_masks_pack_activation(nodes, branches, pes, seed):
    """The packed per-task scenario bitmasks equal the activation
    matrix column by column — including past 63 scenarios (the numpy
    shift-overflow regression)."""
    try:
        ctg, platform = build_instance(nodes, branches, 1, pes, seed, 1.4)
    except ValueError:
        return
    schedule = schedule_online(ctg, platform).schedule
    batch = BatchSchedule.from_ctg(schedule)
    for t in range(batch.n_tasks):
        expected = sum(
            1 << s for s in range(batch.n_scenarios) if batch.active[s, t]
        )
        assert batch.task_scenario_masks[t] == expected
        assert batch.task_scenario_masks[t] >= 0
