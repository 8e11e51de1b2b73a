"""Property-based invariants of the speed-policy families.

Three contracts from ``docs/algorithms.md`` §6.6, on randomly
generated instances:

* **discrete safety** — a discrete-policy schedule only ever assigns
  speeds that sit on the PE's usable level table, and quantising *up*
  plus energy refinement never loses the deadline;
* **preemptive dominance** — Leung–Tsui run-time slack reclamation
  never consumes more energy than the static replay of the same
  instance with the same actual execution times, and never finishes
  later than its WCET budget allows;
* **quantisation agreement** — ``DiscreteDvfs.clamp`` (the linear
  table scan every discrete PE and policy applies) is bit-identical to
  an independent ``numpy.searchsorted`` formulation of the same
  envelope-then-round-up rule on arbitrary inputs.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.tolerances import EXACT_EPS, TIME_EPS
from repro.ctg import enumerate_scenarios
from repro.platform.frequency import DiscreteDvfs
from repro.scheduling import schedule_online
from repro.scheduling.policies import DiscreteSpeedPolicy, PreemptiveSpeedPolicy
from repro.sim import InstanceExecutor

from .instances import build_instance, decisions_of


@settings(max_examples=10, deadline=None)
@given(
    nodes=st.integers(12, 24),
    branches=st.integers(1, 3),
    category=st.sampled_from([1, 2]),
    pes=st.integers(2, 4),
    seed=st.integers(0, 300),
    factor=st.floats(1.1, 2.0),
)
def test_discrete_speeds_sit_on_levels_and_keep_the_deadline(
    nodes, branches, category, pes, seed, factor
):
    try:
        ctg, platform = build_instance(nodes, branches, category, pes, seed, factor)
    except ValueError:
        return
    policy = DiscreteSpeedPolicy()
    result = schedule_online(ctg, platform, speed_policy=policy)
    schedule = result.schedule
    for task in schedule.placement_order():
        placement = schedule.placement(task)
        pe = platform.pe(placement.pe)
        levels = policy.levels_for(pe)
        assert any(
            abs(placement.speed - level) <= EXACT_EPS for level in levels
        ), (task, placement.speed, levels)
    assert schedule.makespan() <= ctg.deadline + TIME_EPS


@settings(max_examples=8, deadline=None)
@given(
    nodes=st.integers(12, 24),
    branches=st.integers(1, 3),
    category=st.sampled_from([1, 2]),
    pes=st.integers(2, 4),
    seed=st.integers(0, 300),
    factor=st.floats(1.1, 2.0),
)
def test_preemptive_reclamation_never_increases_energy(
    nodes, branches, category, pes, seed, factor
):
    try:
        ctg, platform = build_instance(nodes, branches, category, pes, seed, factor)
    except ValueError:
        return
    schedule = schedule_online(ctg, platform).schedule
    rng = random.Random(seed)
    ratios = {task: rng.uniform(0.2, 1.0) for task in ctg.tasks()}
    static = InstanceExecutor(schedule)
    reclaiming = InstanceExecutor(schedule, speed_policy=PreemptiveSpeedPolicy())
    for scenario in enumerate_scenarios(ctg):
        decisions = decisions_of(scenario, ctg)
        base = static.run(decisions, work_ratios=ratios)
        dyn = reclaiming.run(decisions, work_ratios=ratios)
        assert dyn.energy <= base.energy * (1.0 + 1e-9) + 1e-9, scenario
        # reclamation spends slack, never the deadline
        if base.deadline_met:
            assert dyn.deadline_met, scenario


@settings(max_examples=200, deadline=None)
@given(
    speed=st.floats(0.0, 1.5, allow_nan=False),
    min_speed=st.floats(0.05, 0.6),
    table=st.lists(
        st.floats(0.05, 1.0), min_size=1, max_size=6, unique=True
    ),
)
def test_scalar_and_batch_quantisation_agree(speed, min_speed, table):
    levels = tuple(sorted(table))
    scalar = DiscreteDvfs(levels).clamp(speed, min_speed)
    batch = _searchsorted_clamp(speed, min_speed, np.asarray(levels))
    assert scalar == batch, (speed, min_speed, levels)


def _searchsorted_clamp(speed, min_speed, levels):
    """Envelope clamp, then round up onto ``levels`` by bisection."""
    clamped = np.clip(speed, min_speed, 1.0)
    idx = np.searchsorted(levels, clamped - EXACT_EPS, side="left")
    return levels[min(int(idx), levels.size - 1)]


def test_quantisation_examples_round_up():
    table = DiscreteDvfs((0.25, 0.5, 0.75, 1.0))
    assert table.clamp(0.3, 0.25) == 0.5
    assert table.clamp(0.5, 0.25) == 0.5
    assert table.clamp(0.9, 0.25) == 1.0
    # above the table: capped at the top level
    assert DiscreteDvfs((0.25, 0.5)).clamp(1.2, 0.25) == 0.5
    # below the floor: the envelope clamp applies first
    assert table.clamp(0.1, 0.4) == 0.5
