"""Cross-module property-based tests (the system-level invariants).

These tie the whole stack together on randomly generated instances:
feasibility in *every* scenario, consistency between the analytical
expected-energy model and the per-instance simulator (the paper's
future-work "mathematical model" check), monotonicity in the deadline,
and serialisation round-trips.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctg import GeneratorConfig, enumerate_scenarios, generate_ctg
from repro.io import ctg_from_dict, ctg_to_dict
from repro.platform import PlatformConfig, generate_platform
from repro.scheduling import schedule_online, set_deadline_from_makespan
from repro.sim import InstanceExecutor

from .instances import build_instance, decisions_of


@settings(max_examples=12, deadline=None)
@given(
    nodes=st.integers(12, 26),
    branches=st.integers(1, 3),
    category=st.sampled_from([1, 2]),
    pes=st.integers(2, 4),
    seed=st.integers(0, 400),
    factor=st.floats(1.05, 2.0),
)
def test_every_scenario_meets_deadline_end_to_end(
    nodes, branches, category, pes, seed, factor
):
    """Hard real-time: replaying EVERY scenario of an online schedule
    through the instance executor meets the deadline."""
    try:
        ctg, platform = build_instance(nodes, branches, category, pes, seed, factor)
    except ValueError:
        return
    result = schedule_online(ctg, platform)
    executor = InstanceExecutor(result.schedule)
    for scenario in enumerate_scenarios(ctg):
        outcome = executor.run(decisions_of(scenario, ctg))
        assert outcome.deadline_met
        assert outcome.finish_time <= ctg.deadline + 1e-6


@settings(max_examples=10, deadline=None)
@given(
    nodes=st.integers(12, 24),
    branches=st.integers(1, 3),
    pes=st.integers(2, 3),
    seed=st.integers(0, 300),
)
def test_expected_energy_matches_scenario_mixture(nodes, branches, pes, seed):
    """The analytical expected energy equals the probability-weighted
    sum of per-scenario executor energies — i.e. the closed-form model
    and the simulator agree exactly (paper's future-work validation)."""
    try:
        ctg, platform = build_instance(nodes, branches, 1, pes, seed, 1.4)
    except ValueError:
        return
    probabilities = ctg.default_probabilities
    result = schedule_online(ctg, platform)
    executor = InstanceExecutor(result.schedule)
    mixture = 0.0
    for scenario in enumerate_scenarios(ctg):
        outcome = executor.run(decisions_of(scenario, ctg))
        mixture += scenario.probability(probabilities) * outcome.energy
    analytical = result.schedule.expected_energy(probabilities)
    assert analytical == pytest.approx(mixture, rel=1e-9)


@settings(max_examples=8, deadline=None)
@given(
    nodes=st.integers(12, 22),
    branches=st.integers(1, 2),
    pes=st.integers(2, 3),
    seed=st.integers(0, 200),
)
def test_looser_deadline_never_costs_energy(nodes, branches, pes, seed):
    """Monotonicity: more slack can only reduce expected energy."""
    try:
        cfg = GeneratorConfig(nodes=nodes, branch_nodes=branches, category=1, seed=seed)
    except ValueError:
        return
    ctg = generate_ctg(cfg)
    platform = generate_platform(ctg.tasks(), PlatformConfig(pes=pes, seed=seed))
    base = set_deadline_from_makespan(ctg, platform, 1.2)
    probabilities = ctg.default_probabilities
    tight = schedule_online(ctg, platform).schedule.expected_energy(probabilities)
    loose = schedule_online(ctg, platform, deadline=base * 1.5).schedule.expected_energy(
        probabilities
    )
    assert loose <= tight + 1e-9


@settings(max_examples=15, deadline=None)
@given(
    nodes=st.integers(10, 30),
    branches=st.integers(0, 3),
    category=st.sampled_from([1, 2]),
    seed=st.integers(0, 1000),
)
def test_serialisation_round_trip_random_graphs(nodes, branches, category, seed):
    """ctg → dict → ctg preserves structure, scenarios and probabilities."""
    try:
        cfg = GeneratorConfig(nodes=nodes, branch_nodes=branches, category=category, seed=seed)
    except ValueError:
        return
    original = generate_ctg(cfg)
    clone = ctg_from_dict(ctg_to_dict(original))
    assert clone.tasks() == original.tasks()
    assert sorted(
        (s, d, e.comm_kbytes) for s, d, e in clone.edges()
    ) == sorted((s, d, e.comm_kbytes) for s, d, e in original.edges())
    assert {str(s.product) for s in enumerate_scenarios(clone)} == {
        str(s.product) for s in enumerate_scenarios(original)
    }
    assert clone.default_probabilities == original.default_probabilities


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 150), pes=st.integers(2, 4))
def test_speeds_bounded_and_deadline_saturated_or_nominal(seed, pes):
    """Every speed lies in the PE envelope, and either the schedule uses
    its slack (makespan close to deadline) or everything runs nominal."""
    ctg = generate_ctg(GeneratorConfig(nodes=18, branch_nodes=2, category=1, seed=seed))
    platform = generate_platform(ctg.tasks(), PlatformConfig(pes=pes, seed=seed))
    set_deadline_from_makespan(ctg, platform, 1.5)
    schedule = schedule_online(ctg, platform).schedule
    for task in ctg.tasks():
        placement = schedule.placement(task)
        pe = platform.pe(placement.pe)
        assert pe.min_speed - 1e-9 <= placement.speed <= 1.0 + 1e-9
    assert schedule.makespan() <= ctg.deadline + 1e-6
