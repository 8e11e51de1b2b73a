"""The compiled replay plan against the reference executor.

``InstanceExecutor`` times every replay through one
:class:`~repro.scheduling.replay.ReplayPlan`; ``tests/oracles/executor.py``
keeps the walks that spelled the Example-1 rule out over the networkx
edge views.  On generated CTGs (DLS pseudo edges, nested branches,
stretched or quantised speeds) both must return equal
:class:`InstanceResult` records — equal scenarios, and every other field
compared by ``repr``, so every float bit and every dict order counts —
record the same profiler counters and
trace the same ``sim.task``/``sim.link`` spans, for WCET replays,
sampled work ratios, slack reclamation and injected faults under both
degradation policies.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.ctg import ConditionalTaskGraph, NodeKind, enumerate_scenarios, figure1_ctg
from repro.faults.injectors import InstanceFaults
from repro.faults.policy import DegradationPolicy
from repro.obs.trace import Tracer
from repro.platform import Platform, PlatformConfig, ProcessingElement, generate_platform
from repro.profiling import StageProfiler
from repro.scheduling import dls_schedule, schedule_online, set_deadline_from_makespan
from repro.scheduling.policies import DiscreteSpeedPolicy, resolve_speed_policy
from repro.scheduling.replay import ReplayPlan
from repro.sim import InstanceExecutor, scenario_from_decisions

from .instances import build_instance, decisions_of
from .oracles.executor import ReferenceExecutor

POLICIES = {
    "continuous": "continuous",
    "discrete": "discrete",
    # a table topping out below 1.0 caps escalation and turns on the
    # faulted replay's quantisation-loss arm
    "capped": DiscreteSpeedPolicy(levels=(0.25, 0.5)),
    "preemptive": "preemptive",
}


def _traced():
    return StageProfiler(tracer=Tracer())


def _sim_spans(profiler):
    return [
        span
        for span in profiler.tracer.spans
        if span.category in ("sim.task", "sim.link")
    ]


def _random_faults(rng, schedule, index):
    tasks = sorted(schedule.placements)
    pes = sorted({p.pe for p in schedule.placements.values()})
    edges = sorted((s, d) for s, d, _ in schedule.ctg.edges(include_pseudo=False))

    def pick(items, p):
        return [item for item in items if rng.random() < p]

    return InstanceFaults(
        instance=index,
        wcet_factors={t: rng.uniform(1.0, 2.0) for t in pick(tasks, 0.3)},
        wcet_additions={t: rng.uniform(0.0, 20.0) for t in pick(tasks, 0.15)},
        pe_factors={pe: rng.uniform(1.0, 1.5) for pe in pick(pes, 0.3)},
        pe_freezes={pe: rng.uniform(0.0, 0.3) for pe in pick(pes, 0.2)},
        edge_factors={e: rng.uniform(1.0, 3.0) for e in pick(edges, 0.3)},
    )


def _random_decisions(rng, ctg):
    return {b: rng.choice(ctg.outcomes_of(b)) for b in ctg.branch_nodes()}


def _assert_same(new_prof, ref_prof, new, ref):
    # the scenario by equality (its ``active`` frozenset iterates in an
    # order that carries no meaning), every other field by ``repr``
    assert new.scenario == ref.scenario
    assert repr(replace(new, scenario=None)) == repr(replace(ref, scenario=None))
    assert new_prof.counters == ref_prof.counters
    assert _sim_spans(new_prof) == _sim_spans(ref_prof)


@settings(max_examples=25, deadline=None)
@given(
    nodes=st.integers(10, 26),
    branches=st.integers(1, 4),
    category=st.sampled_from([1, 2]),
    pes=st.integers(2, 4),
    seed=st.integers(0, 500),
    factor=st.floats(1.05, 2.0),
    policy=st.sampled_from(sorted(POLICIES)),
    replay_seed=st.integers(0, 2**16),
)
def test_executor_matches_reference(
    nodes, branches, category, pes, seed, factor, policy, replay_seed
):
    try:
        ctg, platform = build_instance(nodes, branches, category, pes, seed, factor)
    except ValueError:
        return
    speed_policy = resolve_speed_policy(POLICIES[policy])
    schedule = schedule_online(ctg, platform, speed_policy=speed_policy).schedule
    real = schedule.ctg.without_pseudo_edges()
    assert ReplayPlan.of(schedule).deciders == {
        task: tuple(real.deciding_branches(task))
        for task in ctg.tasks()
        if ctg.kind(task) is NodeKind.OR
    }
    new_prof, ref_prof = _traced(), _traced()
    new_exec = InstanceExecutor(schedule, profiler=new_prof, speed_policy=speed_policy)
    ref_exec = ReferenceExecutor(schedule, profiler=ref_prof, speed_policy=speed_policy)
    rng = random.Random(replay_seed)
    degradations = (DegradationPolicy.none(), DegradationPolicy.default())
    for index in range(6):
        decisions = _random_decisions(rng, ctg)
        _assert_same(
            new_prof, ref_prof,
            new_exec.run(decisions), ref_exec.run(decisions),
        )
        ratios = {t: rng.uniform(0.1, 1.0) for t in ctg.tasks() if rng.random() < 0.8}
        _assert_same(
            new_prof, ref_prof,
            new_exec.run(decisions, work_ratios=ratios),
            ref_exec.run(decisions, work_ratios=ratios),
        )
        faults = _random_faults(rng, schedule, index)
        for degradation in degradations:
            _assert_same(
                new_prof, ref_prof,
                new_exec.run_faulted(decisions, faults, degradation),
                ref_exec.run_faulted(decisions, faults, degradation),
            )
        # control-plane-only faults take the nominal replay
        idle = InstanceFaults(instance=index, drop_reschedule=True)
        _assert_same(
            new_prof, ref_prof,
            new_exec.run_faulted(decisions, idle, degradations[1]),
            ref_exec.run_faulted(decisions, idle, degradations[1]),
        )


@pytest.mark.parametrize("policy", ["capped", "discrete"])
def test_escalation_arms_match_reference(policy):
    """Both escalation arms under a ceiling below 1.0 and at 1.0: with
    slack for low speeds and a 3x overrun on every task, the watchdog
    fires mid-task first and the later tasks run at the ceiling."""
    speed_policy = resolve_speed_policy(POLICIES[policy])
    ctg, platform = build_instance(14, 1, 1, 2, 3, 3.0)
    schedule = schedule_online(ctg, platform, speed_policy=speed_policy).schedule
    decisions = {b: ctg.outcomes_of(b)[0] for b in ctg.branch_nodes()}
    faults = InstanceFaults(instance=0, wcet_factors={t: 3.0 for t in ctg.tasks()})
    new_prof, ref_prof = _traced(), _traced()
    new = InstanceExecutor(
        schedule, profiler=new_prof, speed_policy=speed_policy
    ).run_faulted(decisions, faults, DegradationPolicy.default())
    ref = ReferenceExecutor(
        schedule, profiler=ref_prof, speed_policy=speed_policy
    ).run_faulted(decisions, faults, DegradationPolicy.default())
    assert new.overrun_detected and len(new.escalated) > 1
    _assert_same(new_prof, ref_prof, new, ref)


def _workload(name):
    if name == "figure1":
        # a slow fork τ₃ on pe1 and τ₈ behind a fast τ₂ on pe0: nothing
        # but the Example-1 rule makes τ₈ wait for τ₃ under a₂
        ctg = figure1_ctg()
        platform = Platform([ProcessingElement("pe0"), ProcessingElement("pe1")])
        platform.connect_all(bandwidth=10.0, energy_per_kbyte=0.01)
        for task in ctg.tasks():
            wcet = 50.0 if task == "t3" else 1.0
            pe = "pe0" if task in ("t1", "t2", "t8") else "pe1"
            platform.set_task_profile(task, pe, wcet=wcet, energy=wcet)
    else:
        ctg = getattr(workloads, f"{name}_ctg")()
        platform = getattr(workloads, f"{name}_platform")()
    if ctg.deadline <= 0:
        set_deadline_from_makespan(ctg, platform, 1.3)
    return ctg, platform


@pytest.mark.parametrize("policy", ["continuous", "preemptive"])
@pytest.mark.parametrize("name", ["figure1", "cruise", "wlan", "mpeg"])
def test_paper_graphs_match_reference(name, policy):
    """Every scenario of the paper's example (on a mapping where τ₈'s
    wait for τ₃ binds, which no generated CTG above has shown) and of
    the three workloads."""
    ctg, platform = _workload(name)
    schedule = schedule_online(ctg, platform).schedule
    new_prof, ref_prof = _traced(), _traced()
    new_exec = InstanceExecutor(schedule, profiler=new_prof, speed_policy=policy)
    ref_exec = ReferenceExecutor(schedule, profiler=ref_prof, speed_policy=policy)
    rng = random.Random(7)
    for index, scenario in enumerate(enumerate_scenarios(ctg)):
        decisions = decisions_of(scenario, ctg)
        _assert_same(
            new_prof, ref_prof, new_exec.run(decisions), ref_exec.run(decisions)
        )
        faults = _random_faults(rng, schedule, index)
        _assert_same(
            new_prof, ref_prof,
            new_exec.run_faulted(decisions, faults, DegradationPolicy.default()),
            ref_exec.run_faulted(decisions, faults, DegradationPolicy.default()),
        )


def test_plan_of_unplaced_schedule_does_not_raise():
    """The feasibility check replays corrupted schedules: a task
    dropped from the mapping keeps its rows, with delay 0.0 on its
    real edges."""
    ctg = figure1_ctg()
    platform = generate_platform(ctg.tasks(), PlatformConfig(pes=2, seed=6))
    set_deadline_from_makespan(ctg, platform, 1.4)
    schedule = schedule_online(ctg, platform).schedule
    del schedule.placements["t4"]
    plan = ReplayPlan.of(schedule)
    assert "t4" in plan.order
    assert ("t4", 0.0, None, None) in plan.inputs["t8"]
    assert ("t3", 0.0, "t3", "a1") in plan.inputs["t4"]


# ----------------------------------------------------------------------
# Activation: ReplayPlan.activate against scenario_from_decisions
# ----------------------------------------------------------------------
@st.composite
def _random_graphs(draw):
    """A random DAG with random and/or kinds and branch forks anywhere.

    Unlike the generator's fork-join shapes, and-nodes here may join a
    guarded arm with an unguarded edge, and or-nodes may join any
    edges, so flipping a node's kind changes the active set.
    """
    n = draw(st.integers(3, 12))
    names = [f"t{i}" for i in range(n)]
    ctg = ConditionalTaskGraph("random")
    for name in names:
        ctg.add_task(name, draw(st.sampled_from([NodeKind.AND, NodeKind.OR])))
    forks = {name for name in names[:-1] if draw(st.booleans())}
    for j in range(1, n):
        for i in range(j):
            if draw(st.integers(0, 2)) != 0:  # an edge with probability 1/3
                continue
            src = names[i]
            if src in forks:
                label = draw(st.sampled_from(["a", "b", "c"]))
                ctg.add_conditional_edge(src, names[j], f"{src}{label}", comm_kbytes=1.0)
            else:
                ctg.add_edge(src, names[j], comm_kbytes=1.0)
    for fork in forks:
        # every fork has ≥ 2 outcomes even when it guards fewer edges
        labels = [f"{fork}{x}" for x in "abc"]
        ctg.declare_outcomes(fork, labels)
        ctg.default_probabilities[fork] = {label: 1 / 3 for label in labels}
    return ctg


def _scheduled(ctg, pes, seed):
    """The DLS schedule of ``ctg``: its graph carries pseudo edges."""
    platform = generate_platform(ctg.tasks(), PlatformConfig(pes=pes, seed=seed))
    return dls_schedule(ctg, platform)


def _assert_activation_matches(schedule, decisions):
    plan = ReplayPlan.of(schedule)
    real = schedule.ctg.without_pseudo_edges()
    try:
        expected = scenario_from_decisions(real, decisions)
    except ValueError:
        with pytest.raises(ValueError, match="undecided"):
            plan.activate(decisions)
        return None
    scenario = plan.activate(decisions)
    assert scenario.active == expected.active
    assert scenario.product == expected.product
    assert str(scenario.product) == str(expected.product)
    return scenario


@settings(max_examples=60, deadline=None)
@given(
    ctg=_random_graphs(),
    pes=st.integers(1, 3),
    seed=st.integers(0, 100),
    data=st.data(),
)
def test_plan_activation_matches_oracle_on_random_graphs(ctg, pes, seed, data):
    schedule = _scheduled(ctg, pes, seed)
    for _ in range(4):
        full = {b: data.draw(st.sampled_from(ctg.outcomes_of(b))) for b in ctg.branch_nodes()}
        assert _assert_activation_matches(schedule, full) is not None
        dropped = {b: label for b, label in full.items() if data.draw(st.booleans())}
        _assert_activation_matches(schedule, dropped)


@settings(max_examples=25, deadline=None)
@given(
    nodes=st.integers(10, 30),
    branches=st.integers(1, 5),
    category=st.sampled_from([1, 2]),
    pes=st.integers(2, 4),
    seed=st.integers(0, 500),
    replay_seed=st.integers(0, 2**16),
)
def test_plan_activation_matches_oracle_on_generated_ctgs(
    nodes, branches, category, pes, seed, replay_seed
):
    """Nested fork-join branches with or-node joins, scheduled by DLS;
    every full vector matches, and dropping one executed branch from a
    vector raises on both sides."""
    try:
        ctg, platform = build_instance(nodes, branches, category, pes, seed, 1.3)
    except ValueError:
        return
    schedule = dls_schedule(ctg, platform)
    rng = random.Random(replay_seed)
    for _ in range(6):
        decisions = _random_decisions(rng, ctg)
        scenario = _assert_activation_matches(schedule, decisions)
        executed = scenario.product.branches
        if executed:
            missing = dict(decisions)
            del missing[rng.choice(executed)]
            assert _assert_activation_matches(schedule, missing) is None


def test_plan_activation_of_figure1():
    """Example 1: a₁ skips the inner fork τ₅, whose decision is then not
    part of the product; under a₂ it is needed."""
    ctg = figure1_ctg()
    platform = generate_platform(ctg.tasks(), PlatformConfig(pes=2, seed=6))
    plan = ReplayPlan.of(dls_schedule(ctg, platform))
    scenario = plan.activate({"t3": "a1", "t5": "b1"})
    assert scenario.active == frozenset({"t1", "t2", "t3", "t4", "t8"})
    assert str(scenario.product) == "a1"
    assert str(plan.activate({"t3": "a2", "t5": "b2"}).product) == "a2b2"
    with pytest.raises(ValueError, match="'t5' undecided"):
        plan.activate({"t3": "a2"})
