"""Unit + property tests for the modified DLS scheduler, and its
agreement with the rescan-loop oracle in ``tests/oracles/dls.py``."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.ctg import CtgAnalysis, GeneratorConfig, figure1_ctg, generate_ctg
from repro.ctg.examples import diamond_ctg, two_sided_branch_ctg
from repro.platform import Platform, PlatformConfig, ProcessingElement, generate_platform
from repro.profiling import StageProfiler
from repro.scheduling import SchedulingError, dls_schedule, static_levels
from repro.scheduling.baselines import load_balanced_mapping
from repro.workloads import (
    cruise_ctg,
    cruise_platform,
    mpeg_ctg,
    mpeg_platform,
    wlan_ctg,
    wlan_platform,
)

from .instances import build_instance, random_distribution
from .oracles import dls as dls_oracle
from .oracles.dls import reference_dls


def uniform_platform(ctg, pes=2, wcet=10.0, energy=10.0, bandwidth=1.0):
    platform = Platform([ProcessingElement(f"pe{i}") for i in range(pes)])
    if pes > 1:
        platform.connect_all(bandwidth=bandwidth, energy_per_kbyte=0.1)
    for task in ctg.tasks():
        for pe in platform.pe_names:
            platform.set_task_profile(task, pe, wcet=wcet, energy=energy)
    return platform


class TestStaticLevels:
    def test_chain_levels_accumulate(self):
        ctg = diamond_ctg()
        platform = uniform_platform(ctg)
        levels = static_levels(ctg, platform, {})
        assert levels["join"] == pytest.approx(10.0)
        assert levels["left"] == pytest.approx(20.0)
        assert levels["src"] == pytest.approx(30.0)

    def test_branch_level_probability_weighted(self):
        ctg = two_sided_branch_ctg()
        platform = uniform_platform(ctg)
        probs = {"fork": {"h": 0.8, "l": 0.2}}
        levels = static_levels(ctg, platform, probs, probability_aware=True)
        # fork: 10 + 0.8·SL(heavy) + 0.2·SL(light); heavy/light: 10+10
        assert levels["fork"] == pytest.approx(10 + 0.8 * 20 + 0.2 * 20)

    def test_worst_case_levels_take_max(self):
        ctg = two_sided_branch_ctg()
        platform = uniform_platform(ctg)
        probs = {"fork": {"h": 0.5, "l": 0.5}}
        levels = static_levels(ctg, platform, probs, probability_aware=False)
        assert levels["fork"] == pytest.approx(30.0)

    def test_figure1_prob_weighting_lowers_level(self):
        ctg = figure1_ctg()
        platform = uniform_platform(ctg)
        weighted = static_levels(ctg, platform, ctg.default_probabilities, True)
        worst = static_levels(ctg, platform, ctg.default_probabilities, False)
        assert weighted["t3"] <= worst["t3"]
        # non-branching nodes unaffected
        assert weighted["t6"] == worst["t6"]


class TestDlsBasics:
    def test_all_tasks_placed(self):
        ctg = figure1_ctg()
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=3, seed=1))
        sched = dls_schedule(ctg, platform)
        assert set(sched.placements) == set(ctg.tasks())

    def test_original_graph_untouched(self):
        ctg = figure1_ctg()
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=2, seed=1))
        edges_before = list(ctg.edges())
        dls_schedule(ctg, platform)
        assert list(ctg.edges()) == edges_before

    def test_schedule_validates(self):
        ctg = figure1_ctg()
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=3, seed=1))
        sched = dls_schedule(ctg, platform)
        sched.ctg.deadline = 0.0  # no deadline: structural checks only
        sched.validate()

    def test_deterministic(self):
        ctg = figure1_ctg()
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=3, seed=1))
        a = dls_schedule(ctg, platform)
        b = dls_schedule(ctg, platform)
        assert {t: p.pe for t, p in a.placements.items()} == {
            t: p.pe for t, p in b.placements.items()
        }
        assert a.makespan() == b.makespan()

    def test_precedence_respected_in_timing(self):
        ctg = figure1_ctg()
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=3, seed=2))
        sched = dls_schedule(ctg, platform)
        times = sched.worst_case_times()
        for src, dst, data in ctg.edges(include_pseudo=False):
            assert times[dst][0] >= times[src][1] - 1e-9

    def test_single_pe_serialises_non_exclusive(self):
        ctg = diamond_ctg()
        platform = uniform_platform(ctg, pes=1)
        sched = dls_schedule(ctg, platform)
        # src, left, right, join must serialise: makespan = 4 × 10
        assert sched.makespan() == pytest.approx(40.0)


class TestMutexOverlap:
    def test_exclusive_arms_share_pe_slot(self):
        ctg = two_sided_branch_ctg()
        platform = uniform_platform(ctg, pes=1)
        sched = dls_schedule(ctg, platform, mutex_overlap=True)
        # entry, fork, (heavy ∥ light), join → 4 slots of 10
        assert sched.makespan() == pytest.approx(40.0)

    def test_disabling_overlap_serialises(self):
        ctg = two_sided_branch_ctg()
        platform = uniform_platform(ctg, pes=1)
        sched = dls_schedule(ctg, platform, mutex_overlap=False)
        assert sched.makespan() == pytest.approx(50.0)

    def test_overlap_never_between_non_exclusive(self):
        ctg = generate_ctg(GeneratorConfig(nodes=20, branch_nodes=2, seed=9))
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=2, seed=9))
        sched = dls_schedule(ctg, platform)
        times = sched.worst_case_times()
        for pe in platform.pe_names:
            tasks = sched.tasks_on(pe)
            for i, a in enumerate(tasks):
                for b in tasks[i + 1 :]:
                    if sched.are_exclusive(a, b):
                        continue
                    sa, fa = times[a]
                    sb, fb = times[b]
                    assert fa <= sb + 1e-9 or fb <= sa + 1e-9


class TestFixedMapping:
    def test_mapping_respected(self):
        ctg = figure1_ctg()
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=3, seed=1))
        mapping = load_balanced_mapping(ctg, platform)
        sched = dls_schedule(ctg, platform, fixed_mapping=mapping)
        assert {t: sched.pe_of(t) for t in ctg.tasks()} == mapping

    def test_task_missing_from_mapping_is_a_scheduling_error(self):
        ctg, platform = cruise_ctg(), cruise_platform()
        mapping = load_balanced_mapping(ctg, platform)
        del mapping["speed_sensor"]
        with pytest.raises(SchedulingError, match="no PE for task 'speed_sensor'"):
            dls_schedule(ctg, platform, fixed_mapping=mapping)

    def test_unknown_pe_is_a_scheduling_error(self):
        ctg, platform = cruise_ctg(), cruise_platform()
        mapping = load_balanced_mapping(ctg, platform)
        mapping["speed_sensor"] = "pe9"
        with pytest.raises(
            SchedulingError, match="task 'speed_sensor' to unknown PE 'pe9'"
        ):
            dls_schedule(ctg, platform, fixed_mapping=mapping)

    def test_unsupported_pe_is_a_scheduling_error(self):
        ctg = diamond_ctg()
        platform = Platform([ProcessingElement("pe0"), ProcessingElement("pe1")])
        platform.connect_all(bandwidth=1.0, energy_per_kbyte=0.1)
        for task in ctg.tasks():
            platform.set_task_profile(task, "pe0", wcet=10.0, energy=10.0)
            if task != "left":
                platform.set_task_profile(task, "pe1", wcet=10.0, energy=10.0)
        mapping = {task: "pe0" for task in ctg.tasks()}
        mapping["left"] = "pe1"
        with pytest.raises(
            SchedulingError, match="task 'left' to PE 'pe1', which has no profile"
        ):
            dls_schedule(ctg, platform, fixed_mapping=mapping)

    def test_load_balanced_mapping_spreads_load(self):
        ctg = generate_ctg(GeneratorConfig(nodes=24, branch_nodes=0, category=2, seed=3))
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=3, seed=3))
        mapping = load_balanced_mapping(ctg, platform)
        per_pe = {pe: 0 for pe in platform.pe_names}
        for task, pe in mapping.items():
            per_pe[pe] += 1
        assert max(per_pe.values()) - min(per_pe.values()) <= 4


class TestCommunication:
    def test_cross_pe_data_waits_for_transfer(self):
        ctg = diamond_ctg()
        platform = uniform_platform(ctg, pes=2, bandwidth=0.5)
        sched = dls_schedule(ctg, platform)
        times = sched.worst_case_times()
        for src, dst, data in ctg.edges(include_pseudo=False):
            gap = times[dst][0] - times[src][1]
            expected = sched.platform.comm_time(
                sched.pe_of(src), sched.pe_of(dst), data.comm_kbytes
            )
            assert gap >= expected - 1e-9

    def test_comm_bookings_recorded_for_cross_pe_edges(self):
        ctg = diamond_ctg()
        platform = uniform_platform(ctg, pes=2, bandwidth=0.5)
        sched = dls_schedule(ctg, platform)
        cross = [
            (src, dst)
            for src, dst, data in ctg.edges(include_pseudo=False)
            if sched.pe_of(src) != sched.pe_of(dst)
        ]
        booked = {(b.src_task, b.dst_task) for b in sched.comm_bookings}
        assert set(cross) == booked


@settings(max_examples=15, deadline=None)
@given(
    nodes=st.integers(10, 28),
    branches=st.integers(0, 3),
    category=st.sampled_from([1, 2]),
    pes=st.integers(1, 4),
    seed=st.integers(0, 500),
)
def test_dls_invariants(nodes, branches, category, pes, seed):
    """Property: DLS always places every task, respects precedence and
    produces a structurally valid schedule on any generated instance."""
    try:
        cfg = GeneratorConfig(nodes=nodes, branch_nodes=branches, category=category, seed=seed)
    except ValueError:
        return
    ctg = generate_ctg(cfg)
    platform = generate_platform(ctg.tasks(), PlatformConfig(pes=pes, seed=seed))
    sched = dls_schedule(ctg, platform)
    assert set(sched.placements) == set(ctg.tasks())
    sched.validate()
    times = sched.worst_case_times()
    for src, dst, _data in ctg.edges(include_pseudo=False):
        assert times[dst][0] >= times[src][1] - 1e-9


# ----------------------------------------------------------------------
# Agreement with the rescan-loop oracle
# ----------------------------------------------------------------------


def _outcome(schedule):
    """Everything DLS decides: placements, their order, the pseudo
    edges in insertion order, the link bookings and the timing."""
    return (
        {task: placement.pe for task, placement in schedule.placements.items()},
        schedule.placement_order(),
        [(src, dst) for src, dst, data in schedule.ctg.edges() if data.pseudo],
        schedule.comm_bookings,
        schedule.worst_case_times(),
    )


def _assert_matches_oracle(ctg, platform, probabilities=None, fixed=False, **knobs):
    analysis = CtgAnalysis.of(ctg)
    if fixed:
        knobs["fixed_mapping"] = load_balanced_mapping(ctg, platform)
    fast = dls_schedule(ctg, platform, probabilities, analysis=analysis, **knobs)
    oracle = reference_dls(ctg, platform, probabilities, analysis=analysis, **knobs)
    assert _outcome(fast) == _outcome(oracle)


#: (mutex_overlap, probability_aware, fixed_mapping) switches
knobs = dict(
    mutex_overlap=st.booleans(),
    probability_aware=st.booleans(),
    fixed=st.booleans(),
    dist_seed=st.integers(0, 1000),
)


def _generated(nodes, branches, category, pes, seed):
    try:
        return build_instance(nodes, branches, category, pes, seed, 1.5)
    except ValueError:
        assume(False)


@settings(max_examples=30, deadline=None)
@given(
    nodes=st.integers(8, 30),
    branches=st.integers(0, 4),
    category=st.sampled_from([1, 2]),
    pes=st.integers(1, 5),
    seed=st.integers(0, 500),
    **knobs,
)
def test_matches_oracle_on_generated_ctgs(
    nodes, branches, category, pes, seed, mutex_overlap, probability_aware, fixed, dist_seed
):
    ctg, platform = _generated(nodes, branches, category, pes, seed)
    probabilities = random_distribution(ctg, np.random.default_rng(dist_seed))
    _assert_matches_oracle(
        ctg, platform, probabilities, fixed,
        mutex_overlap=mutex_overlap, probability_aware=probability_aware,
    )


@settings(max_examples=6, deadline=None)
@given(
    nodes=st.integers(30, 38),
    pes=st.integers(2, 4),
    seed=st.integers(0, 300),
    **knobs,
)
def test_matches_oracle_past_63_scenarios(
    nodes, pes, seed, mutex_overlap, probability_aware, fixed, dist_seed
):
    """Seven independent branches: 128 scenarios, past a 64-bit mask."""
    ctg, platform = _generated(nodes, 7, 2, pes, seed)
    assert len(CtgAnalysis.of(ctg).scenarios) > 63
    probabilities = random_distribution(ctg, np.random.default_rng(dist_seed))
    _assert_matches_oracle(
        ctg, platform, probabilities, fixed,
        mutex_overlap=mutex_overlap, probability_aware=probability_aware,
    )


def _figure1_instance():
    ctg = figure1_ctg()
    return ctg, generate_platform(ctg.tasks(), PlatformConfig(pes=2, seed=42))


WORKLOADS = {
    "figure1": _figure1_instance,
    "cruise": lambda: (cruise_ctg(), cruise_platform()),
    "mpeg": lambda: (mpeg_ctg(), mpeg_platform()),
    "wlan": lambda: (wlan_ctg(), wlan_platform()),
}


@pytest.mark.parametrize("fixed", [False, True], ids=["mapped", "fixed"])
@pytest.mark.parametrize(
    "mutex_overlap, probability_aware",
    [(True, True), (False, True), (True, False), (False, False)],
    ids=["modified", "serialised", "worst-case-levels", "reference-1"],
)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_bundled_workloads_match_oracle(workload, mutex_overlap, probability_aware, fixed):
    ctg, platform = WORKLOADS[workload]()
    _assert_matches_oracle(
        ctg, platform, None, fixed,
        mutex_overlap=mutex_overlap, probability_aware=probability_aware,
    )


def test_candidate_cache_saves_evaluations(monkeypatch):
    """``dls.candidates_evaluated`` counts only computed evaluations,
    fewer than the oracle's per-step rescan of every (task, PE) pair."""
    ctg, platform = cruise_ctg(), cruise_platform()
    rescans = 0
    arrival_time = dls_oracle._arrival_time

    def counting(*args):
        nonlocal rescans
        rescans += 1
        return arrival_time(*args)

    monkeypatch.setattr(dls_oracle, "_arrival_time", counting)
    reference_dls(ctg, platform)
    profiler = StageProfiler()
    dls_schedule(ctg, platform, profiler=profiler)
    evaluated = profiler.counter("dls.candidates_evaluated")
    assert len(ctg) <= evaluated < rescans
    assert profiler.counter("dls.tasks_placed") == len(ctg)
