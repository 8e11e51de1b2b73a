"""Path-analytics cache: fingerprints, reuse, and equivalence.

The contract: repeated ``schedule_online`` calls through the cache must
produce exactly the schedules the uncached scalar oracle
(``tests/oracles/stretching.py``) produces — the cache is keyed so that
any change to the mapping/ordering or the probability snapshot
transparently rebuilds what it must.
"""

import random
import sys
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.adaptive.controller import AdaptiveConfig
from repro.ctg import GeneratorConfig, figure1_ctg, generate_ctg
from repro.ctg import paths as ctg_paths
from repro.ctg.conditions import Outcome
from repro.ctg.examples import two_sided_branch_ctg
from repro.ctg.graph import ConditionalTaskGraph, EdgeData, NodeKind
from repro.ctg.minterms import CtgAnalysis, enumerate_scenarios
from repro.ctg.paths import enumerate_paths
from repro.platform import PlatformConfig, generate_platform
from repro.profiling import StageProfiler
from repro.scheduling import (
    dls_schedule,
    freeze_probabilities,
    pathcache,
    schedule_fingerprint,
    schedule_online,
    set_deadline_from_makespan,
    structure_for,
)
from repro.scheduling.pathcache import PathStructure, build_structure
from repro.sim.runner import run_adaptive
from repro.workloads.cruise import cruise_ctg, cruise_platform
from repro.workloads.mpeg import mpeg_ctg, mpeg_platform
from repro.workloads.traces import drifting_trace
from repro.workloads.wlan import wlan_ctg, wlan_platform

from .instances import build_instance, random_distribution
from .oracles.pathcache import assert_same_structure, reference_structure
from .oracles.stretching import reference_online


def _workload(name):
    if name == "mpeg":
        ctg, platform = mpeg_ctg(), mpeg_platform()
    elif name == "cruise":
        ctg, platform = cruise_ctg(), cruise_platform()
    else:
        ctg = generate_ctg(GeneratorConfig(nodes=24, branch_nodes=3, seed=11))
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=3, seed=11))
    set_deadline_from_makespan(ctg, platform, 1.6)
    return ctg, platform


class TestFingerprints:
    def test_identical_schedules_share_a_fingerprint(self):
        ctg, platform = _workload("tgff")
        a = dls_schedule(ctg, platform)
        b = dls_schedule(ctg, platform)
        assert schedule_fingerprint(a) == schedule_fingerprint(b)

    def test_extra_pseudo_edge_changes_the_fingerprint(self):
        ctg, platform = _workload("tgff")
        a = dls_schedule(ctg, platform)
        b = dls_schedule(ctg, platform)
        order = b.ctg.topological_order()
        pair = next(
            (u, v)
            for i, u in enumerate(order)
            for v in order[i + 1 :]
            if not b.ctg.graph.has_edge(u, v)
        )
        b.ctg.add_pseudo_edge(*pair)
        assert schedule_fingerprint(a) != schedule_fingerprint(b)

    def test_frozen_probabilities_are_order_insensitive(self):
        a = freeze_probabilities({"b1": {"x": 0.3, "y": 0.7}, "b2": {"u": 1.0}})
        b = freeze_probabilities({"b2": {"u": 1.0}, "b1": {"y": 0.7, "x": 0.3}})
        assert a == b
        c = freeze_probabilities({"b1": {"x": 0.4, "y": 0.6}, "b2": {"u": 1.0}})
        assert a != c


class TestCacheReuse:
    def test_second_call_hits_the_structure_cache(self):
        ctg, platform = _workload("cruise")
        analysis = CtgAnalysis.of(ctg)
        prof = StageProfiler()
        schedule_online(ctg, platform, analysis=analysis, profiler=prof)
        schedule_online(ctg, platform, analysis=analysis, profiler=prof)
        assert prof.counter("path_cache.miss") == 1
        assert prof.counter("path_cache.hit") == 1
        # path enumeration ran exactly once
        assert prof.timing("stretch.structure") > 0.0
        assert prof.calls["stretch.structure"] == 1

    def test_structure_identity_on_hit(self):
        ctg, platform = _workload("tgff")
        analysis = CtgAnalysis.of(ctg)
        sched_a = dls_schedule(ctg, platform, analysis=analysis)
        sched_b = dls_schedule(ctg, platform, analysis=analysis)
        first = structure_for(sched_a, analysis.scenarios, analysis.path_cache, None)
        second = structure_for(sched_b, analysis.scenarios, analysis.path_cache, None)
        assert first is second

    def test_probability_tables_rebuild_per_snapshot(self):
        ctg, platform = _workload("cruise")
        analysis = CtgAnalysis.of(ctg)
        prof = StageProfiler()
        base = ctg.default_probabilities
        shifted = {
            branch: dict(dist) for branch, dist in base.items()
        }
        branch = next(iter(shifted))
        labels = sorted(shifted[branch])
        shifted[branch][labels[0]] = 0.9
        rest = 0.1 / (len(labels) - 1)
        for label in labels[1:]:
            shifted[branch][label] = rest
        schedule_online(ctg, platform, base, analysis=analysis, profiler=prof)
        schedule_online(ctg, platform, shifted, analysis=analysis, profiler=prof)
        schedule_online(ctg, platform, base, analysis=analysis, profiler=prof)
        # distinct snapshots → two misses; the repeat of `base` can hit
        # only if the mapping came out identical both times, so just
        # check the invariant hit + miss == lookups.
        hits = prof.counter("prob_cache.hit")
        misses = prof.counter("prob_cache.miss")
        assert misses >= 2
        assert hits + misses == 3


@pytest.mark.parametrize("name", ["mpeg", "cruise", "tgff"])
class TestEquivalence:
    def test_vectorized_cached_matches_scalar_seed(self, name):
        ctg, platform = _workload(name)
        analysis = CtgAnalysis.of(ctg)
        probs = ctg.default_probabilities
        scalar = reference_online(ctg, platform, probs, analysis)
        fast = schedule_online(ctg, platform, probs, analysis=analysis)
        again = schedule_online(ctg, platform, probs, analysis=analysis)

        assert fast.stretch.path_count == scalar.stretch.path_count
        assert again.stretch.path_count == scalar.stretch.path_count
        for task, speed in scalar.stretch.speeds.items():
            assert fast.stretch.speeds[task] == pytest.approx(speed, rel=1e-9)
        for task, slack in scalar.stretch.slack_given.items():
            assert fast.stretch.slack_given[task] == pytest.approx(
                slack, rel=1e-9, abs=1e-12
            )
        for task in scalar.schedule.placements:
            assert fast.schedule.placement(task).speed == pytest.approx(
                scalar.schedule.placement(task).speed, rel=1e-9
            )
            assert again.schedule.placement(task).speed == pytest.approx(
                scalar.schedule.placement(task).speed, rel=1e-9
            )
        assert fast.schedule.expected_energy(probs) == pytest.approx(
            scalar.schedule.expected_energy(probs), rel=1e-9
        )

    def test_equivalence_holds_under_drifted_probabilities(self, name):
        ctg, platform = _workload(name)
        analysis = CtgAnalysis.of(ctg)
        probs = {branch: dict(dist) for branch, dist in ctg.default_probabilities.items()}
        branch = sorted(probs)[0]
        labels = sorted(probs[branch])
        probs[branch][labels[0]] = 0.85
        rest = 0.15 / (len(labels) - 1)
        for label in labels[1:]:
            probs[branch][label] = rest
        # warm the cache with the default distribution first, as the
        # adaptive controller does before drift hits
        schedule_online(ctg, platform, analysis=analysis)
        scalar = reference_online(ctg, platform, probs, analysis)
        fast = schedule_online(ctg, platform, probs, analysis=analysis)
        for task in scalar.schedule.placements:
            assert fast.schedule.placement(task).speed == pytest.approx(
                scalar.schedule.placement(task).speed, rel=1e-9
            )
        assert fast.schedule.expected_energy(probs) == pytest.approx(
            scalar.schedule.expected_energy(probs), rel=1e-9
        )


# ----------------------------------------------------------------------
# The bitmask DFS builder against the three-pass oracle
# ----------------------------------------------------------------------


def _assert_builds_match(schedule, scenarios, probabilities):
    """``build_structure`` equals ``reference_structure`` field by field,
    and its refreshed ``prob_after_flat`` is bit-identical."""
    structure = build_structure(schedule, scenarios)
    reference = reference_structure(schedule, scenarios)
    assert_same_structure(structure, reference, probabilities)
    return structure


def _add_foreign_guards(ctg, count, seed):
    """Add ``count`` edges leaving a descendant of some branch and
    guarded by an outcome of that branch.  ``add_edge`` refuses such
    foreign guards, so they go straight into the networkx graph; a path
    that took another outcome of the branch and then one of these edges
    is contradictory."""
    rng = random.Random(seed)
    graph = ctg.graph
    order = ctg.topological_order()
    position = {task: i for i, task in enumerate(order)}
    outcomes = {branch: ctg.outcomes_of(branch) for branch in ctg.branch_nodes()}
    for _ in range(count if outcomes else 0):
        branch = rng.choice(sorted(outcomes))
        sources = sorted(nx.descendants(graph, branch), key=position.get)
        pairs = [
            (u, v)
            for u in sources
            for v in order[position[u] + 1 :]
            if not graph.has_edge(u, v)
        ]
        if not pairs:
            continue
        u, v = rng.choice(pairs)
        label = rng.choice(outcomes[branch])
        graph.add_edge(u, v, data=EdgeData(condition=Outcome(branch, label)))


def _generated(nodes, branches, category, pes, seed):
    try:
        return build_instance(nodes, branches, category, pes, seed, 1.5)
    except ValueError:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(
    nodes=st.integers(8, 30),
    branches=st.integers(0, 4),
    category=st.sampled_from([1, 2]),
    pes=st.integers(1, 4),
    seed=st.integers(0, 500),
    mutex_overlap=st.booleans(),
    foreign_guards=st.integers(0, 3),
    dist_seed=st.integers(0, 1000),
)
def test_builder_matches_oracle_on_generated_ctgs(
    nodes, branches, category, pes, seed, mutex_overlap, foreign_guards, dist_seed
):
    """DLS pseudo edges (serialised or mutex-overlapped), nested
    branches and foreign-guarded or-join continuations: every field and
    the probability refresh agree with the oracle."""
    ctg, platform = _generated(nodes, branches, category, pes, seed)
    analysis = CtgAnalysis.of(ctg)
    schedule = dls_schedule(ctg, platform, analysis=analysis, mutex_overlap=mutex_overlap)
    _add_foreign_guards(schedule.ctg, foreign_guards, seed)
    probabilities = random_distribution(ctg, np.random.default_rng(dist_seed))
    _assert_builds_match(schedule, analysis.scenarios, probabilities)


@settings(max_examples=6, deadline=None)
@given(
    nodes=st.integers(30, 38),
    pes=st.integers(2, 4),
    seed=st.integers(0, 300),
    mutex_overlap=st.booleans(),
    dist_seed=st.integers(0, 1000),
)
def test_builder_matches_oracle_past_64_scenarios(nodes, pes, seed, mutex_overlap, dist_seed):
    """Seven independent branches: 128 scenarios, masks past 64 bits."""
    ctg, platform = _generated(nodes, 7, 2, pes, seed)
    analysis = CtgAnalysis.of(ctg)
    assert len(analysis.scenarios) == 128
    schedule = dls_schedule(ctg, platform, analysis=analysis, mutex_overlap=mutex_overlap)
    probabilities = random_distribution(ctg, np.random.default_rng(dist_seed))
    structure = _assert_builds_match(schedule, analysis.scenarios, probabilities)
    assert max(structure.membership_masks()) >= 1 << 64


def test_contradictory_paths_are_dropped():
    """An or-join continuation guarded by the fork's ``h`` outcome: the
    path through the ``l`` arm contradicts it and is not enumerated."""
    ctg = two_sided_branch_ctg()
    scenarios = enumerate_scenarios(ctg)
    ctg.add_task("tail", NodeKind.AND)
    ctg.graph.add_edge("join", "tail", data=EdgeData(condition=Outcome("fork", "h")))
    schedule = SimpleNamespace(ctg=ctg)
    structure = _assert_builds_match(schedule, scenarios, ctg.default_probabilities)
    assert structure.path_count == len(enumerate_paths(ctg)) == 1
    tail = [structure.task_list.index(t) for t in ("entry", "fork", "heavy", "join", "tail")]
    assert structure.node_gather.tolist() == tail


def test_consistent_paths_matching_no_scenario_are_kept():
    """Serialised DLS on nested branches links one branch's arm to a
    branch that only runs under another arm: such paths are consistent
    but occur in no scenario, and keep an all-False membership row."""
    ctg, platform = build_instance(26, 3, 1, 3, 3, 1.5)
    analysis = CtgAnalysis.of(ctg)
    schedule = dls_schedule(ctg, platform, analysis=analysis, mutex_overlap=False)
    structure = _assert_builds_match(
        schedule, analysis.scenarios, ctg.default_probabilities
    )
    unmatched = ~structure.membership.any(axis=1)
    assert unmatched.any()
    assert all(
        structure.membership_masks()[p] == 0 for p in np.flatnonzero(unmatched)
    )


def test_paths_longer_than_the_recursion_limit():
    """The walk takes one frame per hop; a chain longer than the
    interpreter's recursion limit still builds, and the limit is
    restored afterwards."""
    limit = sys.getrecursionlimit()
    ctg = ConditionalTaskGraph(name="chain")
    tasks = [ctg.add_task(f"t{i}") for i in range(limit + 200)]
    for src, dst in zip(tasks, tasks[1:]):
        ctg.add_edge(src, dst)
    schedule = SimpleNamespace(ctg=ctg)
    structure = _assert_builds_match(schedule, enumerate_scenarios(ctg), {})
    assert structure.path_count == 1
    assert sys.getrecursionlimit() == limit


def _figure1_instance():
    ctg = figure1_ctg()
    return ctg, generate_platform(ctg.tasks(), PlatformConfig(pes=2, seed=42))


BUNDLED = {
    "figure1": _figure1_instance,
    "cruise": lambda: (cruise_ctg(), cruise_platform()),
    "mpeg": lambda: (mpeg_ctg(), mpeg_platform()),
    "wlan": lambda: (wlan_ctg(), wlan_platform()),
}


@pytest.mark.parametrize("mutex_overlap", [True, False], ids=["modified", "serialised"])
@pytest.mark.parametrize("workload", sorted(BUNDLED))
def test_builder_matches_oracle_on_bundled_workloads(workload, mutex_overlap):
    ctg, platform = BUNDLED[workload]()
    analysis = CtgAnalysis.of(ctg)
    schedule = dls_schedule(ctg, platform, analysis=analysis, mutex_overlap=mutex_overlap)
    _assert_builds_match(schedule, analysis.scenarios, ctg.default_probabilities)


def test_builder_matches_oracle_on_every_schedule_of_a_drifting_mpeg_trace(monkeypatch):
    """Every structure the adaptive loop builds on a drifting MPEG trace,
    and every probability table it refreshes, match the oracle."""
    built = []
    refreshed = []
    build = pathcache.build_structure
    build_tables = PathStructure._build_tables

    def recording_build(schedule, scenarios, profiler=None):
        structure = build(schedule, scenarios, profiler)
        built.append((schedule, tuple(scenarios), structure))
        return structure

    def recording_tables(self, probabilities):
        tables = build_tables(self, probabilities)
        refreshed.append((self, probabilities, tables))
        return tables

    monkeypatch.setattr(pathcache, "build_structure", recording_build)
    monkeypatch.setattr(PathStructure, "_build_tables", recording_tables)
    ctg, platform = mpeg_ctg(), mpeg_platform()
    deadline = set_deadline_from_makespan(ctg, platform, 1.5)
    result = run_adaptive(
        ctg,
        platform,
        drifting_trace(ctg, 50, seed=3),
        ctg.default_probabilities,
        AdaptiveConfig(window_size=20, threshold=0.1),
        deadline=deadline,
    )
    assert result.reschedule_calls > len(built) >= 3  # hits and flips
    references = {}
    for schedule, scenarios, structure in built:
        references[id(structure)] = reference = reference_structure(schedule, scenarios)
        assert_same_structure(structure, reference)
    assert refreshed
    for structure, probabilities, tables in refreshed:
        want = references[id(structure)].prob_after_flat(probabilities)
        assert tables.prob_after_flat.tobytes() == want.tobytes()


class TestPathExplosionValve:
    """Both path enumerators honour the one ``MAX_PATHS`` constant."""

    def _schedule(self):
        ctg = figure1_ctg()
        return SimpleNamespace(ctg=ctg), enumerate_scenarios(ctg)

    def test_valve_raises_past_the_limit(self, monkeypatch):
        schedule, scenarios = self._schedule()
        count = len(enumerate_paths(schedule.ctg))
        monkeypatch.setattr(ctg_paths, "MAX_PATHS", count - 1)
        message = f"path explosion: more than {count - 1} paths"
        with pytest.raises(RuntimeError, match=message):
            build_structure(schedule, scenarios)
        with pytest.raises(RuntimeError, match=message):
            enumerate_paths(schedule.ctg)

    def test_valve_admits_exactly_the_limit(self, monkeypatch):
        schedule, scenarios = self._schedule()
        count = len(enumerate_paths(schedule.ctg))
        monkeypatch.setattr(ctg_paths, "MAX_PATHS", count)
        assert build_structure(schedule, scenarios).path_count == count
        assert len(enumerate_paths(schedule.ctg)) == count
