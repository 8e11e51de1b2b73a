"""Path-analytics cache: fingerprints, reuse, and equivalence.

The contract: repeated ``schedule_online`` calls through the cache must
produce exactly the schedules the uncached scalar oracle
(``tests/oracles/stretching.py``) produces — the cache is keyed so that
any change to the mapping/ordering or the probability snapshot
transparently rebuilds what it must.
"""

import pytest

from repro.ctg import GeneratorConfig, generate_ctg
from repro.ctg.minterms import CtgAnalysis
from repro.platform import PlatformConfig, generate_platform
from repro.profiling import StageProfiler
from repro.scheduling import (
    dls_schedule,
    freeze_probabilities,
    schedule_fingerprint,
    schedule_online,
    set_deadline_from_makespan,
    structure_for,
)
from repro.workloads.cruise import cruise_ctg, cruise_platform
from repro.workloads.mpeg import mpeg_ctg, mpeg_platform

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
