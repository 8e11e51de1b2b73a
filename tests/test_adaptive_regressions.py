"""Regression tests for the adaptive-loop state-leak fixes.

Three bugs, three locks:

* the shared mutable ``AdaptiveConfig()`` default leaked configuration
  between controllers (and between ``run_adaptive`` calls);
* ``BranchWindow.seed`` silently fabricated a first-label history when
  given an empty or all-zero distribution;
* ``stretch_schedule(prune_zero_probability=True)`` raised the
  misleading "no paths" error when pruning removed *every* path instead
  of falling back to unpruned stretching.
"""

import pytest

from repro.adaptive.controller import AdaptiveConfig, AdaptiveController
from repro.adaptive.window import BranchWindow
from repro.ctg.examples import two_sided_branch_ctg
from repro.profiling import StageProfiler
from repro.scheduling import SchedulingError, dls_schedule, stretch_schedule
from repro.sim.runner import run_adaptive
from repro.workloads.traces import drifting_trace

from .oracles.stretching import reference_stretch
from .test_stretching_edge_cases import uniform_platform


class TestSharedConfigDefault:
    def _controller(self, config=None):
        ctg = two_sided_branch_ctg()
        ctg.deadline = 60.0
        platform = uniform_platform(ctg, pes=1)
        return AdaptiveController(ctg, platform, ctg.default_probabilities, config)

    def test_each_controller_gets_its_own_config(self):
        first = self._controller()
        second = self._controller()
        assert first.config is not second.config

    def test_mutating_one_default_config_does_not_leak(self):
        first = self._controller()
        first.config.threshold = 0.9
        first.config.window_size = 3
        second = self._controller()
        assert second.config.threshold == AdaptiveConfig().threshold
        assert second.config.window_size == AdaptiveConfig().window_size

    def test_explicit_config_is_used_as_given(self):
        config = AdaptiveConfig(window_size=5, threshold=0.25)
        controller = self._controller(config)
        assert controller.config is config

    def test_run_adaptive_accepts_missing_config(self):
        ctg = two_sided_branch_ctg()
        platform = uniform_platform(ctg, pes=1)
        trace = drifting_trace(ctg, 10, seed=3)
        result = run_adaptive(
            ctg, platform, trace, ctg.default_probabilities, deadline=60.0
        )
        assert len(result.energies) == 10


class TestWindowSeedValidation:
    def test_all_zero_distribution_raises(self):
        window = BranchWindow("b", ["h", "l"], size=10)
        with pytest.raises(ValueError, match="sums to"):
            window.seed({"h": 0.0, "l": 0.0})

    def test_empty_distribution_raises(self):
        window = BranchWindow("b", ["h", "l"], size=10)
        with pytest.raises(ValueError, match="sums to"):
            window.seed({})

    def test_badly_scaled_distribution_raises(self):
        window = BranchWindow("b", ["h", "l"], size=10)
        with pytest.raises(ValueError, match="sums to"):
            window.seed({"h": 3.0, "l": 1.0})

    def test_negative_probability_raises(self):
        window = BranchWindow("b", ["h", "l"], size=10)
        with pytest.raises(ValueError, match="negative"):
            window.seed({"h": 1.5, "l": -0.5})

    def test_rounding_residue_is_renormalised(self):
        window = BranchWindow("b", ["h", "l"], size=10)
        window.seed({"h": 0.7002, "l": 0.3001})
        assert window.full
        assert window.probability("h") == pytest.approx(0.7)

    def test_failed_seed_does_not_clobber_history(self):
        window = BranchWindow("b", ["h", "l"], size=4)
        for label in ("h", "h", "l", "h"):
            window.push(label)
        with pytest.raises(ValueError):
            window.seed({"h": 0.0, "l": 0.0})
        assert window.probability("h") == pytest.approx(0.75)


class TestAllPathsPrunedFallback:
    def _schedule(self):
        ctg = two_sided_branch_ctg()
        platform = uniform_platform(ctg, pes=1)
        sched = dls_schedule(ctg, platform, {"fork": {"h": 0.0, "l": 1.0}})
        sched.ctg.deadline = 60.0
        return sched

    @staticmethod
    def _stretch(vectorized):
        """The production stretch, or the scalar oracle."""
        return stretch_schedule if vectorized else reference_stretch

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_degenerate_probabilities_fall_back_to_unpruned(self, vectorized):
        # Every scenario has probability 0 under this (inconsistent)
        # distribution, so pruning would discard every path; the fixed
        # behaviour stretches over the full path set instead of raising
        # the misleading "no paths" error.
        dead = {"fork": {"h": 0.0, "l": 0.0}}
        sched = self._schedule()
        prof = StageProfiler()
        report = self._stretch(vectorized)(
            sched, dead, prune_zero_probability=True, profiler=prof
        )
        assert report.path_count > 0
        assert prof.counter("stretch.prune_fallback") == 1
        assert sched.meets_deadline()

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_fallback_matches_unpruned_result(self, vectorized):
        dead = {"fork": {"h": 0.0, "l": 0.0}}
        stretch = self._stretch(vectorized)
        pruned = self._schedule()
        stretch(pruned, dead, prune_zero_probability=True)
        plain = self._schedule()
        stretch(plain, dead, prune_zero_probability=False)
        for task in plain.placements:
            assert pruned.placement(task).speed == pytest.approx(
                plain.placement(task).speed
            )

    def test_partial_pruning_still_prunes(self):
        probs = {"fork": {"h": 0.0, "l": 1.0}}
        sched = self._schedule()
        prof = StageProfiler()
        stretch_schedule(
            sched, probs, prune_zero_probability=True, profiler=prof
        )
        assert prof.counter("stretch.prune_fallback") == 0
        assert sched.placement("heavy").speed == pytest.approx(1.0)
        assert sched.placement("light").speed < 1.0
