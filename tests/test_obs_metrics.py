"""Declared metric vocabulary: the name check, the rendered table and
the derived per-run metrics."""

import warnings

import pytest

from repro.adaptive.controller import AdaptiveConfig
from repro.ctg.examples import two_sided_branch_ctg
from repro.experiments.chaos import fault_plan_catalogue
from repro.obs import Tracer, derive_run_metrics
from repro.obs.metrics import (
    WALL_CLOCK_NAMES,
    declared_names,
    histogram_summary,
    vocabulary_table,
    warn_undeclared,
)
from repro.sim.runner import run_adaptive, run_faulted
from repro.workloads.traces import drifting_trace

from .test_stretching_edge_cases import uniform_platform


class TestValidation:
    def test_known_names_pass_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert warn_undeclared(["online", "dls", "reschedule.calls"]) == []

    def test_unknown_names_warn_without_check(self):
        with pytest.warns(UserWarning, match=r"undeclared metric name\(s\) \(from test\): path_cache.hti"):
            unknown = warn_undeclared(["path_cache.hti", "online"], source="test")
        assert unknown == ["path_cache.hti"]


class TestInstruments:
    def test_histogram_summary_is_deterministic(self):
        summary = histogram_summary([3.0, 1.0, 2.0, 4.0])
        assert summary == {"count": 4, "p50": 3.0, "p95": 4.0, "max": 4.0, "sum": 10.0}
        assert histogram_summary([]) == {
            "count": 0, "p50": 0.0, "p95": 0.0, "max": 0.0, "sum": 0.0,
        }

    def test_wall_clock_names_are_the_seconds_metrics(self):
        names = WALL_CLOCK_NAMES
        assert "online" in names
        assert "run.reschedule_latency" in names
        assert "run.total_energy" not in names
        assert "reschedule.calls" not in names
        assert names <= declared_names()


class TestVocabularyTable:
    def test_every_declared_name_appears(self):
        table = vocabulary_table()
        for name in declared_names():
            assert f"``{name}``" in table

    def test_table_is_rst_grid_shaped(self):
        lines = vocabulary_table().splitlines()
        assert lines[0] == lines[-1]
        assert set(lines[0]) == {"=", " "}


class TestDerivedRunMetrics:
    @pytest.fixture(scope="class")
    def run(self):
        ctg = two_sided_branch_ctg()
        ctg.deadline = 60.0
        platform = uniform_platform(ctg, pes=1)
        trace = drifting_trace(ctg, 12, seed=3)
        tracer = Tracer()
        result = run_adaptive(
            ctg, platform, trace, ctg.default_probabilities,
            config=AdaptiveConfig(window_size=4, threshold=0.05),
            tracer=tracer,
        )
        return result, tracer

    def test_gauges_mirror_the_result(self, run):
        result, tracer = run
        snap = derive_run_metrics(result, tracer=tracer)
        assert snap["run.total_energy"] == pytest.approx(result.total_energy)
        assert snap["run.instances"] == len(result.energies)
        assert snap["run.reschedule_calls"] == result.reschedule_calls
        assert snap["run.deadline_misses"] == result.deadline_misses

    def test_energy_histogram_covers_every_instance(self, run):
        result, tracer = run
        snap = derive_run_metrics(result, tracer=tracer)
        hist = snap["run.energy_per_instance"]
        assert hist["count"] == len(result.energies)
        assert hist["sum"] == pytest.approx(result.total_energy)

    def test_latency_histogram_needs_an_enabled_tracer(self, run):
        result, tracer = run
        with_tracer = derive_run_metrics(result, tracer=tracer)
        without = derive_run_metrics(result)
        assert with_tracer["run.reschedule_latency"]["count"] == (
            result.profile.calls["online"]
        )
        assert "run.reschedule_latency" not in without

    def test_recovery_rate_only_on_faulted_results(self, run):
        result, _ = run
        snap = derive_run_metrics(result)
        assert "run.recovery_rate" not in snap

    def test_faulted_run_metrics_are_plain_sorted_floats(self):
        ctg = two_sided_branch_ctg()
        ctg.deadline = 60.0
        platform = uniform_platform(ctg, pes=1)
        trace = drifting_trace(ctg, 12, seed=3)
        result = run_faulted(
            ctg, platform, trace, ctg.default_probabilities,
            fault_plan_catalogue()["overrun"],
            config=AdaptiveConfig(window_size=4, threshold=0.05),
        )
        derived = derive_run_metrics(result)
        assert list(derived) == [
            "run.deadline_misses",
            "run.energy_per_instance",
            "run.instances",
            "run.recovery_rate",
            "run.reschedule_calls",
            "run.total_energy",
        ]
        for name in ("run.deadline_misses", "run.instances", "run.recovery_rate",
                     "run.reschedule_calls", "run.total_energy"):
            assert type(derived[name]) is float, name
        assert derived["run.instances"] == 12.0
        assert derived["run.reschedule_calls"] == float(result.reschedule_calls)
        assert derived["run.recovery_rate"] == result.fault_log.recovery_rate()
        hist = derived["run.energy_per_instance"]
        assert list(hist) == ["count", "p50", "p95", "max", "sum"]
        assert hist["count"] == 12
