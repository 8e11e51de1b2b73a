"""Tests for the declarative experiment engine (spec + run_spec)."""

import pickle
import random

import pytest

from repro.experiments import (
    Cell,
    CellResult,
    EngineError,
    EngineStats,
    ExperimentSpec,
    SpecError,
    derive_cell_seeds,
    figure4_spec,
    robustness_spec,
    run_spec,
)
from repro.adaptive import AdaptiveConfig
from repro.analysis import percent_savings
from repro.scheduling import set_deadline_from_makespan
from repro.sim import empirical_distribution, run_adaptive, run_non_adaptive
from repro.workloads import channel_trace, wlan_ctg, wlan_platform


def square_cell(params):
    """Module-level toy cell: workers import it by name."""
    return {
        "values": {"square": params["x"] ** 2},
        "profile": {"counters": {"cells": 1}},
    }


def _collect(cells):
    return [(c.key, c.values["square"]) for c in cells]


def _square_spec(xs=(1, 2, 3, 4)):
    return ExperimentSpec(
        name="squares",
        cells=tuple(Cell(key=f"x{x}", params={"x": x}) for x in xs),
        cell_function=square_cell,
        reducer=_collect,
    )


class TestSpecValidation:
    def test_rejects_empty_name(self):
        with pytest.raises(SpecError, match="name"):
            ExperimentSpec(
                name="",
                cells=(Cell(key="a"),),
                cell_function=square_cell,
                reducer=_collect,
            )

    def test_rejects_no_cells(self):
        with pytest.raises(SpecError, match="no cells"):
            ExperimentSpec(
                name="x", cells=(), cell_function=square_cell, reducer=_collect
            )

    def test_rejects_duplicate_keys(self):
        with pytest.raises(SpecError, match="duplicate"):
            ExperimentSpec(
                name="x",
                cells=(Cell(key="a", params={"x": 1}), Cell(key="a", params={"x": 2})),
                cell_function=square_cell,
                reducer=_collect,
            )

    def test_fingerprint_distinguishes_params_context_and_name(self):
        spec = _square_spec()
        other_params = ExperimentSpec(
            name="squares",
            cells=(Cell(key="x1", params={"x": 99}),) + spec.cells[1:],
            cell_function=square_cell,
            reducer=_collect,
        )
        other_context = ExperimentSpec(
            name="squares",
            cells=spec.cells,
            cell_function=square_cell,
            reducer=_collect,
            context={"instance": "abc"},
        )
        other_name = ExperimentSpec(
            name="cubes",
            cells=spec.cells,
            cell_function=square_cell,
            reducer=_collect,
        )
        base = spec.fingerprint_of(spec.cells[0])
        assert base != other_params.fingerprint_of(other_params.cells[0])
        assert base != other_context.fingerprint_of(other_context.cells[0])
        assert base != other_name.fingerprint_of(other_name.cells[0])
        # and it is stable across calls
        assert base == spec.fingerprint_of(spec.cells[0])


class TestRunSpec:
    def test_serial_execution_reduces_in_declaration_order(self):
        report = run_spec(_square_spec(), jobs=1)
        assert report.result == [("x1", 1), ("x2", 4), ("x3", 9), ("x4", 16)]
        assert report.stats.cells == 4
        assert report.stats.misses == 4
        assert not report.stats.cache_enabled

    def test_parallel_matches_serial_bit_for_bit(self):
        serial = run_spec(_square_spec(), jobs=1)
        parallel = run_spec(_square_spec(), jobs=2)
        assert parallel.result == serial.result
        assert [c.values for c in parallel.cells] == [c.values for c in serial.cells]
        # satellite: the aggregate profiler is identical too
        assert parallel.profile.counters == serial.profile.counters
        assert parallel.profile.calls == serial.profile.calls

    def test_aggregate_profile_merges_every_cell(self):
        report = run_spec(_square_spec(), jobs=1)
        assert report.profile.counters["cells"] == 4

    def test_rejects_bad_jobs(self):
        with pytest.raises(EngineError, match="jobs"):
            run_spec(_square_spec(), jobs=0)

    def test_parallel_rejects_unimportable_cell_function(self):
        spec = ExperimentSpec(
            name="lambdas",
            cells=(Cell(key="a", params={"x": 1}), Cell(key="b", params={"x": 2})),
            cell_function=lambda params: {"values": {"square": params["x"] ** 2}},
            reducer=_collect,
        )
        with pytest.raises(EngineError, match="module-level"):
            run_spec(spec, jobs=2)

    def test_cell_function_must_return_values_payload(self):
        spec = ExperimentSpec(
            name="bad",
            cells=(Cell(key="a", params={"x": 1}),),
            cell_function=_bad_cell,
            reducer=_collect,
        )
        with pytest.raises(EngineError, match="values"):
            run_spec(spec, jobs=1)

    def test_engine_line_reports_cells_and_jobs(self):
        report = run_spec(_square_spec(), jobs=1)
        line = report.engine_line()
        assert "4 cells" in line
        assert "cache off" in line
        assert "jobs=1" in line

    def test_report_format_appends_engine_line(self):
        report = run_spec(_square_spec(), jobs=1)
        spec = report.spec
        spec.render = lambda result: f"{len(result)} squares"
        assert report.format().startswith("4 squares\n[engine:")

    def test_stats_hit_rate(self):
        stats = EngineStats(cells=4, hits=3)
        assert stats.hit_rate == 0.75
        assert EngineStats().hit_rate == 0.0


def _bad_cell(params):
    return ["not", "a", "dict"]


class TestDerivedSeeds:
    def test_deterministic_and_independent_of_global_rng(self):
        random.seed(0)
        first = derive_cell_seeds(7, 5)
        random.seed(12345)
        second = derive_cell_seeds(7, 5)
        assert first == second
        assert len(first) == 5
        assert len(set(first)) == 5

    def test_count_validation(self):
        assert derive_cell_seeds(7, 0) == ()
        with pytest.raises(ValueError):
            derive_cell_seeds(7, -1)

    def test_pinned_streams(self):
        """The derivation is part of the cache contract: these values
        may only change together with a deliberate stream-change note
        in ``derive_cell_seeds``'s docstring (seeds are cell params, so
        fingerprints self-invalidate when they move)."""
        assert derive_cell_seeds(7, 5) == (
            2029167941,
            1342382292,
            1469265226,
            1926751966,
            1241873585,
        )

    def test_full_31_bit_range(self):
        """The high bound is inclusive of 2**31 - 1 (the documented
        range) and never exceeded."""
        seeds = derive_cell_seeds(0, 10_000)
        assert all(0 <= s <= 2**31 - 1 for s in seeds)
        # with a 10k draw the top 2**20 band is hit with probability
        # ~99.3%; the old exclusive-bound bug could never reach it at
        # any draw count
        assert max(seeds) > 2**31 - 2**20

    def test_robustness_spec_accepts_base_seed(self):
        spec = robustness_spec(base_seed=7, n_seeds=3, length=100)
        assert len(spec.cells) == 3
        seeds = [cell.params["seed"] for cell in spec.cells]
        assert seeds == list(derive_cell_seeds(7, 3))


class TestBitIdentityWithLegacyLoop:
    """The engine path must reproduce the pre-engine serial loop exactly."""

    def test_seed_robustness_matches_inline_loop(self):
        seeds, threshold, length, factor = (20, 21), 0.1, 200, 1.5
        # the pre-engine implementation: one shared instance, one loop
        ctg = wlan_ctg()
        platform = wlan_platform()
        set_deadline_from_makespan(ctg, platform, factor)
        expected = []
        for seed in seeds:
            trace = channel_trace(ctg, length, seed=seed)
            train, test = trace[: length // 2], trace[length // 2 :]
            profile = empirical_distribution(ctg, train)
            online = run_non_adaptive(ctg, platform, test, profile)
            adaptive = run_adaptive(
                ctg, platform, test, profile,
                AdaptiveConfig(window_size=20, threshold=threshold),
            )
            expected.append(
                (
                    percent_savings(online.total_energy, adaptive.total_energy),
                    adaptive.reschedule_calls,
                )
            )

        spec = robustness_spec(
            seeds=seeds, threshold=threshold, length=length, deadline_factor=factor
        )
        result = run_spec(spec, jobs=1).result
        assert list(zip(result.savings_percent, result.calls)) == expected

    def test_jobs_do_not_change_numbers(self):
        spec = robustness_spec(seeds=(20, 21), length=200)
        serial = run_spec(spec, jobs=1).result
        parallel = run_spec(spec, jobs=2).result
        assert parallel.savings_percent == serial.savings_percent
        assert parallel.calls == serial.calls


class TestPicklability:
    """Cells and results must cross process boundaries (satellite)."""

    def test_cell_result_round_trips(self):
        result = CellResult(
            key="a",
            params={"x": 1},
            values={"square": 1},
            profile={"counters": {"cells": 1}},
            seconds=0.5,
            fingerprint="ab",
            cached=True,
        )
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result

    def test_experiment_results_round_trip(self):
        result = run_spec(figure4_spec(length=120), jobs=1).result
        clone = pickle.loads(pickle.dumps(result))
        assert clone.selections == result.selections
        assert clone.filtered == result.filtered
