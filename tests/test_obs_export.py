"""Exporters: Chrome trace-event JSON, canonical metrics snapshots,
text timelines — and their stability contracts (byte-identical
snapshots across runs and across ``--jobs`` values)."""

import json

import pytest

from repro.adaptive.controller import AdaptiveConfig
from repro.ctg.examples import two_sided_branch_ctg
from repro.experiments import Cell, ExperimentSpec, run_spec
from repro.obs import (
    METRICS_SCHEMA,
    Span,
    Tracer,
    chrome_trace,
    derive_run_metrics,
    metrics_snapshot,
    render_timeline,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_snapshot,
)
from repro.sim.runner import run_adaptive
from repro.workloads.traces import drifting_trace

from .test_engine import _square_spec
from .test_stretching_edge_cases import uniform_platform


def _small_run(tracer=None):
    ctg = two_sided_branch_ctg()
    ctg.deadline = 60.0
    platform = uniform_platform(ctg, pes=1)
    trace = drifting_trace(ctg, 12, seed=3)
    return run_adaptive(
        ctg, platform, trace, ctg.default_probabilities,
        config=AdaptiveConfig(window_size=4, threshold=0.05),
        tracer=tracer,
    )


@pytest.fixture(scope="module")
def traced_small_run():
    tracer = Tracer()
    result = _small_run(tracer)
    return result, tracer


class TestChromeTrace:
    def test_real_run_validates_clean(self, traced_small_run):
        _, tracer = traced_small_run
        payload = chrome_trace(tracer)
        assert validate_chrome_trace(payload) == []

    def test_runtime_track_is_pid_one(self, traced_small_run):
        _, tracer = traced_small_run
        payload = chrome_trace(tracer)
        names = {
            r["pid"]: r["args"]["name"]
            for r in payload["traceEvents"]
            if r["ph"] == "M" and r["name"] == "process_name"
        }
        assert names[1] == "runtime"
        assert set(names.values()) >= {"runtime", "pe:pe0"}

    def test_wall_and_sim_scaling(self):
        tracer = Tracer()
        tracer.add_span("stage-like", 1.0, 2.0, category="cell", track="engine")
        tracer.add_span("task", 1.0, 2.0, category="sim.task", track="pe:0")
        records = {
            r["name"]: r for r in chrome_trace(tracer)["traceEvents"] if r["ph"] == "X"
        }
        assert records["stage-like"]["ts"] == pytest.approx(1e6)  # seconds → µs
        assert records["task"]["ts"] == pytest.approx(1e3)  # time units → ms

    def test_span_attrs_become_args(self, traced_small_run):
        _, tracer = traced_small_run
        payload = chrome_trace(tracer)
        task = next(
            r for r in payload["traceEvents"]
            if r["ph"] == "X" and r.get("cat") == "sim.task"
        )
        assert "speed" in task["args"]

    def test_events_render_as_instants(self, traced_small_run):
        _, tracer = traced_small_run
        payload = chrome_trace(tracer)
        instants = [r for r in payload["traceEvents"] if r["ph"] == "i"]
        assert len(instants) == len(tracer.events)
        assert all(r["s"] == "t" for r in instants)

    def test_validator_flags_broken_records(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        problems = validate_chrome_trace(
            {
                "traceEvents": [
                    {"ph": "X", "ts": 0.0, "dur": 1, "pid": 1, "tid": 1},  # no name
                    {"name": "a", "ph": "X", "ts": 0.0, "pid": 1, "tid": 1},  # no dur
                    {"name": "b", "ph": "X", "ts": 0.0, "dur": -1, "pid": 1, "tid": 1},
                    {"name": "c", "ph": "i", "pid": 1, "tid": 1},  # no ts
                    {"name": "d", "ph": "i", "ts": 0.0, "pid": "x", "tid": 1},
                ]
            }
        )
        assert len(problems) == 5

    def test_write_round_trips_and_refuses_invalid(self, traced_small_run, tmp_path):
        _, tracer = traced_small_run
        path = write_chrome_trace(tmp_path / "run.trace.json", tracer)
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["displayTimeUnit"] == "ms"
        bad = Tracer()
        bad.spans.append(Span("", "stage", 0.0, 1.0))
        with pytest.raises(ValueError, match="invalid Chrome trace"):
            write_chrome_trace(tmp_path / "bad.json", bad)


class TestMetricsSnapshot:
    def test_snapshot_shape(self, traced_small_run):
        result, tracer = traced_small_run
        snap = metrics_snapshot(
            profile=result.profile,
            tracer=tracer,
            derived=derive_run_metrics(result, tracer=tracer),
        )
        assert snap["schema"] == METRICS_SCHEMA
        assert snap["counters"] == dict(sorted(result.profile.counters.items()))
        assert snap["stage_calls"] == dict(sorted(result.profile.calls.items()))
        assert "stage_seconds" in snap
        assert snap["spans"] == tracer.span_counts()
        assert snap["events"] == tracer.event_counts()
        assert "run.total_energy" in snap["derived"]

    def test_canonical_drops_wall_clock_values(self, traced_small_run):
        result, tracer = traced_small_run
        snap = metrics_snapshot(
            profile=result.profile,
            tracer=tracer,
            derived=derive_run_metrics(result, tracer=tracer),
            canonical=True,
        )
        assert "stage_seconds" not in snap
        assert "run.reschedule_latency" not in snap["derived"]
        assert "run.total_energy" in snap["derived"]

    def test_two_runs_write_identical_canonical_bytes(self, tmp_path):
        paths = []
        for index in range(2):
            tracer = Tracer()
            result = _small_run(tracer)
            snap = metrics_snapshot(
                profile=result.profile,
                tracer=tracer,
                derived=derive_run_metrics(result, tracer=tracer),
                canonical=True,
            )
            paths.append(write_metrics_snapshot(tmp_path / f"{index}.json", snap))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_undeclared_profile_names_warn(self, traced_small_run):
        _, _ = traced_small_run
        from repro.profiling import StageProfiler

        prof = StageProfiler()
        prof.count("path_cache.hti")
        with pytest.warns(UserWarning, match="path_cache.hti"):
            metrics_snapshot(profile=prof)


class TestEngineTracing:
    def _snapshot_bytes(self, tmp_path, jobs, tag):
        tracer = Tracer()
        report = run_spec(_square_spec(), jobs=jobs, tracer=tracer)
        snap = metrics_snapshot(tracer=tracer, canonical=True)
        path = write_metrics_snapshot(tmp_path / f"{tag}.json", snap)
        return report, tracer, path.read_bytes()

    def test_one_cell_span_per_cell_in_declaration_order(self, tmp_path):
        report, tracer, _ = self._snapshot_bytes(tmp_path, 1, "order")
        cells = [s for s in tracer.spans if s.category == "cell"]
        assert [s.name for s in cells] == [c.key for c in report.cells]
        starts = [s.start for s in cells]
        assert starts == sorted(starts)
        assert all(s.track == "engine" for s in cells)

    def test_snapshot_is_jobs_invariant(self, tmp_path):
        _, _, serial = self._snapshot_bytes(tmp_path, 1, "serial")
        _, _, parallel = self._snapshot_bytes(tmp_path, 2, "parallel")
        assert serial == parallel


class TestTimeline:
    def test_renders_tracks_spans_and_events(self, traced_small_run):
        _, tracer = traced_small_run
        text = render_timeline(tracer)
        assert "track runtime:" in text
        assert "track pe:pe0:" in text
        assert "online" in text
        assert " tu)" in text  # sim spans in time units
        assert " ms)" in text  # wall spans in milliseconds

    def test_limit_elides_long_tracks(self, traced_small_run):
        _, tracer = traced_small_run
        text = render_timeline(tracer, limit=3)
        assert "more" in text

    def test_empty_tracer(self):
        assert render_timeline(Tracer()) == "(empty trace)"
