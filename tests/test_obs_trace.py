"""Tracing core: spans, events, the traced ``StageProfiler``, and —
the load-bearing guarantee — that attaching a tracer changes *nothing*
about a run's results: ``profile`` dicts, energies and call sites are
bit-for-bit what un-traced runs produce.  The regression class pins
the profile contents of the MPEG/Airwolf runs to values captured
*before* the observability layer existed.
"""

import pytest

from repro.adaptive.controller import AdaptiveConfig
from repro.experiments.chaos import fault_plan_catalogue
from repro.faults import FaultPlan
from repro.obs import NULL_TRACER, Span, Tracer, as_tracer
from repro.profiling import EVENT_COUNTERS, NULL_PROFILER, StageProfiler
from repro.scheduling.online import set_deadline_from_makespan
from repro.sim import empirical_distribution
from repro.sim.runner import run_adaptive, run_faulted, run_non_adaptive
from repro.workloads import (
    cruise_ctg,
    cruise_platform,
    drifting_trace,
    movie_trace,
    mpeg_ctg,
    mpeg_platform,
)


class TestTracerBasics:
    def test_span_records_interval_and_category(self):
        tracer = Tracer()
        with tracer.span("online"):
            pass
        (span,) = tracer.spans
        assert span.name == "online"
        assert span.category == "stage"
        assert span.end >= span.start >= 0.0
        assert span.parent == -1

    def test_nesting_follows_with_structure(self):
        tracer = Tracer()
        with tracer.span("online"):
            with tracer.span("dls"):
                pass
            with tracer.span("stretch"):
                with tracer.span("stretch.sweep"):
                    pass
        names = [s.name for s in tracer.spans]
        assert names == ["online", "dls", "stretch", "stretch.sweep"]
        parents = [s.parent for s in tracer.spans]
        assert parents == [-1, 0, 0, 2]

    def test_parent_indices_precede_children(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        for index, span in enumerate(tracer.spans):
            assert span.parent < index

    def test_nesting_is_per_track(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.add_span("task", 0.0, 1.0, category="sim.task", track="pe:0")
        assert tracer.spans[1].parent == -1  # different track, not nested

    def test_children_lie_within_parents(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        assert outer.start <= inner.start
        assert inner.end <= outer.end

    def test_add_span_shifts_sim_categories_by_offset(self):
        tracer = Tracer()
        tracer.sim_offset = 100.0
        tracer.add_span("t", 1.0, 2.0, category="sim.task", track="pe:0")
        tracer.add_span("c", 1.0, 2.0, category="cell", track="engine")
        assert (tracer.spans[0].start, tracer.spans[0].end) == (101.0, 102.0)
        assert (tracer.spans[1].start, tracer.spans[1].end) == (1.0, 2.0)

    def test_event_defaults_to_wall_clock_now(self):
        tracer = Tracer()
        tracer.event("drift.detected", drift=0.2)
        (event,) = tracer.events
        assert event.ts >= 0.0
        assert event.attrs == {"drift": 0.2}

    def test_event_shifts_sim_categories(self):
        tracer = Tracer()
        tracer.sim_offset = 50.0
        tracer.event("sim.fault", ts=3.0, category="sim.event")
        tracer.event("reschedule.invoked", ts=3.0)
        assert tracer.events[0].ts == pytest.approx(53.0)
        assert tracer.events[1].ts == pytest.approx(3.0)

    def test_duration_never_negative(self):
        span = Span("x", "stage", 2.0, 1.0)
        assert span.duration == 0.0

    def test_counts_and_durations(self):
        tracer = Tracer()
        with tracer.span("online"):
            pass
        with tracer.span("online"):
            pass
        tracer.event("sim.fault", ts=0.0, category="sim.event")
        assert tracer.span_counts() == {"stage:online": 2}
        assert tracer.event_counts() == {"sim.fault": 1}
        assert len(tracer.durations("online")) == 2



class TestNullTracer:
    def test_disabled_and_recordless(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("online"):
            NULL_TRACER.add_span("t", 0.0, 1.0)
            NULL_TRACER.event("sim.fault")
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.events == []

    def test_as_tracer_normalises(self):
        assert as_tracer(None) is NULL_TRACER
        real = Tracer()
        assert as_tracer(real) is real


class TestTracingProfiler:
    """``StageProfiler(tracer=...)``: one recorder, two views."""

    @staticmethod
    def _exercise(prof):
        with prof.stage("online"):
            with prof.stage("dls"):
                prof.count("dls.tasks_placed", 3)
                prof.count("path_cache.hit")
            with prof.stage("stretch"):
                prof.count("prob_cache.miss", 2)
        with prof.stage("online"):
            prof.count("reschedule.calls")
        prof.event("drift.detected", drift=0.3)

    def test_aggregates_match_plain_profiler(self):
        plain = StageProfiler()
        traced = StageProfiler(tracer=Tracer())
        for prof in (plain, traced):
            self._exercise(prof)
        assert traced.calls == plain.calls
        assert traced.counters == plain.counters
        assert set(traced.timings) == set(plain.timings)
        # the tracer is not part of the profile
        assert StageProfiler(tracer=Tracer()) == StageProfiler()
        assert "tracer" not in repr(traced)

    def test_stage_blocks_record_spans(self):
        tracer = Tracer()
        prof = StageProfiler(tracer=tracer)
        self._exercise(prof)
        assert tracer.span_counts() == {
            "stage:dls": 1, "stage:online": 2, "stage:stretch": 1,
        }
        assert [s.parent for s in tracer.spans] == [-1, 0, 0, -1]
        for span in tracer.spans:
            assert span.category == "stage"
        assert sum(prof.calls.values()) == len(tracer.spans)

    def test_cache_counters_double_as_events(self):
        tracer = Tracer()
        prof = StageProfiler(tracer=tracer)
        for name in sorted(EVENT_COUNTERS):
            prof.count(name)
        prof.count("dls.tasks_placed", 5)  # not an event counter
        assert set(tracer.event_counts()) == EVENT_COUNTERS
        assert {e.category for e in tracer.events} == {"counter"}
        assert prof.counters["dls.tasks_placed"] == 5

    def test_event_forwards_to_tracer(self):
        tracer = Tracer()
        prof = StageProfiler(tracer=tracer)
        prof.event("drift.detected", drift=0.3)
        assert tracer.event_counts() == {"drift.detected": 1}
        assert tracer.events[0].attrs == {"drift": 0.3}

    def test_plain_profiler_event_is_a_no_op(self):
        prof = StageProfiler()
        assert prof.tracer is NULL_TRACER
        assert NULL_PROFILER.tracer is NULL_TRACER
        self._exercise(prof)
        prof.event("drift.detected", drift=0.3)
        assert NULL_TRACER.spans == [] and NULL_TRACER.events == []

    def test_exception_in_a_traced_stage_records_and_closes_the_span(self):
        tracer = Tracer()
        prof = StageProfiler(tracer=tracer)
        with pytest.raises(RuntimeError):
            with prof.stage("online"):
                raise RuntimeError("boom")
        assert prof.calls == {"online": 1}
        assert prof.timings["online"] >= 0.0
        (span,) = tracer.spans
        assert span.end >= span.start
        with prof.stage("dls"):
            pass
        assert tracer.spans[1].parent == -1  # the failed span was popped

    def test_to_dict_and_from_dict_ignore_the_tracer(self):
        prof = StageProfiler(tracer=Tracer())
        self._exercise(prof)
        clone = StageProfiler.from_dict(prof.to_dict())
        assert clone == prof
        assert clone.tracer is NULL_TRACER
        merged = StageProfiler()
        merged.merge(prof)
        assert merged.tracer is NULL_TRACER
        assert merged.counters == prof.counters


# ----------------------------------------------------------------------
# Profile-preservation regression (values captured before this PR)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mpeg_problem():
    ctg = mpeg_ctg()
    platform = mpeg_platform()
    set_deadline_from_makespan(ctg, platform, 1.6)
    trace = movie_trace(ctg, "Airwolf", length=200)
    probabilities = empirical_distribution(ctg, trace[:50])
    return ctg, platform, trace[50:], probabilities


@pytest.fixture(scope="module")
def traced_runs(mpeg_problem):
    ctg, platform, test, probabilities = mpeg_problem
    plan = fault_plan_catalogue()["overrun"]
    runs = {}
    tracer = Tracer()
    runs["non_adaptive"] = (
        run_non_adaptive(ctg, platform, test, probabilities, tracer=tracer),
        tracer,
    )
    tracer = Tracer()
    runs["adaptive"] = (
        run_adaptive(
            ctg, platform, test, probabilities,
            config=AdaptiveConfig(window_size=20, threshold=0.1),
            tracer=tracer,
        ),
        tracer,
    )
    tracer = Tracer()
    runs["faulted"] = (
        run_faulted(
            ctg, platform, test, probabilities, plan,
            config=AdaptiveConfig(window_size=20, threshold=0.1),
            tracer=tracer,
        ),
        tracer,
    )
    return runs


class TestProfilePreservation:
    """Traced runs must reproduce the pre-PR profiles exactly."""

    def test_non_adaptive_profile_unchanged(self, traced_runs):
        result, _ = traced_runs["non_adaptive"]
        assert result.profile.calls == {
            "dls": 1,
            "dls.levels": 1,
            "executor.replay": 150,
            "online": 1,
            "stretch": 1,
            "stretch.refresh": 1,
            "stretch.structure": 1,
            "stretch.sweep": 1,
        }
        assert result.profile.counters == {
            "dls.candidates_evaluated": 365,
            "dls.tasks_placed": 40,
            "executor.instances": 150,
            "path_cache.miss": 1,
            "paths.enumerated": 717,
            "prob_cache.miss": 1,
        }
        assert result.total_energy == pytest.approx(5064.055556, abs=1e-5)
        assert result.energies[:5] == pytest.approx(
            [37.825735, 37.825735, 30.566155, 37.825735, 37.825735], abs=1e-5
        )

    def test_adaptive_profile_unchanged(self, traced_runs):
        result, _ = traced_runs["adaptive"]
        assert result.profile.counters == {
            "dls.candidates_evaluated": 5335,
            "dls.tasks_placed": 600,
            "executor.instances": 150,
            "path_cache.hit": 13,
            "path_cache.miss": 2,
            "paths.enumerated": 1364,
            "prob_cache.hit": 10,
            "prob_cache.miss": 5,
            "reschedule.calls": 14,
        }
        assert result.total_energy == pytest.approx(5098.960108, abs=1e-5)
        assert result.call_instances == [
            25, 28, 36, 45, 48, 63, 65, 81, 94, 122, 129, 133, 139, 146,
        ]

    def test_faulted_profile_unchanged(self, traced_runs):
        result, _ = traced_runs["faulted"]
        assert result.profile.counters == {
            "dls.candidates_evaluated": 5690,
            "dls.tasks_placed": 640,
            "executor.faulted_instances": 30,
            "executor.instances": 150,
            "fault.escalations": 13,
            "fault.injected": 30,
            "fault.threatened": 12,
            "path_cache.hit": 14,
            "path_cache.miss": 2,
            "paths.enumerated": 1364,
            "prob_cache.hit": 10,
            "prob_cache.miss": 6,
            "reschedule.calls": 15,
            "reschedule.emergency": 1,
        }
        assert result.total_energy == pytest.approx(5455.128994, abs=1e-5)
        assert result.deadline_misses == 1

    def test_traced_equals_untraced(self, mpeg_problem, traced_runs):
        ctg, platform, test, probabilities = mpeg_problem
        plan = fault_plan_catalogue()["overrun"]
        plain = run_faulted(
            ctg, platform, test, probabilities, plan,
            config=AdaptiveConfig(window_size=20, threshold=0.1),
        )
        traced, _ = traced_runs["faulted"]
        assert plain.profile.counters == traced.profile.counters
        assert plain.profile.calls == traced.profile.calls
        assert plain.energies == traced.energies
        assert plain.call_instances == traced.call_instances


class TestTraceContents:
    """The ISSUE's acceptance shape: spans per task instance, one span
    per ``schedule_online`` invocation, events per re-schedule/fault."""

    def test_one_stage_span_per_online_invocation(self, traced_runs):
        for key in ("non_adaptive", "adaptive", "faulted"):
            result, tracer = traced_runs[key]
            assert tracer.span_counts()["stage:online"] == result.profile.calls["online"]

    def test_task_spans_cover_every_instance(self, traced_runs):
        result, tracer = traced_runs["adaptive"]
        task_spans = [s for s in tracer.spans if s.category == "sim.task"]
        assert len(task_spans) >= len(result.energies)
        assert all(s.track.startswith("pe:") for s in task_spans)
        assert all("speed" in s.attrs for s in task_spans)

    def test_sim_offset_spreads_instances_over_periods(self, mpeg_problem, traced_runs):
        ctg, _, test, _ = mpeg_problem
        _, tracer = traced_runs["non_adaptive"]
        starts = [s.start for s in tracer.spans if s.category == "sim.task"]
        assert max(starts) > ctg.deadline * (len(test) - 1) * 0.99

    def test_reschedule_events_match_calls(self, traced_runs):
        result, tracer = traced_runs["adaptive"]
        assert tracer.event_counts()["sim.reschedule"] == result.reschedule_calls
        assert tracer.event_counts()["reschedule.invoked"] == result.reschedule_calls

    def test_fault_events_match_injected_faults(self, traced_runs):
        result, tracer = traced_runs["faulted"]
        counts = tracer.event_counts()
        assert counts["sim.fault"] == result.profile.counters["fault.injected"]
        assert counts["sim.escalation"] == result.profile.counters["fault.escalations"]
        recovered = counts.get("sim.recovered", 0)
        unrecovered = counts.get("sim.unrecovered", 0)
        assert recovered + unrecovered == result.profile.counters["fault.threatened"]


class TestRescheduleEventInstance:
    """``sim.reschedule`` numbers instances like the controller does —
    from 1, the same numbers as ``call_instances`` — in fault-free and
    faulted runs alike."""

    @pytest.fixture(scope="class")
    def cruise_problem(self):
        ctg = cruise_ctg()
        platform = cruise_platform()
        set_deadline_from_makespan(ctg, platform, 1.6)
        trace = drifting_trace(ctg, 400, seed=7)
        return ctg, platform, trace[100:], empirical_distribution(ctg, trace[:100])

    @pytest.mark.parametrize("faulted", [False, True], ids=["adaptive", "faulted"])
    def test_reschedule_instances_equal_call_instances(self, cruise_problem, faulted):
        ctg, platform, test, probabilities = cruise_problem
        tracer = Tracer()
        if faulted:
            result = run_faulted(
                ctg, platform, test, probabilities, FaultPlan("empty", 1), tracer=tracer
            )
        else:
            result = run_adaptive(ctg, platform, test, probabilities, tracer=tracer)
        events = [e for e in tracer.events if e.name == "sim.reschedule"]
        assert result.call_instances
        assert [e.attrs["instance"] for e in events] == result.call_instances
        assert [e.attrs["call"] for e in events] == list(
            range(1, result.reschedule_calls + 1)
        )
        assert all(
            set(e.attrs) == {"instance", "call", "emergency", "fallback"}
            for e in events
        )
