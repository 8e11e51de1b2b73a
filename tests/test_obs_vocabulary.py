"""Vocabulary drift tests — the two inclusions that keep the declared
vocabulary honest:

* **emitted ⊆ declared** — a static AST sweep over ``src/repro``
  collects every stage/counter/event/ledger name literal and asserts
  each is declared in :data:`repro.obs.metrics.VOCABULARY` (the
  ``run.*`` keys of ``derive_run_metrics`` are dict keys, so only the
  battery sees them);
* **declared ⊆ emitted** — a battery of real runs (adaptive, faulted
  under three plans, scheduling fallback, ``check=True``, degenerate
  stretching, modal table, ledgered engine runs cold, warm and
  resumed) must emit every declared runtime name at least once, so
  the vocabulary cannot accumulate dead entries.

Plus the rendered-table drift checks: the tables embedded in
``repro/profiling.py``'s docstring and ``docs/observability.md`` must
be exactly ``vocabulary_table()``'s output.
"""

from pathlib import Path

import pytest

import repro.adaptive.controller as controller_mod
import repro.profiling
from repro.adaptive.controller import AdaptiveConfig, AdaptiveController
from repro.batch import monte_carlo
from repro.ctg import CTGError, figure1_ctg
from repro.ctg.examples import two_sided_branch_ctg
from repro.ctg.graph import ConditionalTaskGraph
from repro.experiments.chaos import fault_plan_catalogue
from repro.obs import (
    VOCABULARY,
    EventLedger,
    MetricKind,
    Tracer,
    declared_names,
    derive_run_metrics,
    emitted_names,
    vocabulary_table,
)
from repro.platform import PlatformConfig, generate_platform
from repro.profiling import StageProfiler
from repro.scheduling import SchedulingError, dls_schedule, stretch_schedule
from repro.scheduling.modal import build_modal_table
from repro.scheduling.online import schedule_online, set_deadline_from_makespan
from repro.scheduling.policies import DiscreteSpeedPolicy
from repro.sim import empirical_distribution
from repro.sim.runner import run_faulted, run_non_adaptive
from repro.workloads import movie_trace, mpeg_ctg, mpeg_platform

from .test_stretching_edge_cases import uniform_platform

REPO = Path(__file__).resolve().parent.parent


def _fabric_cell(params):
    """Module-level cell function for the engine-fabric battery leg; a
    ``faulted`` cell's profile carries fault counters."""
    counters = {"fault.injected": 1, "fault.threatened": 1} if params["faulted"] else {}
    return {"values": {"y": params["x"] * 2}, "profile": {"counters": counters}}


class _FabricResult:
    def __init__(self, total):
        self.total = total

    def format(self):
        return f"total={self.total}"


def _names_of(profile, tracer=None):
    names = set(profile.calls) | set(profile.counters)
    if tracer is not None:
        names |= {e.name for e in tracer.events}
        names |= {s.name for s in tracer.spans if s.category == "stage"}
    return names


@pytest.fixture(scope="module")
def runtime_names():
    """Union of every metric name the coverage battery emits."""
    names = set()

    # -- faulted mpeg runs: three plans cover the fault/reschedule space
    ctg = mpeg_ctg()
    platform = mpeg_platform()
    set_deadline_from_makespan(ctg, platform, 1.6)
    trace = movie_trace(ctg, "Airwolf", length=200)
    probabilities = empirical_distribution(ctg, trace[:50])
    catalogue = fault_plan_catalogue()
    for plan_name in ("overrun", "overrun-drop", "noisy-links"):
        tracer = Tracer()
        result = run_faulted(
            ctg, platform, trace[50:], probabilities, catalogue[plan_name],
            config=AdaptiveConfig(window_size=20, threshold=0.1),
            tracer=tracer,
        )
        names |= _names_of(result.profile, tracer)
        if plan_name == "overrun":
            names |= set(derive_run_metrics(result, tracer=tracer))

    # -- speed-policy families: quantisation + refinement counters on
    #    a discrete run, EAPS configuration enumeration, run-time slack
    #    reclamation, and a capped table whose escalation ceiling turns
    #    misses into quantisation losses
    capped = DiscreteSpeedPolicy(levels=(0.25, 0.5))
    result = run_faulted(
        ctg, platform, trace[50:], probabilities, catalogue["overrun"],
        config=AdaptiveConfig(window_size=20, threshold=0.1),
        speed_policy=capped,
    )
    assert result.fault_log.quantization_losses > 0
    names |= _names_of(result.profile)
    reclaiming = run_non_adaptive(
        ctg, platform, trace[50:80], probabilities=probabilities,
        speed_policy="preemptive",
    )
    names |= _names_of(reclaiming.profile)

    # -- check=True: the verification stage and its pass counter
    small = figure1_ctg()
    small_platform = generate_platform(small.tasks(), PlatformConfig(pes=2, seed=5))
    set_deadline_from_makespan(small, small_platform, 1.5)
    tracer = Tracer()
    checked = schedule_online(
        small, small_platform, check=True, profiler=StageProfiler(tracer=tracer)
    )
    names |= _names_of(checked.profile, tracer)
    for family in ("discrete", "eaps"):
        profiler = StageProfiler()
        schedule_online(small, small_platform, profiler=profiler, speed_policy=family)
        names |= _names_of(profiler)

    # -- batched Monte-Carlo sweep
    profiler = StageProfiler()
    monte_carlo(
        ctg, platform, 64, seed=1, probabilities=probabilities, profiler=profiler
    )
    names |= _names_of(profiler)

    # -- scheduling failure: fallback schedule + its counter
    fallback_ctg = two_sided_branch_ctg()
    fallback_ctg.deadline = 60.0
    controller = AdaptiveController(
        fallback_ctg,
        uniform_platform(fallback_ctg, pes=1),
        fallback_ctg.default_probabilities,
    )
    original = controller_mod.schedule_online

    def refuse(*args, **kwargs):
        raise SchedulingError("forced failure")

    controller_mod.schedule_online = refuse
    try:
        controller.reschedule(on_error="fallback")
    finally:
        controller_mod.schedule_online = original
    names |= _names_of(controller.stats)

    # -- degenerate probabilities: the all-paths-pruned stretch fallback
    pruned = dls_schedule(
        fallback_ctg,
        uniform_platform(fallback_ctg, pes=1),
        {"fork": {"h": 0.0, "l": 1.0}},
    )
    pruned.ctg.deadline = 60.0
    profiler = StageProfiler()
    stretch_schedule(
        pruned, {"fork": {"h": 0.0, "l": 0.0}},
        prune_zero_probability=True, profiler=profiler,
    )
    names |= _names_of(profiler)

    # -- engine fabric: a cold cached run, a warm run, one vandalised
    #    entry, then a warm --resume run — covers every cache.backend.* /
    #    engine.stream.* counter (corrupt via the garbage entry, resumed
    #    via resume=True) and, through their ledgers, every ledger event
    #    (cell.cached on the warm run, cell.recovery via the faulted cell)
    import tempfile

    from repro.experiments import CellCache, run_spec
    from repro.experiments.spec import Cell, ExperimentSpec

    fabric_spec = ExperimentSpec(
        name="vocabulary-battery",
        cell_function=_fabric_cell,
        cells=[Cell(key=f"c{i}", params={"x": i, "faulted": i == 2}) for i in range(3)],
        reducer=lambda cells: _FabricResult(total=sum(c.values["y"] for c in cells)),
    )
    with tempfile.TemporaryDirectory() as tmp:
        store = CellCache(tmp)

        def ledgered(resume):
            ledger = EventLedger()
            report = run_spec(
                fabric_spec, jobs=1, cache=store, resume=resume, events=ledger
            )
            names.update(report.engine_profile.counters)
            names.update(record["event"] for record in ledger.records)
            return report

        cold = ledgered(resume=False)
        ledgered(resume=False)  # warm, not resumed: cell.cached
        store.path_for(cold.cells[0].fingerprint).write_text("not json at all")
        warm = ledgered(resume=True)
        assert warm.engine_profile.counters["cache.backend.corrupt"] == 1

    # -- modal table with cycle-closing pseudo-edges: the skip counter
    modal_result = schedule_online(small, small_platform)
    profiler = StageProfiler()
    original_edge = ConditionalTaskGraph.add_pseudo_edge

    def closing(self, *args, **kwargs):
        raise CTGError("forced cycle")

    ConditionalTaskGraph.add_pseudo_edge = closing
    try:
        build_modal_table(modal_result.schedule, profiler=profiler)
    finally:
        ConditionalTaskGraph.add_pseudo_edge = original_edge
    names |= _names_of(profiler)

    return names


class TestEmittedSubsetOfDeclared:
    def test_every_source_literal_is_declared(self):
        emitted = emitted_names(REPO / "src" / "repro")
        undeclared = emitted - declared_names()
        assert not undeclared, (
            f"metric names emitted in src/ but missing from VOCABULARY: "
            f"{sorted(undeclared)}"
        )

    def test_sweep_actually_sees_the_call_sites(self):
        emitted = emitted_names(REPO / "src" / "repro")
        # spot-check names emitted from four different modules
        assert {"online", "dls.tasks_placed", "sim.fault", "batch.instances"} <= emitted


class TestDeclaredSubsetOfEmitted:
    def test_every_declared_name_is_emitted_by_some_run(self, runtime_names):
        dead = declared_names() - runtime_names
        assert not dead, (
            f"names declared in VOCABULARY but never emitted by the "
            f"coverage battery: {sorted(dead)}"
        )

    def test_battery_stays_inside_the_vocabulary(self, runtime_names):
        assert runtime_names <= declared_names()


class TestDeclaration:
    def test_names_are_unique(self):
        names = [spec.name for spec in VOCABULARY]
        assert len(names) == len(set(names))

    def test_canonical_records_are_declared_ledger_events(self):
        ledger = {spec.name for spec in VOCABULARY if spec.kind is MetricKind.LEDGER}
        canonical = {spec.name for spec in VOCABULARY if spec.canonical}
        assert canonical <= ledger
        assert "cell.completed" in canonical
        assert "cell.submitted" in ledger - canonical
        # required fields are a ledger-only declaration, traced a counter-only one
        assert all(spec.fields for spec in VOCABULARY if spec.name in ledger)
        assert not any(spec.fields for spec in VOCABULARY if spec.name not in ledger)
        assert all(spec.kind is MetricKind.COUNTER for spec in VOCABULARY if spec.traced)


class TestRenderedTableDrift:
    def test_table_lists_every_ledger_event(self):
        rows = {line.split()[0]: line.split()[1:3] for line in vocabulary_table().splitlines()}
        for spec in VOCABULARY:
            if spec.kind is MetricKind.LEDGER:
                flag = "yes" if spec.canonical else "no"
                assert rows[f"``{spec.name}``"] == ["ledger", flag]

    def test_profiling_docstring_embeds_the_table(self):
        assert vocabulary_table() in repro.profiling.__doc__

    def test_observability_doc_embeds_the_table(self):
        doc = (REPO / "docs" / "observability.md").read_text()
        assert vocabulary_table() in doc
