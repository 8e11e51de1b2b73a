"""The declared stage/counter vocabulary and the derived run metrics.

Until this layer existed, the stage and counter names threaded through
the package lived only in a docstring table in :mod:`repro.profiling` —
nothing stopped a call site from emitting ``path_cache.hti`` and
silently reporting zeros forever.  This module makes the vocabulary a
*declaration*:

* :data:`VOCABULARY` — one :class:`MetricSpec` per stage timer, event
  counter, point event and derived per-run metric the package emits;
* :func:`warn_undeclared` — the one check of emitted names against the
  declaration: unknown names raise a :class:`UserWarning` (runs keep
  going, but the drift is visible);
* :func:`vocabulary_table` — the rendered name table; the table in
  ``repro/profiling.py``'s docstring and in ``docs/observability.md``
  is generated from it and drift-tested (the docstring can no longer
  diverge from the code);
* :func:`emitted_names` — an AST sweep over a source tree collecting
  every name literal passed to ``.stage(...)`` / ``.count(...)`` /
  ``.event(...)``, so the drift test can assert *emitted ⊆ declared*
  without running anything;
* :func:`derive_run_metrics` — the per-run derived metrics (re-schedule
  latency percentiles, energy per instance, recovery rate) computed
  from a :class:`~repro.sim.runner.RunResult` and its tracer, as a
  plain ``{name: value}`` dict.

Dynamic names — simulated task spans (named after tasks), link tracks,
``cell:<key>`` engine spans — are intentionally *outside* the
vocabulary: it governs the stage/counter/event namespace, where a typo
means silent data loss.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple
from warnings import warn


class MetricKind(str, Enum):
    """What a declared name measures."""

    TIMER = "timer"  #: a stage span; seconds accumulate per entry
    COUNTER = "counter"  #: a monotonically accumulated integer
    EVENT = "event"  #: a point on the trace timeline
    GAUGE = "gauge"  #: a last-write-wins scalar
    HISTOGRAM = "histogram"  #: a value distribution with percentiles


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric name."""

    name: str
    kind: MetricKind
    description: str
    unit: str = ""


def _spec(name: str, kind: MetricKind, description: str, unit: str = "") -> MetricSpec:
    return MetricSpec(name=name, kind=kind, description=description, unit=unit)


_T, _C, _E, _G, _H = (
    MetricKind.TIMER,
    MetricKind.COUNTER,
    MetricKind.EVENT,
    MetricKind.GAUGE,
    MetricKind.HISTOGRAM,
)

#: The declared vocabulary — every stage/counter/event/derived name the
#: package emits.  Ordering is the rendering order of
#: :func:`vocabulary_table` (grouped by kind, pipeline order within).
VOCABULARY: Tuple[MetricSpec, ...] = (
    # -- stage timers (wall-clock spans) --------------------------------
    _spec("online", _T, "one full ``schedule_online`` invocation", "s"),
    _spec("online.fallback", _T, "full-speed DLS fallback scheduling stage", "s"),
    _spec("dls", _T, "mapping/ordering stage", "s"),
    _spec("dls.levels", _T, "static-level computation inside DLS", "s"),
    _spec("stretch", _T, "slack-distribution stage (total)", "s"),
    _spec("stretch.structure", _T, "path enumeration + scenario-mask construction", "s"),
    _spec("stretch.refresh", _T, "probability-dependent table refresh", "s"),
    _spec("stretch.sweep", _T, "the per-task CalculateSlack sweep", "s"),
    _spec("executor.replay", _T, "per-instance schedule replay in the simulator", "s"),
    _spec("executor.replay_faulted", _T, "dual-arm replay of a fault-injected instance", "s"),
    _spec("batch.sweep", _T, "batched Monte-Carlo sampling + evaluation kernel", "s"),
    _spec("check", _T, "static verification inside ``schedule_online(check=True)``", "s"),
    # -- counters -------------------------------------------------------
    _spec("dls.tasks_placed", _C, "tasks placed by the DLS mapping stage"),
    _spec("dls.candidates_evaluated", _C, "(task, PE) candidates DLS evaluated, not served from its cache"),
    _spec("paths.enumerated", _C, "paths enumerated on structural cache misses"),
    _spec("path_cache.hit", _C, "structural path-analytics cache hits"),
    _spec("path_cache.miss", _C, "structural path-analytics cache misses"),
    _spec("prob_cache.hit", _C, "probability-tier (prob_after) cache hits"),
    _spec("prob_cache.miss", _C, "probability-tier (prob_after) cache misses"),
    _spec("stretch.prune_fallback", _C, "all-paths-pruned fallbacks to unpruned stretching"),
    _spec("executor.instances", _C, "CTG instances replayed by the executor"),
    _spec("executor.faulted_instances", _C, "instances replayed with faults applied"),
    _spec("reschedule.calls", _C, "adaptive re-invocations of the online algorithm"),
    _spec("reschedule.emergency", _C, "out-of-band invocations after an unrecovered miss"),
    _spec("reschedule.dropped", _C, "invocations lost to an injected drop fault"),
    _spec("reschedule.delayed", _C, "invocations deferred by an injected delay fault"),
    _spec("reschedule.fallback", _C, "full-speed fallback schedules installed on failure"),
    _spec("batch.instances", _C, "instances evaluated by the batched Monte-Carlo kernel"),
    _spec("fault.injected", _C, "faults resolved from the plan and applied"),
    _spec("fault.threatened", _C, "instances whose no-policy arm missed the deadline"),
    _spec("fault.escalations", _C, "overrun detections that escalated remaining tasks"),
    _spec("fault.corrupted_observations", _C, "branch labels rotated before the estimator"),
    _spec("fault.quantization_loss", _C, "misses attributable to a capped frequency table alone"),
    _spec("policy.quantized", _C, "task speeds rounded up onto a discrete level"),
    _spec("policy.refined", _C, "discrete levels lowered by the slack-refinement pass"),
    _spec("policy.eaps_configs", _C, "(frequency, core-count) configurations enumerated by EAPS"),
    _spec("executor.reclaimed", _C, "tasks whose completion slack was reclaimed at a preemption point"),
    _spec("check.passes", _C, "clean ``schedule_online(check=True)`` verifications"),
    _spec("modal.pseudo_edge_skips", _C, "implied-edge injections skipped as cycle-closing"),
    _spec("cache.backend.hit", _C, "cell-cache entries served by the storage backend"),
    _spec("cache.backend.miss", _C, "cell-cache lookups the backend could not serve"),
    _spec("cache.backend.corrupt", _C, "backend entries rejected as corrupt (recomputed)"),
    _spec("cache.backend.put", _C, "cell results persisted to the storage backend"),
    _spec("engine.stream.flushed", _C, "cell results streamed through the reorder buffer"),
    _spec("engine.stream.peak_resident", _C, "reorder-buffer high-water mark (bounded by the window)"),
    _spec("engine.stream.resumed", _C, "cells skipped via warm entries under ``--resume``"),
    # -- point events ---------------------------------------------------
    _spec("drift.detected", _E, "windowed branch drift crossed the threshold"),
    _spec("reschedule.invoked", _E, "the controller (re)invoked the online algorithm"),
    _spec("sim.fault", _E, "one injected fault, on its instance's sim timeline"),
    _spec("sim.reschedule", _E, "a new schedule took effect (sim timeline)"),
    _spec("sim.escalation", _E, "the watchdog escalated remaining tasks (sim timeline)"),
    _spec("sim.recovered", _E, "policy arm recovered a threatened instance"),
    _spec("sim.unrecovered", _E, "policy arm missed the deadline despite recovery"),
    # -- derived per-run metrics ----------------------------------------
    _spec("run.reschedule_latency", _H, "per-call ``schedule_online`` wall-clock latency", "s"),
    _spec("run.energy_per_instance", _H, "per-instance energy distribution", "energy"),
    _spec("run.total_energy", _G, "summed instance energy of the run", "energy"),
    _spec("run.instances", _G, "replayed CTG instances"),
    _spec("run.reschedule_calls", _G, "re-scheduling call count of the run"),
    _spec("run.deadline_misses", _G, "instances finishing past the deadline"),
    _spec("run.recovery_rate", _G, "recovered / threatened instances (faulted runs)"),
)


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def histogram_summary(values: Iterable[float]) -> Dict[str, float]:
    """The exported ``count/p50/p95/max/sum`` summary of a distribution."""
    values = [float(v) for v in values]
    if not values:
        return {"count": 0, "p50": 0.0, "p95": 0.0, "max": 0.0, "sum": 0.0}
    return {
        "count": len(values),
        "p50": _percentile(values, 0.50),
        "p95": _percentile(values, 0.95),
        "max": max(values),
        "sum": sum(values),
    }


def declared_names() -> Set[str]:
    """The set of declared metric names."""
    return {spec.name for spec in VOCABULARY}


#: Declared names whose values are wall-clock seconds — excluded from
#: the canonical snapshot (see :func:`repro.obs.export.metrics_snapshot`).
WALL_CLOCK_NAMES: FrozenSet[str] = frozenset(
    spec.name for spec in VOCABULARY if spec.unit == "s"
)


def warn_undeclared(names: Iterable[str], source: str = "") -> List[str]:
    """Check names against :data:`VOCABULARY`; returns the unknowns.

    Unknown names raise a :class:`UserWarning` naming ``source``.
    """
    unknown = sorted(set(names) - declared_names())
    if unknown:
        where = f" (from {source})" if source else ""
        warn(f"undeclared metric name(s){where}: {', '.join(unknown)}", stacklevel=2)
    return unknown


# ----------------------------------------------------------------------
# Rendered vocabulary table (the docstring/docs source of truth)
# ----------------------------------------------------------------------
def vocabulary_table() -> str:
    """The stage/counter table, generated from :data:`VOCABULARY`.

    ``repro/profiling.py``'s module docstring and the vocabulary
    section of ``docs/observability.md`` embed exactly this text; the
    drift test re-renders it and fails on any divergence.
    """
    rows = [(f"``{spec.name}``", spec.kind.value, spec.description) for spec in VOCABULARY]
    widths = [max(len(r[i]) for r in rows) for i in range(2)]
    bar = f"{'=' * widths[0]}  {'=' * widths[1]}  {'=' * 48}"
    lines = [bar]
    for name, kind, description in rows:
        lines.append(f"{name:<{widths[0]}}  {kind:<{widths[1]}}  {description}")
    lines.append(bar)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Static emission sweep (the other half of the drift test)
# ----------------------------------------------------------------------
#: Method names whose first string-literal argument is a metric name.
_EMITTING_METHODS = frozenset({"stage", "count", "event"})


def emitted_names(*roots: Any) -> Set[str]:
    """Every metric-name literal emitted anywhere under ``roots``.

    Walks the Python files, collecting the first positional string
    literal of every ``<obj>.stage("…")`` / ``.count("…")`` /
    ``.event("…")`` call.  Dynamic names (variables, f-strings, the
    ``run.*`` keys :func:`derive_run_metrics` writes) are invisible to
    this sweep by design — the vocabulary governs the literal
    namespace, and the ``run.*`` names are checked by running them.
    """
    names: Set[str] = set()
    for root in roots:
        root = Path(root)
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in files:
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr not in _EMITTING_METHODS:
                    continue
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    names.add(first.value)
    return names


# ----------------------------------------------------------------------
# Derived per-run metrics
# ----------------------------------------------------------------------
def derive_run_metrics(result: Any, tracer: Any = None) -> Dict[str, Any]:
    """The ``run.*`` derived metrics of one trace replay, keys sorted.

    ``result`` is a :class:`~repro.sim.runner.RunResult`; ``tracer``
    (optional) supplies the per-call ``online`` span durations for the
    re-schedule latency histogram.  Gauges are floats; histograms are
    :func:`histogram_summary` dicts.  Wall-clock metrics are the
    :data:`WALL_CLOCK_NAMES`, which the canonical snapshot excludes —
    everything else is deterministic.
    """
    derived: Dict[str, Any] = {
        "run.energy_per_instance": histogram_summary(result.energies),
        "run.total_energy": float(result.total_energy),
        "run.instances": float(len(result.energies)),
        "run.reschedule_calls": float(result.reschedule_calls),
        "run.deadline_misses": float(result.deadline_misses),
    }
    fault_log = getattr(result, "fault_log", None)
    if fault_log is not None:
        derived["run.recovery_rate"] = float(fault_log.recovery_rate())
    if tracer is not None and tracer.enabled:
        latencies = tracer.durations("online")
        if latencies:
            derived["run.reschedule_latency"] = histogram_summary(latencies)
    return dict(sorted(derived.items()))
