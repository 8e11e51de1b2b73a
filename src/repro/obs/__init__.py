"""Unified observability layer: tracing, typed metrics, exporters.

Five modules, one contract:

* :mod:`repro.obs.trace` — :class:`Tracer` (nested spans + point
  events), :data:`NULL_TRACER`, and :class:`TracingProfiler`, the
  drop-in :class:`~repro.profiling.StageProfiler` that feeds a tracer
  while keeping the aggregate ``profile`` dicts bit-for-bit identical;
* :mod:`repro.obs.metrics` — the declared metric vocabulary
  (:data:`VOCABULARY`), :class:`MetricsRegistry` with typed
  counter/gauge/histogram instruments, and the drift-test helpers
  (:func:`vocabulary_table`, :func:`emitted_names`);
* :mod:`repro.obs.export` / :mod:`repro.obs.report` — Chrome
  trace-event JSON for Perfetto, byte-stable canonical metrics
  snapshots for CI ``cmp``, and the ``repro report`` renderers;
* :mod:`repro.obs.events` — the run-event ledger (``repro.events/1``):
  a declared, drift-tested event vocabulary, the thread-safe
  :class:`EventLedger` writer and canonicalisation for CI
  byte-compares.

See ``docs/observability.md`` for the span model and export formats.
"""

from .export import (
    METRICS_SCHEMA,
    chrome_trace,
    metrics_snapshot,
    render_timeline,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_snapshot,
)
from .events import (
    EVENTS,
    EVENTS_SCHEMA,
    EventError,
    EventLedger,
    EventSpec,
    as_ledger,
    canonical_event_names,
    canonical_ledger,
    canonical_records,
    event_names,
    events_table,
    read_ledger,
    render_event,
)
from .metrics import (
    VOCABULARY,
    MetricError,
    MetricKind,
    MetricSpec,
    MetricsRegistry,
    declared_names,
    default_registry,
    derive_run_metrics,
    emitted_names,
    vocabulary_table,
)
from .report import (
    ReportError,
    detect_kind,
    load_report_payload,
    render_report,
    summarise_artifact,
    summarise_ledger,
    summarise_trace,
)
from .trace import (
    EVENT_COUNTERS,
    NULL_TRACER,
    SIM_CATEGORIES,
    WALL_TRACK,
    Span,
    TraceEvent,
    Tracer,
    TracingProfiler,
    as_tracer,
)

__all__ = [
    "EVENTS",
    "EVENTS_SCHEMA",
    "EventError",
    "EventLedger",
    "EventSpec",
    "as_ledger",
    "canonical_event_names",
    "canonical_ledger",
    "canonical_records",
    "event_names",
    "events_table",
    "read_ledger",
    "render_event",
    "METRICS_SCHEMA",
    "chrome_trace",
    "metrics_snapshot",
    "render_timeline",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_metrics_snapshot",
    "VOCABULARY",
    "MetricError",
    "MetricKind",
    "MetricSpec",
    "MetricsRegistry",
    "declared_names",
    "default_registry",
    "derive_run_metrics",
    "emitted_names",
    "vocabulary_table",
    "ReportError",
    "detect_kind",
    "load_report_payload",
    "render_report",
    "summarise_artifact",
    "summarise_ledger",
    "summarise_trace",
    "EVENT_COUNTERS",
    "NULL_TRACER",
    "SIM_CATEGORIES",
    "WALL_TRACK",
    "Span",
    "TraceEvent",
    "Tracer",
    "TracingProfiler",
    "as_tracer",
]
