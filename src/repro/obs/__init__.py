"""Unified observability layer: tracing, declared metrics, exporters.

Five modules, one contract:

* :mod:`repro.obs.trace` — :class:`Tracer` (nested spans + point
  events) and :data:`NULL_TRACER`.  A run is traced by building its
  profiler as ``StageProfiler(tracer=tracer)``
  (:class:`repro.profiling.StageProfiler`): the one in-process
  recorder then feeds the tracer while its aggregate ``profile`` dicts
  stay bit-for-bit what an untraced run produces;
* :mod:`repro.obs.metrics` — the one declared vocabulary of stage,
  counter, event, derived-metric and ledger names
  (:data:`VOCABULARY`) and its name check, the plain-dict
  ``run.*`` metrics of :func:`derive_run_metrics`, and the drift-test
  helpers (:func:`vocabulary_table`, :func:`emitted_names`);
* :mod:`repro.obs.export` / :mod:`repro.obs.report` — Chrome
  trace-event JSON for Perfetto, byte-stable canonical metrics
  snapshots for CI ``cmp``, and the ``repro report`` renderers;
* :mod:`repro.obs.events` — the run-event ledger (``repro.events/1``):
  the thread-safe :class:`EventLedger` writer over the ledger rows of
  :data:`VOCABULARY`, the no-op :data:`NULL_LEDGER`, and
  canonicalisation for CI byte-compares.

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
    EVENTS_SCHEMA,
    NULL_LEDGER,
    EventError,
    EventLedger,
    as_ledger,
    canonical_ledger,
    canonical_records,
    read_ledger,
    render_event,
)
from .metrics import (
    VOCABULARY,
    MetricKind,
    MetricSpec,
    declared_names,
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
    NULL_TRACER,
    SIM_CATEGORIES,
    WALL_TRACK,
    Span,
    TraceEvent,
    Tracer,
    as_tracer,
)

__all__ = [
    "EVENTS_SCHEMA",
    "NULL_LEDGER",
    "EventError",
    "EventLedger",
    "as_ledger",
    "canonical_ledger",
    "canonical_records",
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
    "MetricKind",
    "MetricSpec",
    "declared_names",
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
    "NULL_TRACER",
    "SIM_CATEGORIES",
    "WALL_TRACK",
    "Span",
    "TraceEvent",
    "Tracer",
    "as_tracer",
]
