"""Rendering for ``repro report`` — one verb, four file kinds.

The verb accepts any one file this package writes and renders a
human-readable (or ``--json`` structured) summary:

* a **Chrome trace** (``repro trace … --out run.trace.json``) — top
  stages by accumulated wall-clock, the re-schedule timeline, the
  fault/recovery table and per-track span counts;
* an **experiment artifact** (``repro run … --artifacts-dir``, any
  ``repro.experiment/*`` schema revision) — cell/cache accounting plus
  the same top-stage table from the aggregated profile;
* a **metrics snapshot** (``… --metrics-out``, schema
  ``repro.metrics/1``) — counters, stage calls and derived metrics;
* a **run-event ledger** (``<experiment>.events.jsonl``, schema
  ``repro.events/1``) — declared, completed and warm cells plus the
  per-event counts.

Everything here consumes the *serialised* formats, not live objects, so
a report can be produced on a different machine (or months later) from
nothing but the artifact file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

from .events import EVENTS_SCHEMA, EventError, read_ledger
from .export import METRICS_SCHEMA

#: sim-time categories as exported (matches trace.SIM_CATEGORIES)
_SIM_CATS = ("sim.task", "sim.link", "sim.event")


class ReportError(ValueError):
    """The file is not something ``repro report`` understands."""


def detect_kind(payload: Any) -> str:
    """``"trace"``, ``"artifact"`` or ``"metrics"`` — raises otherwise."""
    if isinstance(payload, dict):
        if isinstance(payload.get("traceEvents"), list):
            return "trace"
        schema = payload.get("schema")
        # any revision: the report only reads fields every revision has
        if isinstance(schema, str) and schema.startswith("repro.experiment/"):
            return "artifact"
        if schema == METRICS_SCHEMA:
            return "metrics"
    raise ReportError(
        "unrecognised file: expected a Chrome trace (traceEvents), an "
        "experiment artifact (repro.experiment/*) or a metrics snapshot "
        f"({METRICS_SCHEMA})"
    )


def load_report_payload(path: Union[str, Path]) -> Tuple[str, Any]:
    """Read one report file and classify it; returns ``(kind, payload)``.

    A JSON document is classified by :func:`detect_kind`.  Anything
    else — and a ledger holding only its ``ledger.opened`` line, which
    parses as one JSON object — is read as a ``repro.events/1`` ledger:
    kind ``"events"``, payload the record list.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ReportError(f"{path}: not UTF-8 text ({exc})") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        pass
    else:
        if not (isinstance(payload, dict) and "event" in payload):
            return detect_kind(payload), payload
    try:
        return "events", read_ledger(path)
    except EventError as exc:
        raise ReportError(
            f"{path}: neither a JSON report file nor a "
            f"{EVENTS_SCHEMA} ledger ({exc})"
        ) from exc


def _format_rows(rows: List[List[str]], header: List[str]) -> str:
    widths = [
        max(len(str(row[i])) for row in [header] + rows) for i in range(len(header))
    ]
    render = lambda row: "  ".join(f"{str(v):<{w}}" for v, w in zip(row, widths))
    lines = [render(header), render(["-" * w for w in widths])]
    lines.extend(render(row) for row in rows)
    return "\n".join(lines)


def _top_stages(
    timings: Mapping[str, float], calls: Mapping[str, int], limit: int = 12
) -> str:
    rows = sorted(timings.items(), key=lambda item: -item[1])[:limit]
    if not rows:
        return "(no stage timings recorded)"
    table = _format_rows(
        [
            [name, f"{seconds * 1e3:.3f}", str(calls.get(name, 0))]
            for name, seconds in rows
        ],
        ["stage", "total ms", "calls"],
    )
    return table


# ----------------------------------------------------------------------
# Chrome trace reports
# ----------------------------------------------------------------------
def summarise_trace(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Structured summary of an exported Chrome trace."""
    process_names: Dict[int, str] = {}
    stage_totals: Dict[str, float] = {}
    stage_calls: Dict[str, int] = {}
    track_spans: Dict[int, int] = {}
    reschedules: List[Dict[str, Any]] = []
    faults: Dict[str, int] = {}
    recoveries: Dict[str, int] = {}
    task_spans = 0
    online_latencies: List[float] = []
    for record in payload["traceEvents"]:
        ph = record.get("ph")
        if ph == "M":
            if record.get("name") == "process_name":
                process_names[record["pid"]] = record.get("args", {}).get("name", "?")
            continue
        cat = record.get("cat", "")
        name = record.get("name", "")
        if ph == "X":
            track_spans[record["pid"]] = track_spans.get(record["pid"], 0) + 1
            if cat == "stage":
                stage_totals[name] = stage_totals.get(name, 0.0) + record["dur"] / 1e3
                stage_calls[name] = stage_calls.get(name, 0) + 1
                if name == "online":
                    online_latencies.append(record["dur"] / 1e3)
            elif cat == "sim.task":
                task_spans += 1
        elif ph == "i":
            if name == "sim.reschedule":
                reschedules.append(
                    {"ts": record["ts"] / 1e3, **record.get("args", {})}
                )
            elif name == "sim.fault":
                kind = record.get("args", {}).get("kind", "?")
                faults[kind] = faults.get(kind, 0) + 1
            elif name in ("sim.recovered", "sim.unrecovered", "sim.escalation"):
                recoveries[name] = recoveries.get(name, 0) + 1
    return {
        "tracks": {
            process_names.get(pid, str(pid)): count
            for pid, count in sorted(track_spans.items())
        },
        "stage_ms": {k: round(v, 3) for k, v in sorted(stage_totals.items())},
        "stage_calls": dict(sorted(stage_calls.items())),
        "task_spans": task_spans,
        "reschedules": reschedules,
        "faults_by_kind": dict(sorted(faults.items())),
        "recovery_events": dict(sorted(recoveries.items())),
        "online_latency_ms": {
            "count": len(online_latencies),
            "max": round(max(online_latencies), 3) if online_latencies else 0.0,
        },
    }


def render_trace_report(payload: Mapping[str, Any]) -> str:
    """Text report of an exported Chrome trace."""
    summary = summarise_trace(payload)
    lines: List[str] = ["trace report", "============", ""]
    lines.append("top stages (wall clock):")
    stage_seconds = {k: v / 1e3 for k, v in summary["stage_ms"].items()}
    lines.append(_top_stages(stage_seconds, summary["stage_calls"]))
    lines.append("")
    lines.append(
        f"task execution spans: {summary['task_spans']}   "
        f"online invocations: {summary['stage_calls'].get('online', 0)}   "
        f"max online latency: {summary['online_latency_ms']['max']} ms"
    )
    lines.append("")
    lines.append("tracks:")
    for track, count in summary["tracks"].items():
        lines.append(f"  {track:<16} {count} spans")
    if summary["reschedules"]:
        lines.append("")
        lines.append("re-schedule timeline (sim time units):")
        for item in summary["reschedules"]:
            extra = ", ".join(
                f"{k}={v}" for k, v in sorted(item.items()) if k != "ts"
            )
            lines.append(f"  t={item['ts']:10.2f}  {extra}")
    if summary["faults_by_kind"]:
        lines.append("")
        lines.append("injected faults:")
        lines.append(
            _format_rows(
                [[k, str(v)] for k, v in summary["faults_by_kind"].items()],
                ["kind", "count"],
            )
        )
    if summary["recovery_events"]:
        lines.append("")
        lines.append("recovery events:")
        for name, count in summary["recovery_events"].items():
            lines.append(f"  {name:<18} {count}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Experiment-artifact reports
# ----------------------------------------------------------------------
def summarise_artifact(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Structured summary of a ``repro.experiment/*`` artifact."""
    profile = payload.get("profile") or {}
    cells = payload.get("cells") or []
    cache = payload.get("cache") or {}
    engine = payload.get("engine") or {}
    summary: Dict[str, Any] = {
        "experiment": payload.get("experiment", "?"),
        "cells": len(cells),
        "cached": cache.get("hits", 0),
        "jobs": cache.get("jobs", 1),
        "cache": {
            "backend": cache.get("backend", ""),
            "hits": cache.get("hits", 0),
            "misses": cache.get("misses", 0),
            "hit_rate": cache.get("hit_rate", 0.0),
        },
        # schema /3 artifacts carry the engine's own accounting
        # (reorder window, stream and cache.backend.* counters);
        # older revisions simply render an empty section
        "engine": {
            "window": engine.get("window", 0),
            "counters": dict(sorted((engine.get("counters") or {}).items())),
        },
        "stage_seconds": dict(sorted((profile.get("timings") or {}).items())),
        "stage_calls": dict(sorted((profile.get("calls") or {}).items())),
        "counters": dict(sorted((profile.get("counters") or {}).items())),
        "slowest_cells": sorted(
            (
                {"key": c.get("key", "?"), "seconds": round(c.get("seconds", 0.0), 3)}
                for c in cells
            ),
            key=lambda item: -item["seconds"],
        )[:5],
    }
    result = payload.get("result")
    if isinstance(result, Mapping) and "rows" in result:
        rows = result["rows"]
        if rows and isinstance(rows[0], Mapping) and "recovery_rate" in rows[0]:
            summary["chaos_rows"] = rows
    return summary


def render_artifact_report(payload: Mapping[str, Any]) -> str:
    """Text report of an experiment artifact."""
    summary = summarise_artifact(payload)
    lines = [
        f"artifact report — {summary['experiment']}",
        "=" * (19 + len(str(summary["experiment"]))),
        "",
        f"cells: {summary['cells']}   cached: {summary['cached']}   "
        f"jobs: {summary['jobs']}",
        "",
        "top stages (aggregated over cells):",
        _top_stages(summary["stage_seconds"], summary["stage_calls"]),
    ]
    if summary["counters"]:
        lines.append("")
        lines.append("counters:")
        width = max(len(n) for n in summary["counters"])
        for name, value in summary["counters"].items():
            lines.append(f"  {name:<{width}}  {value}")
    engine = summary.get("engine") or {}
    if engine.get("counters"):
        lines.append("")
        lines.append(
            f"engine (window {engine.get('window', 0)}, "
            f"backend {summary['cache'].get('backend') or 'off'}):"
        )
        width = max(len(n) for n in engine["counters"])
        for name, value in engine["counters"].items():
            lines.append(f"  {name:<{width}}  {value}")
    if summary["slowest_cells"]:
        lines.append("")
        lines.append("slowest cells:")
        for cell in summary["slowest_cells"]:
            lines.append(f"  {cell['key']:<24} {cell['seconds']:.3f}s")
    chaos_rows = summary.get("chaos_rows")
    if chaos_rows:
        lines.append("")
        lines.append("fault recovery:")
        lines.append(
            _format_rows(
                [
                    [
                        str(r.get("workload", "?")),
                        str(r.get("plan", "?")),
                        str(r.get("policy", "?")),
                        str(r.get("threatened", 0)),
                        str(r.get("recovered", 0)),
                        str(r.get("unrecovered", 0)),
                        f"{100 * float(r.get('recovery_rate', 0.0)):.0f}%",
                    ]
                    for r in chaos_rows
                ],
                ["workload", "plan", "policy", "threat", "recov", "unrec", "rate"],
            )
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Metrics-snapshot reports
# ----------------------------------------------------------------------
def render_metrics_report(payload: Mapping[str, Any]) -> str:
    """Text report of a metrics snapshot."""
    lines = ["metrics report", "==============", ""]
    if payload.get("canonical"):
        lines.insert(2, "(canonical snapshot: wall-clock values omitted)")
        lines.insert(3, "")
    for section in ("counters", "stage_calls", "stage_seconds", "events", "spans"):
        values = payload.get(section)
        if not values:
            continue
        lines.append(f"{section}:")
        width = max(len(str(n)) for n in values)
        for name, value in sorted(values.items()):
            shown = f"{value:.6f}" if isinstance(value, float) else value
            lines.append(f"  {str(name):<{width}}  {shown}")
        lines.append("")
    derived = payload.get("derived")
    if derived:
        lines.append("derived:")
        for name, value in sorted(derived.items()):
            lines.append(f"  {name}: {json.dumps(value, sort_keys=True)}")
    return "\n".join(lines).rstrip()


# ----------------------------------------------------------------------
# Run-event ledger reports
# ----------------------------------------------------------------------
def summarise_ledger(records: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Structured summary of a ``repro.events/1`` record list.

    ``cells`` is the total declared by ``sweep.started``, ``completed``
    the ``cell.completed`` count and ``warm`` the cells served from a
    warm cache (``cell.cached`` + ``cell.resumed``).
    """
    experiments: List[str] = []
    declared = 0
    counts: Dict[str, int] = {}
    for record in records:
        event = str(record.get("event", "?"))
        counts[event] = counts.get(event, 0) + 1
        if event == "sweep.started":
            declared += int(record.get("cells", 0))
            name = str(record.get("experiment", "?"))
            if name not in experiments:
                experiments.append(name)
    return {
        "experiments": experiments,
        "cells": declared,
        "completed": counts.get("cell.completed", 0),
        "warm": counts.get("cell.cached", 0) + counts.get("cell.resumed", 0),
        "events": dict(sorted(counts.items())),
    }


def render_ledger_report(records: Sequence[Mapping[str, Any]]) -> str:
    """Text report of a run-event ledger."""
    summary = summarise_ledger(records)
    title = f"ledger report — {', '.join(summary['experiments']) or '?'}"
    lines = [
        title,
        "=" * len(title),
        "",
        f"cells: {summary['cells']}   completed: {summary['completed']}   "
        f"warm: {summary['warm']}",
        "",
        "events:",
    ]
    width = max(len(n) for n in summary["events"])
    for name, count in summary["events"].items():
        lines.append(f"  {name:<{width}}  {count}")
    return "\n".join(lines)


def render_report(kind: str, payload: Any, as_json: bool = False) -> str:
    """Dispatch to the right renderer; ``as_json`` returns the summary
    as indented JSON instead of text."""
    if kind == "trace":
        if as_json:
            return json.dumps(summarise_trace(payload), indent=2, sort_keys=True)
        return render_trace_report(payload)
    if kind == "artifact":
        if as_json:
            return json.dumps(summarise_artifact(payload), indent=2, sort_keys=True)
        return render_artifact_report(payload)
    if kind == "metrics":
        if as_json:
            return json.dumps(dict(payload), indent=2, sort_keys=True)
        return render_metrics_report(payload)
    if kind == "events":
        if as_json:
            return json.dumps(summarise_ledger(payload), indent=2, sort_keys=True)
        return render_ledger_report(payload)
    raise ReportError(f"unknown report kind {kind!r}")
