"""Exporters: Chrome trace-event JSON, canonical metrics snapshots,
plain-text timelines.

Three consumers, three formats:

* **Perfetto / ``chrome://tracing``** — :func:`chrome_trace` renders a
  tracer as the Chrome trace-event format (JSON object form), one
  *pid* per track: the ``runtime`` wall-clock timeline (scheduling
  stages, controller events), one per processing element
  (``pe:<name>`` — task executions at their chosen DVFS speed), one
  per link (``link:<a>-<b>`` — cross-PE transfers) and one for the
  experiment engine (``engine`` — one span per cell).  Load the file
  with *Open trace file* in https://ui.perfetto.dev.  Wall-clock
  timestamps are exported in real microseconds; simulated schedule
  time is exported at 1 time-unit = 1 µs·10³ (i.e. read sim
  milliseconds as trace milliseconds) — the two clock domains share
  the axis but only intra-domain distances are meaningful.
* **CI byte-comparison** — :func:`metrics_snapshot` with
  ``canonical=True`` produces a wall-clock-free snapshot (counters,
  stage call counts, span/event occurrence counts, deterministic
  derived metrics) rendered through :func:`repro.io.canonical_json`,
  so two runs of the same seeded workload — at any ``--jobs`` value —
  write byte-identical files that CI can ``cmp``, exactly like the
  chaos artifacts.
* **Humans** — :func:`render_timeline` prints the nested span tree and
  the event stream as text.

:func:`validate_chrome_trace` is the schema check the obs-smoke CI job
and the property tests share.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from .metrics import WALL_CLOCK_NAMES, warn_undeclared
from .trace import SIM_CATEGORIES, WALL_TRACK, Tracer

#: Schema tag of metrics snapshots.
METRICS_SCHEMA = "repro.metrics/1"

#: Exported microseconds per wall-clock second.
_WALL_SCALE = 1e6
#: Exported microseconds per simulated schedule time unit.
_SIM_SCALE = 1e3


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def _track_pids(tracer: Tracer) -> Dict[str, int]:
    """Stable track → pid assignment: ``runtime`` first, rest sorted."""
    tracks = {s.track for s in tracer.spans} | {e.track for e in tracer.events}
    ordered = [WALL_TRACK] if WALL_TRACK in tracks else []
    ordered += sorted(tracks - {WALL_TRACK})
    return {track: pid for pid, track in enumerate(ordered, start=1)}


def _scale(ts: float, category: str) -> float:
    return ts * (_SIM_SCALE if category in SIM_CATEGORIES else _WALL_SCALE)


def chrome_trace(tracer: Tracer, run_name: str = "repro") -> Dict[str, Any]:
    """Render a tracer as a Chrome trace-event JSON object.

    Every span becomes a complete event (``ph:"X"`` with ``ts``/
    ``dur``), every point event an instant event (``ph:"i"``), plus
    ``process_name``/``process_sort_index`` metadata per track.
    """
    pids = _track_pids(tracer)
    records: List[Dict[str, Any]] = []
    for track, pid in pids.items():
        records.append(
            {
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": track},
            }
        )
        records.append(
            {
                "ph": "M", "name": "process_sort_index", "pid": pid, "tid": 0,
                "args": {"sort_index": pid},
            }
        )
    for span in tracer.spans:
        record: Dict[str, Any] = {
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": _scale(span.start, span.category),
            "dur": _scale(span.duration, span.category),
            "pid": pids[span.track],
            "tid": 1,
        }
        if span.attrs:
            record["args"] = dict(span.attrs)
        records.append(record)
    for event in tracer.events:
        record = {
            "name": event.name,
            "cat": event.category,
            "ph": "i",
            "s": "t",
            "ts": _scale(event.ts, event.category),
            "pid": pids[event.track],
            "tid": 1,
        }
        if event.attrs:
            record["args"] = dict(event.attrs)
        records.append(record)
    return {
        "traceEvents": records,
        "displayTimeUnit": "ms",
        "otherData": {"producer": f"repro.obs ({run_name})"},
    }


def validate_chrome_trace(payload: Any) -> List[str]:
    """Schema-check a Chrome trace payload; returns the problems found.

    An empty list means the trace is loadable: a ``traceEvents`` list
    whose records all carry ``name``/``ph``, non-metadata records carry
    a numeric ``ts`` and integer ``pid``/``tid``, and complete
    (``ph:"X"``) records carry a non-negative ``dur``.
    """
    problems: List[str] = []
    if not isinstance(payload, dict) or not isinstance(
        payload.get("traceEvents"), list
    ):
        return ["payload is not a dict with a 'traceEvents' list"]
    for i, record in enumerate(payload["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(record, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(record.get("name"), str) or not record.get("name"):
            problems.append(f"{where}: missing name")
        ph = record.get("ph")
        if not isinstance(ph, str) or not ph:
            problems.append(f"{where}: missing ph")
            continue
        if ph == "M":
            continue
        if not isinstance(record.get("ts"), (int, float)):
            problems.append(f"{where}: missing numeric ts")
        for key in ("pid", "tid"):
            if not isinstance(record.get(key), int):
                problems.append(f"{where}: missing integer {key}")
        if ph == "X":
            dur = record.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: ph 'X' needs non-negative dur")
    return problems


def write_chrome_trace(
    path: Union[str, Path], tracer: Tracer, run_name: str = "repro"
) -> Path:
    """Write :func:`chrome_trace` output to ``path`` (validated)."""
    payload = chrome_trace(tracer, run_name)
    problems = validate_chrome_trace(payload)
    if problems:
        raise ValueError(
            "refusing to write an invalid Chrome trace: " + "; ".join(problems)
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# Metrics snapshots
# ----------------------------------------------------------------------
def metrics_snapshot(
    profile: Any = None,
    tracer: Optional[Tracer] = None,
    derived: Optional[Mapping[str, Any]] = None,
    canonical: bool = False,
    source: str = "",
) -> Dict[str, Any]:
    """One JSON-ready snapshot of everything a run measured.

    Parameters
    ----------
    profile:
        A :class:`~repro.profiling.StageProfiler` (or ``None``) —
        contributes ``counters``, ``stage_calls`` and (non-canonical
        only) ``stage_seconds``.
    tracer:
        Contributes span and event *occurrence counts* (deterministic)
        — never timestamps.
    derived:
        The ``{name: value}`` ``run.*`` metrics of
        :func:`repro.obs.metrics.derive_run_metrics`.
    canonical:
        Drop every wall-clock-derived value so the
        :func:`canonical_json` rendering is byte-stable across runs
        and worker counts.
    source:
        Named in the :class:`UserWarning` raised for stage, counter or
        event names the vocabulary does not declare.
    """
    snapshot: Dict[str, Any] = {
        "schema": METRICS_SCHEMA,
        "canonical": bool(canonical),
    }
    if profile is not None:
        warn_undeclared(
            list(profile.counters) + list(profile.calls),
            source=source or "profile",
        )
        snapshot["counters"] = dict(sorted(profile.counters.items()))
        snapshot["stage_calls"] = dict(sorted(profile.calls.items()))
        if not canonical:
            snapshot["stage_seconds"] = dict(sorted(profile.timings.items()))
    if tracer is not None:
        snapshot["spans"] = tracer.span_counts()
        snapshot["events"] = tracer.event_counts()
        stage_names = {
            s.name for s in tracer.spans if s.category == "stage"
        }
        event_names = {e.name for e in tracer.events}
        warn_undeclared(stage_names | event_names, source=source or "tracer")
    if derived is not None:
        snapshot["derived"] = {
            name: value
            for name, value in derived.items()
            if not (canonical and name in WALL_CLOCK_NAMES)
        }
    return snapshot


def write_metrics_snapshot(path: Union[str, Path], snapshot: Mapping[str, Any]) -> Path:
    """Write a snapshot as canonical JSON (byte-stable for ``cmp``)."""
    # deferred: repro.io imports repro.sim, which imports this package
    from ..io import canonical_json

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(snapshot) + "\n")
    return path


# ----------------------------------------------------------------------
# Plain-text timeline
# ----------------------------------------------------------------------
def _span_depth(tracer: Tracer, index: int) -> int:
    depth = 0
    parent = tracer.spans[index].parent
    while parent >= 0:
        depth += 1
        parent = tracer.spans[parent].parent
    return depth


def render_timeline(tracer: Tracer, limit: int = 200) -> str:
    """Human-readable per-track listing of spans and events.

    Wall-clock timestamps print in milliseconds, simulated timestamps
    in schedule time units; each track section is time-ordered and the
    span tree indents by nesting depth.  ``limit`` bounds the lines per
    track (the executor can emit one span per task per instance).
    """
    by_track: Dict[str, List[str]] = {}
    entries: Dict[str, List[Any]] = {}
    for index, span in enumerate(tracer.spans):
        entries.setdefault(span.track, []).append((span.start, 0, index, span, None))
    for event in tracer.events:
        entries.setdefault(event.track, []).append((event.ts, 1, -1, None, event))
    for track in sorted(entries, key=lambda t: (t != WALL_TRACK, t)):
        lines: List[str] = []
        for start, _kind, index, span, event in sorted(
            entries[track], key=lambda item: (item[0], item[1], item[2])
        ):
            if len(lines) >= limit:
                lines.append(f"  … {len(entries[track]) - limit} more")
                break
            if span is not None:
                sim = span.category in SIM_CATEGORIES
                unit = "tu" if sim else "ms"
                scale = 1.0 if sim else 1e3
                indent = "  " * _span_depth(tracer, index)
                lines.append(
                    f"  [{start * scale:10.3f} {unit}] {indent}{span.name}"
                    f"  ({span.duration * scale:.3f} {unit})"
                )
            else:
                sim = event.category in SIM_CATEGORIES
                unit = "tu" if sim else "ms"
                scale = 1.0 if sim else 1e3
                detail = ""
                if event.attrs:
                    detail = "  " + ", ".join(
                        f"{k}={v}" for k, v in sorted(event.attrs.items())
                    )
                lines.append(
                    f"  [{start * scale:10.3f} {unit}] * {event.name}{detail}"
                )
        by_track[track] = lines
    out: List[str] = []
    for track, lines in by_track.items():
        out.append(f"track {track}:")
        out.extend(lines)
    return "\n".join(out) if out else "(empty trace)"
