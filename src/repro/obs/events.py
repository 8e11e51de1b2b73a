"""The run-event ledger: a typed, drift-tested run telemetry stream.

An experiment sweep is resumable and streams its cells, but its
artifact only records the end state.  This module gives every run an
**append-only event ledger** — one JSON object per line in an
``events.jsonl`` file next to the artifact — that the engine and the
CLI write through one declared vocabulary:

* :data:`EVENTS` — one :class:`EventSpec` per event the engine emits
  (sweep lifecycle, per-cell stream progress, fault-recovery
  escalations), schema :data:`EVENTS_SCHEMA`;
* :class:`EventLedger` — the thread-safe writer: validates names and
  fields against the declaration, write-through to the JSONL file;
* :func:`read_ledger` / :func:`canonical_records` /
  :func:`canonical_ledger` — the reader and the canonicalisation that
  CI ``cmp``\\ s: wall-clock and completion-order data are confined to
  the per-record ``meta`` object and to events *declared*
  non-canonical, so the canonicalised ledger is byte-identical across
  ``--jobs`` values, cache temperature and interrupted-then-resumed runs
  (the same discipline as the artifact ``timing`` split, PR 6);
* :func:`events_table` — the rendered vocabulary table embedded in
  ``docs/observability.md`` and drift-tested like the metric table.

Canonical events carry only deterministic fields (cell keys,
fingerprints, fault counters replayed from cached profiles);
everything scheduling-dependent — submission order, cache temperature,
wall-clock — is either a non-canonical event or lives in ``meta`` and
is stripped by canonicalisation.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from threading import Lock
from typing import Any, Dict, IO, List, Optional, Sequence, Tuple, Union

#: Ledger schema identifier; rev on incompatible record-layout changes.
EVENTS_SCHEMA = "repro.events/1"


class EventError(ValueError):
    """An undeclared event name or a record violating its declaration."""


@dataclass(frozen=True)
class EventSpec:
    """Declaration of one ledger event.

    ``fields`` are the *canonical* fields: required on every emission,
    deterministic across ``--jobs``/cache temperature/resume, and the only
    payload that survives canonicalisation.  Any extra keyword passed
    to :meth:`EventLedger.emit` lands in the record's non-canonical
    ``meta`` object instead.
    """

    name: str
    canonical: bool
    fields: Tuple[str, ...]
    description: str


def _ev(name: str, canonical: bool, fields: Tuple[str, ...], description: str) -> EventSpec:
    return EventSpec(name=name, canonical=canonical, fields=fields, description=description)


#: The declared event vocabulary — every name an :class:`EventLedger`
#: accepts, in emission-pipeline order (the rendering order of
#: :func:`events_table`).
EVENTS: Tuple[EventSpec, ...] = (
    _ev("ledger.opened", True, ("schema",), "ledger header: the schema of this event stream"),
    _ev("sweep.started", True, ("experiment", "cells"), "one engine run began (cell count declared up front)"),
    _ev("cell.submitted", False, ("key",), "cell dispatched to the worker pool (submission order)"),
    _ev("cell.cached", False, ("key",), "cell served from a warm cache entry"),
    _ev("cell.resumed", False, ("key",), "warm cell skipped under ``--resume``"),
    _ev("cell.flushed", False, ("key",), "computed cell streamed out of the reorder buffer"),
    _ev("cell.completed", True, ("key", "fingerprint"), "cell final in declaration order, however it was produced"),
    _ev("cell.recovery", True, ("key", "injected", "threatened", "escalations"), "fault/recovery escalation counts replayed from a cell's profile"),
    _ev("sweep.finished", True, ("experiment", "cells"), "the engine run reduced and returned"),
)

#: Name → spec lookup for validation and canonicalisation.
EVENT_SPECS: Dict[str, EventSpec] = {spec.name: spec for spec in EVENTS}


def event_names() -> Tuple[str, ...]:
    """Every declared event name, in declaration order."""
    return tuple(spec.name for spec in EVENTS)


def canonical_event_names() -> Tuple[str, ...]:
    """The subset of names that survive canonicalisation."""
    return tuple(spec.name for spec in EVENTS if spec.canonical)


def events_table() -> str:
    """The event vocabulary table, generated from :data:`EVENTS`.

    ``docs/observability.md`` embeds exactly this text; the drift test
    re-renders it and fails on any divergence — edit the declaration,
    re-render, never the table text.
    """
    rows = [
        (f"``{spec.name}``", "yes" if spec.canonical else "no", spec.description)
        for spec in EVENTS
    ]
    widths = [max(len(r[i]) for r in rows + [("", "canonical", "")]) for i in range(2)]
    bar = f"{'=' * widths[0]}  {'=' * widths[1]}  {'=' * 56}"
    lines = [bar, f"{'event':<{widths[0]}}  {'canonical':<{widths[1]}}  description", bar]
    for name, canonical, description in rows:
        lines.append(f"{name:<{widths[0]}}  {canonical:<{widths[1]}}  {description}")
    lines.append(bar)
    return "\n".join(lines)


class EventLedger:
    """Thread-safe, validated, write-through run-event stream.

    Parameters
    ----------
    path:
        JSONL file to append records to (created/truncated — one run
        owns one ledger, so a resumed run rewrites the partial ledger
        of the interrupted one and canonicalises identically to an
        uninterrupted sweep).  ``None`` keeps the ledger in memory
        only, on :attr:`records`; a file-backed ledger does not buffer
        its records (a million-cell sweep must not hold its own
        history).

    Every emission validates the event name and its canonical fields
    against :data:`EVENTS`; extra keywords land in the record's
    ``meta`` object next to the wall-clock offset, which is the *only*
    place wall-clock ever appears.
    """

    def __init__(self, path: Union[None, str, Path] = None) -> None:
        self.path = Path(path) if path is not None else None
        self.records: List[Dict[str, Any]] = []
        self.counts: Dict[str, int] = {}
        self._lock = Lock()
        self._seq = 0
        self._file: Optional[IO[str]] = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("w", encoding="utf-8")
        self._opened = time.time()
        self.emit("ledger.opened", schema=EVENTS_SCHEMA)

    # -- emission --------------------------------------------------------
    def emit(self, name: str, **fields: Any) -> Dict[str, Any]:
        """Append one validated record; returns it."""
        spec = EVENT_SPECS.get(name)
        if spec is None:
            known = ", ".join(event_names())
            raise EventError(f"undeclared event {name!r} (known: {known})")
        missing = [f for f in spec.fields if f not in fields]
        if missing:
            raise EventError(
                f"event {name!r} missing required field(s): {', '.join(missing)}"
            )
        canonical = {f: fields[f] for f in spec.fields}
        meta = {k: v for k, v in fields.items() if k not in spec.fields}
        with self._lock:
            record: Dict[str, Any] = {
                "event": name,
                "seq": self._seq,
                **canonical,
                "meta": {"wall": round(time.time() - self._opened, 6), **meta},
            }
            self._seq += 1
            self.counts[name] = self.counts.get(name, 0) + 1
            if self._file is not None:
                self._file.write(json.dumps(record, sort_keys=True) + "\n")
                self._file.flush()
            if self.path is None:
                self.records.append(record)
        return record

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Flush and close the backing file (idempotent)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "EventLedger":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


def as_ledger(
    events: Union[None, str, Path, EventLedger],
) -> Tuple[Optional[EventLedger], bool]:
    """Normalise an ``events=`` argument to ``(ledger, owned)``.

    A path creates (and the caller must close) a fresh file-backed
    ledger; an existing ledger passes through un-owned; ``None`` stays
    ``None``.
    """
    if events is None:
        return None, False
    if isinstance(events, EventLedger):
        return events, False
    return EventLedger(path=events), True


# ----------------------------------------------------------------------
# Reading and canonicalisation
# ----------------------------------------------------------------------
def read_ledger(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse an ``events.jsonl`` file, validating the schema header."""
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise EventError(f"{path}:{lineno}: not JSON: {exc}") from exc
        if not isinstance(record, dict) or "event" not in record:
            raise EventError(f"{path}:{lineno}: not an event record")
        records.append(record)
    if not records:
        raise EventError(f"{path}: empty ledger")
    head = records[0]
    if head["event"] != "ledger.opened" or head.get("schema") != EVENTS_SCHEMA:
        raise EventError(
            f"{path}: expected a {EVENTS_SCHEMA!r} ledger header, "
            f"got {head.get('event')!r} (schema {head.get('schema')!r})"
        )
    return records


def canonical_records(records: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The deterministic view of a ledger.

    Keeps only events declared canonical, strips every ``meta`` object,
    restricts each record to its declared fields and renumbers ``seq``
    — the result depends only on the spec and the cells' deterministic
    outputs, never on jobs, cache temperature, completion order or
    wall-clock.
    """
    out: List[Dict[str, Any]] = []
    for record in records:
        spec = EVENT_SPECS.get(record.get("event", ""))
        if spec is None or not spec.canonical:
            continue
        out.append(
            {
                "event": spec.name,
                "seq": len(out),
                **{f: record.get(f) for f in spec.fields},
            }
        )
    return out


def canonical_ledger(records: Sequence[Dict[str, Any]]) -> str:
    """Canonical JSONL text of a ledger — the bytes CI ``cmp``\\ s."""
    # imported here, not at module level: repro.io transitively imports
    # repro.obs (sim.executor uses the tracer), so a top-level import
    # would be circular
    from ..io import canonical_json

    lines = [canonical_json(record) for record in canonical_records(records)]
    return "\n".join(lines) + "\n"


def render_event(record: Dict[str, Any]) -> str:
    """One human-readable ``repro tail`` line for a record."""
    meta = record.get("meta") or {}
    wall = meta.get("wall")
    prefix = f"+{wall:9.3f}s" if isinstance(wall, (int, float)) else " " * 10
    spec = EVENT_SPECS.get(record.get("event", ""))
    fields = spec.fields if spec is not None else ()
    parts = [f"{k}={record[k]}" for k in fields if k in record]
    parts += [f"{k}={v}" for k, v in sorted(meta.items()) if k != "wall"]
    return f"{prefix}  {record.get('event', '?'):<16} {' '.join(parts)}".rstrip()


__all__ = [
    "EVENTS",
    "EVENTS_SCHEMA",
    "EVENT_SPECS",
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
]
