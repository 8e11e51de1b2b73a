"""The run-event ledger: a typed, drift-tested run telemetry stream.

An experiment sweep is resumable and streams its cells, but its
artifact only records the end state.  This module gives every run an
**append-only event ledger** — one JSON object per line in an
``events.jsonl`` file next to the artifact — that the engine and the
CLI write through the one declared vocabulary,
:data:`repro.obs.metrics.VOCABULARY`:

* the ``ledger`` rows of :data:`~repro.obs.metrics.VOCABULARY` declare
  every event the engine emits (sweep lifecycle, per-cell stream
  progress, fault-recovery escalations), its required fields and
  whether it survives canonicalisation; schema :data:`EVENTS_SCHEMA`;
* :class:`EventLedger` — the thread-safe writer: validates names and
  fields against the declaration, write-through to the JSONL file;
  :data:`NULL_LEDGER` is the shared do-nothing ledger of runs given
  none (:func:`as_ledger`), like ``NULL_TRACER`` and ``NULL_PROFILER``;
* :func:`read_ledger` / :func:`canonical_records` /
  :func:`canonical_ledger` — the reader and the canonicalisation that
  CI ``cmp``\\ s: wall-clock and completion-order data are confined to
  the per-record ``meta`` object and to events *declared*
  non-canonical, so the canonicalised ledger is byte-identical across
  ``--jobs`` values, cache temperature and interrupted-then-resumed runs
  (the same discipline as the artifact ``timing`` split).

Canonical events carry only deterministic fields (cell keys,
fingerprints, fault counters replayed from cached profiles);
everything scheduling-dependent — submission order, cache temperature,
wall-clock — is either a non-canonical event or lives in ``meta`` and
is stripped by canonicalisation.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from threading import Lock
from typing import Any, Dict, IO, List, Optional, Sequence, Tuple, Union

from .metrics import VOCABULARY, MetricKind, MetricSpec

#: Ledger schema identifier; rev on incompatible record-layout changes.
EVENTS_SCHEMA = "repro.events/1"


class EventError(ValueError):
    """An undeclared event name or a record violating its declaration."""


#: Name → spec of every declared ledger record.
_LEDGER: Dict[str, MetricSpec] = {
    spec.name: spec for spec in VOCABULARY if spec.kind is MetricKind.LEDGER
}


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
    against the ``ledger`` rows of :data:`~repro.obs.metrics.VOCABULARY`;
    extra keywords land in the record's ``meta`` object next to the
    wall-clock offset, which is the *only* place wall-clock ever
    appears.
    """

    def __init__(self, path: Union[None, str, Path] = None) -> None:
        self.path = Path(path) if path is not None else None
        self.records: List[Dict[str, Any]] = []
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
        spec = _LEDGER.get(name)
        if spec is None:
            known = ", ".join(_LEDGER)
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


class _NullLedger(EventLedger):
    """Shared no-op ledger for runs given none: records nothing.

    Call sites emit unconditionally, so the engine carries no
    ``if ledger is not None`` branching.
    """

    def emit(self, name: str, **fields: Any) -> Dict[str, Any]:  # noqa: ARG002
        return {}


#: Shared do-nothing ledger; see :func:`as_ledger`.
NULL_LEDGER: EventLedger = _NullLedger()


def as_ledger(
    events: Union[None, str, Path, EventLedger],
) -> Tuple[EventLedger, bool]:
    """Normalise an ``events=`` argument to ``(ledger, owned)``.

    A path creates (and the caller must close) a fresh file-backed
    ledger; an existing ledger passes through un-owned; ``None`` is
    the shared :data:`NULL_LEDGER`.
    """
    if events is None:
        return NULL_LEDGER, False
    if isinstance(events, EventLedger):
        return events, False
    return EventLedger(path=events), True


# ----------------------------------------------------------------------
# Reading and canonicalisation
# ----------------------------------------------------------------------
def read_ledger(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse an ``events.jsonl`` file, validating the schema header."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise EventError(f"{path}: not UTF-8 text ({exc})") from exc
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
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
        spec = _LEDGER.get(record.get("event", ""))
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
    spec = _LEDGER.get(record.get("event", ""))
    fields = spec.fields if spec is not None else ()
    parts = [f"{k}={record[k]}" for k in fields if k in record]
    parts += [f"{k}={v}" for k, v in sorted(meta.items()) if k != "wall"]
    return f"{prefix}  {record.get('event', '?'):<16} {' '.join(parts)}".rstrip()


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
]
