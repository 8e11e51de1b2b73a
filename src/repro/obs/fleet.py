"""Merged multi-shard fleet reports and cross-run diffs.

One sweep sharded over machines (or simply re-run over time) leaves a
trail of files: experiment artifacts, ``events.jsonl`` ledgers, Chrome
traces and canonical metrics snapshots.  ``repro report`` hands any
mix of them (files or whole shard directories) to :func:`merge_fleet`,
which folds them into **one** ``repro.fleet/2`` payload:

* cross-shard cell/cache accounting — totals are exact sums of the
  shards, which is what the CI smoke job asserts;
* ledger event counts summed across shards;
* merged top stages and counters from artifact profiles, metrics
  snapshots and traces alike;
* the fault-recovery table concatenated across shards.

:func:`diff_payloads` is the two-run comparison behind
``repro report --diff A B``: cell/cache-hit-rate deltas plus every
counter and stage timing that moved, rendered by :func:`render_diff`.

Everything consumes *serialised* files, so a fleet report can be
assembled on a machine that ran none of the shards.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

from .events import EVENTS_SCHEMA, EventError, read_ledger
from .report import (
    ReportError,
    _format_rows,
    _top_stages,
    detect_kind,
    summarise_artifact,
    summarise_trace,
)

#: Fleet-report schema identifier; rev on incompatible layout changes.
#: /2: dropped the per-worker ``workers`` section.
FLEET_SCHEMA = "repro.fleet/2"

#: File suffixes :func:`expand_inputs` collects from shard directories.
_SHARD_SUFFIXES = (".json", ".jsonl")


def expand_inputs(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Flatten files-or-directories into a sorted, de-duplicated file list.

    A directory contributes every ``*.json`` / ``*.jsonl`` directly
    inside it (sorted by name, so shard order is stable across
    machines); files pass through as given.
    """
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(
                p
                for p in sorted(path.iterdir())
                if p.is_file() and p.suffix in _SHARD_SUFFIXES
            )
        else:
            out.append(path)
    seen: set = set()
    unique: List[Path] = []
    for path in out:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def classify_file(path: Union[str, Path]) -> Tuple[str, Any]:
    """``(kind, payload)`` for one shard file.

    Kinds are the three ``repro report`` already understands plus
    ``"events"`` for a ``repro.events/1`` JSONL ledger (whose payload
    is the parsed record list).
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        try:
            return "events", read_ledger(path)
        except EventError as exc:
            raise ReportError(
                f"{path}: neither a JSON report file nor a "
                f"{EVENTS_SCHEMA} ledger ({exc})"
            ) from exc
    if (
        isinstance(payload, dict)
        and payload.get("event") == "ledger.opened"
        and payload.get("schema") == EVENTS_SCHEMA
    ):
        # a one-record-per-line ledger whose first line parsed alone
        return "events", read_ledger(path)
    return detect_kind(payload), payload


def _add_into(totals: Dict[str, float], values: Mapping[str, Any]) -> None:
    for name, value in values.items():
        if isinstance(value, (int, float)):
            totals[name] = totals.get(name, 0) + value


def merge_fleet(paths: Sequence[Union[str, Path]]) -> Dict[str, Any]:
    """Fold shard files into one ``repro.fleet/2`` payload."""
    files = expand_inputs(paths)
    if not files:
        raise ReportError("no shard files to merge")
    shards: List[Dict[str, Any]] = []
    cells_total = 0
    cells_cached = 0
    cache_hits = 0
    cache_misses = 0
    backends: List[str] = []
    experiments: List[str] = []
    counters: Dict[str, float] = {}
    engine_counters: Dict[str, float] = {}
    stage_seconds: Dict[str, float] = {}
    stage_calls: Dict[str, float] = {}
    event_counts: Dict[str, float] = {}
    recovery: List[Dict[str, Any]] = []
    for path in files:
        kind, payload = classify_file(path)
        shard: Dict[str, Any] = {"path": str(path), "kind": kind}
        if kind == "artifact":
            summary = summarise_artifact(payload)
            shard["experiment"] = summary["experiment"]
            shard["cells"] = summary["cells"]
            if summary["experiment"] not in experiments:
                experiments.append(summary["experiment"])
            cells_total += summary["cells"]
            cells_cached += summary["cached"]
            cache_hits += summary["cache"]["hits"]
            cache_misses += summary["cache"]["misses"]
            backend = summary["cache"]["backend"]
            if backend and backend not in backends:
                backends.append(backend)
            _add_into(counters, summary["counters"])
            _add_into(engine_counters, summary["engine"]["counters"])
            _add_into(stage_seconds, summary["stage_seconds"])
            _add_into(stage_calls, summary["stage_calls"])
            recovery.extend(summary.get("chaos_rows") or [])
        elif kind == "events":
            for record in payload:
                event = record.get("event", "?")
                event_counts[event] = event_counts.get(event, 0) + 1
                if event == "sweep.started":
                    name = str(record.get("experiment", "?"))
                    if name not in experiments:
                        experiments.append(name)
            shard["events"] = len(payload)
        elif kind == "trace":
            summary = summarise_trace(payload)
            shard["spans"] = sum(summary["tracks"].values())
            _add_into(
                stage_seconds,
                {k: v / 1e3 for k, v in summary["stage_ms"].items()},
            )
            _add_into(stage_calls, summary["stage_calls"])
        elif kind == "metrics":
            _add_into(counters, payload.get("counters") or {})
            _add_into(stage_seconds, payload.get("stage_seconds") or {})
            _add_into(stage_calls, payload.get("stage_calls") or {})
        shards.append(shard)
    return {
        "schema": FLEET_SCHEMA,
        "shards": shards,
        "experiments": experiments,
        "cells": {
            "total": cells_total,
            "cached": cells_cached,
            "computed": cells_total - cells_cached,
        },
        "cache": {
            "hits": cache_hits,
            "misses": cache_misses,
            "hit_rate": (
                cache_hits / (cache_hits + cache_misses)
                if cache_hits + cache_misses
                else 0.0
            ),
            "backends": backends,
        },
        "counters": {k: counters[k] for k in sorted(counters)},
        "engine": {"counters": {k: engine_counters[k] for k in sorted(engine_counters)}},
        "stage_seconds": {k: round(stage_seconds[k], 9) for k in sorted(stage_seconds)},
        "stage_calls": {k: stage_calls[k] for k in sorted(stage_calls)},
        "events": {k: int(event_counts[k]) for k in sorted(event_counts)},
        "recovery": recovery,
    }


#: Keys every ``repro.fleet/2`` payload must carry.
_REQUIRED_FLEET_KEYS = (
    "schema",
    "shards",
    "experiments",
    "cells",
    "cache",
    "counters",
    "engine",
    "stage_seconds",
    "stage_calls",
    "events",
    "recovery",
)


def validate_fleet_report(payload: Any) -> List[str]:
    """Schema problems of a merged fleet payload (empty when valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["fleet report must be a JSON object"]
    if payload.get("schema") != FLEET_SCHEMA:
        problems.append(
            f"schema is {payload.get('schema')!r}, expected {FLEET_SCHEMA!r}"
        )
    for key in _REQUIRED_FLEET_KEYS:
        if key not in payload:
            problems.append(f"missing key {key!r}")
    cells = payload.get("cells")
    if isinstance(cells, dict):
        for key in ("total", "cached", "computed"):
            if key not in cells:
                problems.append(f"missing cells key {key!r}")
        if (
            all(k in cells for k in ("total", "cached", "computed"))
            and cells["cached"] + cells["computed"] != cells["total"]
        ):
            problems.append("cells.cached + cells.computed != cells.total")
    elif "cells" in payload:
        problems.append("'cells' must be an object")
    return problems


def render_fleet_report(payload: Mapping[str, Any]) -> str:
    """Text rendering of a merged fleet payload."""
    lines: List[str] = ["fleet report", "============", ""]
    lines.append(
        f"shards: {len(payload['shards'])}   "
        f"experiments: {', '.join(payload['experiments']) or '?'}"
    )
    cells = payload["cells"]
    cache = payload["cache"]
    lines.append(
        f"cells: {cells['total']}   cached: {cells['cached']}   "
        f"computed: {cells['computed']}   "
        f"hit rate: {100 * cache['hit_rate']:.0f}%"
    )
    if cache["backends"]:
        lines.append(f"backends: {', '.join(cache['backends'])}")
    lines.append("")
    lines.append("shards:")
    rows = [
        [
            shard["path"],
            shard["kind"],
            str(shard.get("experiment", shard.get("events", shard.get("spans", "")))),
        ]
        for shard in payload["shards"]
    ]
    lines.append(_format_rows(rows, ["path", "kind", "detail"]))
    if payload["stage_seconds"]:
        lines.append("")
        lines.append("top stages (summed across shards):")
        lines.append(_top_stages(payload["stage_seconds"], payload["stage_calls"]))
    if payload["counters"]:
        lines.append("")
        lines.append("counters (summed):")
        width = max(len(n) for n in payload["counters"])
        for name, value in payload["counters"].items():
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"  {name:<{width}}  {shown}")
    if payload["events"]:
        lines.append("")
        lines.append("ledger events:")
        width = max(len(n) for n in payload["events"])
        for name, value in payload["events"].items():
            lines.append(f"  {name:<{width}}  {value}")
    if payload["recovery"]:
        lines.append("")
        lines.append("fault recovery (all shards):")
        lines.append(
            _format_rows(
                [
                    [
                        str(r.get("workload", "?")),
                        str(r.get("plan", "?")),
                        str(r.get("policy", "?")),
                        str(r.get("threatened", 0)),
                        str(r.get("recovered", 0)),
                        f"{100 * float(r.get('recovery_rate', 0.0)):.0f}%",
                    ]
                    for r in payload["recovery"]
                ],
                ["workload", "plan", "policy", "threat", "recov", "rate"],
            )
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Cross-run diff (``repro report --diff A B``)
# ----------------------------------------------------------------------
def _diff_numbers(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> Dict[str, Dict[str, float]]:
    """``{name: {a, b, delta}}`` for every numeric key that moved."""
    out: Dict[str, Dict[str, float]] = {}
    for name in sorted(set(a) | set(b)):
        va, vb = float(a.get(name, 0) or 0), float(b.get(name, 0) or 0)
        if va != vb:
            out[name] = {"a": va, "b": vb, "delta": vb - va}
    return out


def diff_payloads(
    kind_a: str, a: Mapping[str, Any], kind_b: str, b: Mapping[str, Any]
) -> Dict[str, Any]:
    """Structured comparison of two report files (same-kind pairs).

    Artifacts compare cell/cache accounting, counters (cell aggregate
    and engine alike) and stage timings; metrics snapshots compare
    their counters/timings directly.
    """
    if kind_a != kind_b:
        raise ReportError(
            f"--diff needs two files of the same kind, got {kind_a!r} and {kind_b!r}"
        )
    if kind_a == "artifact":
        sa, sb = summarise_artifact(a), summarise_artifact(b)
        return {
            "schema": "repro.fleet-diff/1",
            "kind": "artifact",
            "experiments": [sa["experiment"], sb["experiment"]],
            "cells": {"a": sa["cells"], "b": sb["cells"]},
            "cache_hit_rate": {
                "a": sa["cache"]["hit_rate"],
                "b": sb["cache"]["hit_rate"],
                "delta": sb["cache"]["hit_rate"] - sa["cache"]["hit_rate"],
            },
            "counters": _diff_numbers(sa["counters"], sb["counters"]),
            "engine_counters": _diff_numbers(
                sa["engine"]["counters"], sb["engine"]["counters"]
            ),
            "stage_seconds": _diff_numbers(sa["stage_seconds"], sb["stage_seconds"]),
        }
    if kind_a == "metrics":
        return {
            "schema": "repro.fleet-diff/1",
            "kind": "metrics",
            "counters": _diff_numbers(
                a.get("counters") or {}, b.get("counters") or {}
            ),
            "stage_seconds": _diff_numbers(
                a.get("stage_seconds") or {}, b.get("stage_seconds") or {}
            ),
        }
    raise ReportError(f"--diff does not support kind {kind_a!r}")


def render_diff(payload: Mapping[str, Any]) -> str:
    """Text rendering of a :func:`diff_payloads` result."""
    lines: List[str] = ["report diff (A → B)", "===================", ""]
    if payload.get("kind") == "artifact":
        exp = payload["experiments"]
        cells = payload["cells"]
        hit = payload["cache_hit_rate"]
        lines.append(f"experiments: {exp[0]} → {exp[1]}")
        lines.append(f"cells: {cells['a']} → {cells['b']}")
        lines.append(
            f"cache hit rate: {100 * hit['a']:.0f}% → {100 * hit['b']:.0f}% "
            f"({100 * hit['delta']:+.0f} pp)"
        )
    sections = [
        ("counters", "counters", "{:+.0f}"),
        ("engine_counters", "engine counters", "{:+.0f}"),
        ("stage_seconds", "stage seconds", "{:+.6f}"),
    ]
    for key, title, fmt in sections:
        moved = payload.get(key)
        if not moved:
            continue
        lines.append("")
        lines.append(f"{title}:")
        lines.append(
            _format_rows(
                [
                    [name, str(d["a"]), str(d["b"]), fmt.format(d["delta"])]
                    for name, d in moved.items()
                ],
                ["name", "a", "b", "delta"],
            )
        )
    if len(lines) == 3:
        lines.append("(no differences)")
    return "\n".join(lines)


__all__ = [
    "FLEET_SCHEMA",
    "classify_file",
    "diff_payloads",
    "expand_inputs",
    "merge_fleet",
    "render_diff",
    "render_fleet_report",
    "validate_fleet_report",
]
