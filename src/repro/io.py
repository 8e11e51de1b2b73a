"""JSON (de)serialisation of the core model objects.

A downstream user needs to persist and exchange problem instances —
graphs, platforms, traces and profiled probabilities — without
re-running the generators.  This module defines a stable, versioned
JSON representation:

* :func:`ctg_to_dict` / :func:`ctg_from_dict`
* :func:`platform_to_dict` / :func:`platform_from_dict`
* :func:`save_instance` / :func:`load_instance` — a bundle of one CTG,
  one platform and (optionally) a trace, round-tripping through a file.
* :func:`canonical_json` / :func:`fingerprint` /
  :func:`instance_fingerprint` — stable content hashes over the same
  representation, used as cache keys by the experiment engine.

Pseudo edges are never serialised: they are scheduler artifacts, and a
schedule should be rebuilt from the (deterministic) algorithms rather
than persisted.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from .ctg.graph import CTGError, ConditionalTaskGraph, NodeKind
from .platform.energy import DvfsModel
from .platform.link import Link
from .platform.mpsoc import Platform, PlatformError
from .platform.pe import ProcessingElement
from .sim.vectors import Trace, validate_trace

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Conditional task graphs
# ----------------------------------------------------------------------
def ctg_to_dict(ctg: ConditionalTaskGraph) -> Dict[str, Any]:
    """Serialise a CTG (structure, deadline, profiled probabilities)."""
    tasks = [
        {"name": task, "kind": ctg.kind(task).value} for task in ctg.tasks()
    ]
    edges = []
    for src, dst, data in ctg.edges(include_pseudo=False):
        record: Dict[str, Any] = {
            "src": src,
            "dst": dst,
            "comm_kbytes": data.comm_kbytes,
        }
        if data.condition is not None:
            record["condition"] = data.condition.label
        edges.append(record)
    declared = {
        branch: ctg.outcomes_of(branch) for branch in ctg.branch_nodes()
    }
    return {
        "version": FORMAT_VERSION,
        "name": ctg.name,
        "deadline": ctg.deadline,
        "tasks": tasks,
        "edges": edges,
        "outcomes": declared,
        "default_probabilities": {
            b: dict(dist) for b, dist in ctg.default_probabilities.items()
        },
    }


def ctg_from_dict(payload: Dict[str, Any]) -> ConditionalTaskGraph:
    """Rebuild a CTG from :func:`ctg_to_dict` output (validated)."""
    _check_version(payload)
    ctg = ConditionalTaskGraph(
        name=payload.get("name", "ctg"), deadline=payload.get("deadline", 0.0)
    )
    for task in payload["tasks"]:
        ctg.add_task(task["name"], NodeKind(task.get("kind", "and")))
    for edge in payload["edges"]:
        condition = edge.get("condition")
        if condition is None:
            ctg.add_edge(edge["src"], edge["dst"], comm_kbytes=edge.get("comm_kbytes", 0.0))
        else:
            ctg.add_conditional_edge(
                edge["src"], edge["dst"], condition, comm_kbytes=edge.get("comm_kbytes", 0.0)
            )
    for branch, labels in payload.get("outcomes", {}).items():
        ctg.declare_outcomes(branch, labels)
    ctg.default_probabilities = {
        branch: dict(dist)
        for branch, dist in payload.get("default_probabilities", {}).items()
    }
    ctg.validate()
    return ctg


# ----------------------------------------------------------------------
# Platforms
# ----------------------------------------------------------------------
def platform_to_dict(platform: Platform) -> Dict[str, Any]:
    """Serialise a platform (PEs, links, task profiles, DVFS model)."""
    pes = []
    for name in platform.pe_names:
        pe = platform.pe(name)
        record: Dict[str, Any] = {"name": pe.name, "min_speed": pe.min_speed}
        if pe.speed_levels is not None:
            record["speed_levels"] = list(pe.speed_levels)
        pes.append(record)
    links = []
    seen = set()
    for a in platform.pe_names:
        for b in platform.pe_names:
            if a >= b or not platform.has_link(a, b):
                continue
            link = platform.link(a, b)
            if link.key in seen:
                continue
            seen.add(link.key)
            links.append(
                {
                    "a": link.a,
                    "b": link.b,
                    "bandwidth": link.bandwidth,
                    "energy_per_kbyte": link.energy_per_kbyte,
                }
            )
    profiles = [
        {"task": task, "pe": pe, "wcet": wcet, "energy": energy}
        for task, pe, wcet, energy in platform.profiles()
    ]
    return {
        "version": FORMAT_VERSION,
        "dvfs_exponent": platform.dvfs.exponent,
        "pes": pes,
        "links": links,
        "profiles": profiles,
    }


def platform_from_dict(payload: Dict[str, Any]) -> Platform:
    """Rebuild a platform from :func:`platform_to_dict` output."""
    _check_version(payload)
    pes = [
        ProcessingElement(
            name=record["name"],
            min_speed=record.get("min_speed", 0.25),
            speed_levels=tuple(record["speed_levels"])
            if "speed_levels" in record
            else None,
        )
        for record in payload["pes"]
    ]
    platform = Platform(pes, dvfs=DvfsModel(exponent=payload.get("dvfs_exponent", 2.0)))
    for record in payload.get("links", []):
        platform.add_link(
            Link(
                a=record["a"],
                b=record["b"],
                bandwidth=record["bandwidth"],
                energy_per_kbyte=record["energy_per_kbyte"],
            )
        )
    for record in payload["profiles"]:
        platform.set_task_profile(
            record["task"], record["pe"], wcet=record["wcet"], energy=record["energy"]
        )
    return platform


# ----------------------------------------------------------------------
# Instance bundles
# ----------------------------------------------------------------------
def save_instance(
    path: Union[str, Path],
    ctg: ConditionalTaskGraph,
    platform: Platform,
    trace: Optional[Trace] = None,
) -> None:
    """Write a problem instance (graph + platform [+ trace]) to a file."""
    bundle: Dict[str, Any] = {
        "version": FORMAT_VERSION,
        "ctg": ctg_to_dict(ctg),
        "platform": platform_to_dict(platform),
    }
    if trace is not None:
        validate_trace(ctg, trace)
        bundle["trace"] = [dict(vector) for vector in trace]
    Path(path).write_text(json.dumps(bundle, indent=2, sort_keys=True))


def load_instance(
    path: Union[str, Path],
) -> tuple:
    """Read a problem instance; returns ``(ctg, platform, trace_or_None)``.

    The platform is checked against the graph's task set and a shipped
    trace against the graph's branch structure.  A missing required key
    or a wrong-typed field or section raises
    :class:`~repro.ctg.graph.CTGError` (the instance or its graph) or
    :class:`~repro.platform.mpsoc.PlatformError` (platform) naming it; a
    trace that is not a list of objects raises :class:`ValueError`.
    """
    bundle = json.loads(Path(path).read_text())
    if not isinstance(bundle, dict):
        raise CTGError("instance: not a JSON object")
    _check_version(bundle)
    ctg = _load_section(bundle, "ctg", ctg_from_dict, CTGError)
    platform = _load_section(bundle, "platform", platform_from_dict, PlatformError)
    platform.validate_for(ctg.tasks())
    trace = bundle.get("trace")
    if trace is not None:
        if not isinstance(trace, list) or not all(isinstance(v, dict) for v in trace):
            raise ValueError("trace: not a JSON list of objects")
        validate_trace(ctg, trace)
    return ctg, platform, trace


def _load_section(
    bundle: Dict[str, Any], key: str, parse: Callable[[Any], Any], error: type
) -> Any:
    """``parse(bundle[key])``, with a missing key or a wrong-typed field
    raised as ``error`` naming it."""
    if key not in bundle:
        raise error(f"missing required key {key!r}")
    if not isinstance(bundle[key], dict):
        raise error(f"{key}: not a JSON object")
    try:
        return parse(bundle[key])
    except KeyError as exc:
        raise error(f"{key}: missing required key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise error(f"{key}: wrong-typed field: {exc}") from None


# ----------------------------------------------------------------------
# Content fingerprints
# ----------------------------------------------------------------------
def canonical_json(payload: Any) -> str:
    """A canonical JSON rendering: sorted keys, no whitespace, tuples as
    lists.  Equal payloads (up to tuple/list) render identically, so the
    rendering is a stable hashing substrate."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_coerce_json
    )


def _coerce_json(value: Any) -> Any:
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, Path):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not fingerprintable")


def fingerprint(payload: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json` — the content-address
    the experiment cache keys cells by."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def instance_fingerprint(ctg: ConditionalTaskGraph, platform: Platform) -> str:
    """Content hash of one (CTG, platform) problem instance.

    Built on the serialised forms, so any change that survives a
    save/load round-trip — structure, deadline, probabilities, WCET or
    energy tables, links, DVFS exponent — changes the fingerprint, and
    cosmetic in-memory differences do not.
    """
    return fingerprint(
        {"ctg": ctg_to_dict(ctg), "platform": platform_to_dict(platform)}
    )


def _check_version(payload: Dict[str, Any]) -> None:
    version = payload.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise CTGError(
            f"unsupported format version {version} (this build reads "
            f"{FORMAT_VERSION})"
        )
