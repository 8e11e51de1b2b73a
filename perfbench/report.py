"""Per-layer metrics, run metadata, result records and record diffs."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .spans import LayerTotals, SpanTracer, layer_totals, named

#: Program stages (``repro.obs.metrics.VOCABULARY``) and the outside
#: span that times the same call; the traced run compares their totals.
STAGE_SPANS = {
    "dls": "scheduling.dls",
    "stretch": "scheduling.stretching",
    "executor.replay": "sim.executor.run",
    "batch.sweep": "batch.sweep",
}
#: Largest relative gap allowed between a span total and its stage
#: total (the span also times argument handling around the stage).
STAGE_TOLERANCE = 0.10
#: Gaps below this many seconds are accepted whatever their ratio.
STAGE_FLOOR_S = 0.01


def _ms(seconds: float) -> float:
    return seconds * 1e3


def per_layer_metrics(tracer: SpanTracer, measurement) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from one traced run,
    in raw host time.

    Layers a workload does not reach report zero calls and zero time.
    """
    spans = tracer.spans
    totals = layer_totals(spans)
    extras = measurement.layer_extras
    tasks = extras.get("tasks", 0.0)

    def layer(name: str) -> LayerTotals:
        return totals.get(name, LayerTotals())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    dls = layer("scheduling.dls")
    stretching = layer("scheduling.stretching")
    online = layer("scheduling.online")
    adaptive = layer("adaptive")
    lookups = len(named(spans, "scheduling.stretching.lookup"))
    builds = named(spans, "scheduling.stretching.structure")
    runs = named(spans, "sim.executor.run")
    executor_builds = named(spans, "sim.executor.build")
    sweeps = named(spans, "batch.sweep")
    soa = named(spans, "batch.soa_build")
    engine_runs = named(spans, "experiments.engine.run_spec")
    engine_results = tracer.results.get("experiments.engine.run_spec", [])
    gets = named(spans, "experiments.cache.get")
    puts = named(spans, "experiments.cache.put")

    sweep_busy = sum(s.duration for s in sweeps)
    sweep_results = tracer.results.get("batch.sweep", [])
    swept = sum(n for _, n in sweep_results)
    cells = sum(r[0] for r in engine_results)
    computed = sum(r[1] for r in engine_results)
    compute_s = sum(r[2] for r in engine_results)
    jobs = max((r[3] for r in engine_results), default=1)
    computing_wall = sum(s.duration for s, r in zip(engine_runs, engine_results) if r[1])

    metrics = {
        "ctg.analysis.calls": layer("ctg").calls,
        "ctg.analysis.busy_ms": _ms(layer("ctg").busy),
        "scheduling.dls.calls": dls.calls,
        "scheduling.dls.busy_ms": _ms(dls.busy),
        "scheduling.dls.self_ms": _ms(dls.self_time),
        "scheduling.dls.us_per_task": ratio(dls.busy * 1e6, dls.calls * tasks),
        "scheduling.stretching.calls": stretching.calls,
        "scheduling.stretching.busy_ms": _ms(stretching.busy),
        "scheduling.stretching.self_ms": _ms(stretching.self_time),
        "scheduling.stretching.pathcache_hit_ratio": ratio(lookups - len(builds), lookups),
        "scheduling.stretching.paths_enumerated": sum(
            tracer.results.get("scheduling.stretching.structure", [])
        ),
        "scheduling.online.calls": online.calls,
        "scheduling.online.busy_ms": _ms(online.busy),
        "scheduling.online.self_ms": _ms(online.self_time),
        "adaptive.observe_calls": adaptive.calls,
        "adaptive.observe_self_ms": _ms(adaptive.self_time),
        "adaptive.reschedule_ratio": extras.get("adaptive.reschedule_ratio", 0.0),
        "adaptive.unchanged_mapping_ratio": extras.get("adaptive.unchanged_mapping_ratio", 0.0),
        "sim.executor.run_calls": len(runs),
        "sim.executor.run_busy_ms": _ms(sum(s.duration for s in runs)),
        "sim.executor.us_per_instance": ratio(sum(s.duration for s in runs) * 1e6, len(runs)),
        "sim.executor.build_calls": len(executor_builds),
        "sim.executor.build_busy_ms": _ms(sum(s.duration for s in executor_builds)),
        "batch.soa_build_ms": _ms(sum(s.duration for s in soa)),
        "batch.sweep_calls": len(sweeps),
        "batch.sweep_busy_ms": _ms(sweep_busy),
        "batch.ns_per_instance_task": ratio(sweep_busy * 1e9, swept * tasks),
        "batch.bytes_computed": sum(b for b, _ in sweep_results),
        "experiments.engine.cells": cells,
        "experiments.engine.computed": computed,
        "experiments.engine.wall_s": sum(s.duration for s in engine_runs),
        "experiments.engine.cell_compute_s": compute_s,
        "experiments.engine.parallel_efficiency": ratio(compute_s, jobs * computing_wall),
        "experiments.engine.hit_ratio": ratio(cells - computed, cells),
        "experiments.cache.get_calls": len(gets),
        "experiments.cache.get_busy_ms": _ms(sum(s.duration for s in gets)),
        "experiments.cache.put_calls": len(puts),
        "experiments.cache.put_busy_ms": _ms(sum(s.duration for s in puts)),
        "experiments.cache.bytes_written": sum(tracer.results.get("experiments.cache.put", [])),
        "trace.overhead_ratio": ratio(measurement.traced_s, measurement.untraced_s) - 1.0,
        "trace.unattributed_ms": _ms(layer("bench").self_time),
        "trace.spans": len(spans),
    }
    gaps = stage_gaps(tracer, measurement.stages)
    metrics["trace.max_stage_gap"] = max((abs(g) for g in gaps.values()), default=0.0)
    return {k: float(v) for k, v in metrics.items()}


def stage_gaps(tracer: SpanTracer, stages: Dict[str, float]) -> Dict[str, float]:
    """Relative gap (span total / stage total − 1) per compared stage.

    Only spans of the measured operations count: the program's stage
    profile is not attached during set-up.  A stage whose two totals
    differ by less than ``STAGE_FLOOR_S`` reports a zero gap.  A
    workload that collects no stage profile (the experiment sweep,
    whose cells profile themselves, mostly in pool workers) is not
    compared.
    """
    gaps: Dict[str, float] = {}
    if not stages:
        return gaps
    for stage, span_name in STAGE_SPANS.items():
        span_total = sum(
            s.duration for s in named(tracer.spans, span_name) if s.op != "setup"
        )
        stage_total = stages.get(stage, 0.0)
        if abs(span_total - stage_total) < STAGE_FLOOR_S:
            gaps[stage] = 0.0
        elif stage_total > 0:
            gaps[stage] = span_total / stage_total - 1.0
        else:
            gaps[stage] = float("inf")
    return gaps


def layer_table(tracer: SpanTracer, factor: float) -> Dict[str, Dict[str, float]]:
    """Calls, busy and self milliseconds per layer, scaled to the
    reference machine by ``factor`` (for records and diffs)."""
    return {
        name: {
            "calls": t.calls,
            "busy_ms": _ms(t.busy) * factor,
            "self_ms": _ms(t.self_time) * factor,
        }
        for name, t in sorted(layer_totals(tracer.spans).items())
    }


# ----------------------------------------------------------------------
# Metadata
# ----------------------------------------------------------------------
def source_digest(root: Path) -> str:
    """Digest of every ``src/repro`` Python file (identifies the code
    measured when no git metadata is available)."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root: Path) -> Optional[str]:
    """HEAD of the checkout, or ``None`` when it is not a git work tree
    (git is kept from searching the directories above it)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_meta(root: Path, args, parts) -> Dict[str, object]:
    """What a later reader needs to trace a figure to its run: seed,
    code, versions, machine and each measuring process's speed."""
    import numpy

    from .workloads import Calibrator

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "calibration_reference_ms": Calibrator.REFERENCE_MS,
        "calibration_ms": [Calibrator.REFERENCE_MS / p.factor for p in parts],
        "speed_factors": [p.factor for p in parts],
        "setup_raw_s": [p.setup_s for p in parts],
    }


def write_json(path: Path, payload) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)
    return path


# ----------------------------------------------------------------------
# Diff of two traced records
# ----------------------------------------------------------------------
def diff_layers(a: Dict, b: Dict, top: int = 5) -> List[str]:
    """Lines naming the layers whose self or busy time moved most from
    record ``a`` to record ``b`` (both traced records of one workload)."""
    la, lb = a.get("layers", {}), b.get("layers", {})
    rows = []
    for name in sorted(set(la) | set(lb)):
        x, y = la.get(name, {}), lb.get(name, {})
        d_self = y.get("self_ms", 0.0) - x.get("self_ms", 0.0)
        d_busy = y.get("busy_ms", 0.0) - x.get("busy_ms", 0.0)
        rows.append((abs(d_self), abs(d_busy), name, x, y, d_self, d_busy))
    rows.sort(key=lambda r: (-max(r[0], r[1]), r[2]))
    lines = [f"{'layer':<24} {'self ms':>21} {'d self':>10} {'busy ms':>21} {'d busy':>10} {'calls':>13}"]
    for _, _, name, x, y, d_self, d_busy in rows[:top]:
        lines.append(
            f"{name:<24} {x.get('self_ms', 0.0):>10.1f}>{y.get('self_ms', 0.0):<10.1f}"
            f" {d_self:>+10.1f} {x.get('busy_ms', 0.0):>10.1f}>{y.get('busy_ms', 0.0):<10.1f}"
            f" {d_busy:>+10.1f} {int(x.get('calls', 0)):>6}>{int(y.get('calls', 0)):<6}"
        )
    return lines


def main_diff(argv: Optional[List[str]] = None) -> int:
    """``python3 perfbench/diff.py A B [--top N]``: compare traced records.

    ``A`` and ``B`` are record files or directories of them; records
    are paired by workload.
    """
    import argparse

    parser = argparse.ArgumentParser(prog="perfbench/diff.py", description=main_diff.__doc__)
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--top", type=int, default=5)
    args = parser.parse_args(argv)
    left, right = _load_records(Path(args.a)), _load_records(Path(args.b))
    common = sorted(set(left) & set(right))
    if not common:
        print("no traced records of a common workload", file=sys.stderr)
        return 2
    for workload in common:
        a, b = left[workload], right[workload]
        print(f"== {workload}  (seed {a['meta']['seed']} -> {b['meta']['seed']})")
        for line in diff_layers(a, b, args.top):
            print("  " + line)
    return 0


def _load_records(path: Path) -> Dict[str, Dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records: Dict[str, Dict] = {}
    for file in files:
        record = json.loads(file.read_text())
        if record.get("layers"):
            records[record["meta"]["workload"]] = record
    return records
