"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with no instrumentation installed, in this process and then in
fresh child processes (``SHARES`` in all, each for its share of the
time budget), and pools their timings.  ``--trace 1`` runs every input
untraced and then traced in this process, and reports the per-layer
metrics of the traced half.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every operation passed its
output check.  A full record (sizes, digests, calibration, versions,
per-layer table) is written under ``.perfbench/records/``; traced runs
also write their spans under ``.perfbench/spans/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Processes an untraced run measures in, one after the other.  Each
#: sets the workload up (so set-up is timed this many times) and
#: measures for its share of ``--seconds``.
SHARES = 3


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    parser.add_argument("--out", default=".perfbench", help="record directory, relative to the root")
    # child processes of an untraced run
    parser.add_argument("--share", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child(args, share: int, workdir: Path):
    """Measure share ``share`` in a fresh interpreter."""
    from perfbench.workloads import Measurement

    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "0", "--size", args.size, "--share", str(share), "--workdir", str(workdir),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"share {share} exited {out.returncode}: {out.stderr[-2000:]}")
    return Measurement.from_json(out.stdout.strip().splitlines()[-1])


def _run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    from perfbench.workloads import WORKLOADS

    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size, "--out", args.out,
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {out.returncode})")
            status = 1
            combined["correct"] = False
            continue
        for line in lines[:-1]:
            print(f"{name}: {line}")
        status = status or out.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined, sort_keys=True))
    return status or (0 if combined["correct"] else 1)


def scale_host_times(values: dict, declared: list, factor: float) -> dict:
    """Per-layer host times scaled to the reference machine: times
    multiply by the run's speed factor; counts, ratios and bytes are
    left alone."""
    units = {m["name"]: m["unit"] for m in declared}
    return {
        name: value * factor if units.get(name) in ("s", "ms", "us", "ns") else value
        for name, value in values.items()
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return _run_all(args)

    from perfbench import report, spans, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    out_dir = ROOT / args.out
    workdir = Path(args.workdir) if args.workdir else out_dir / f"work-{os.getpid()}"
    workload = workloads.make(args.workload, args.seed, args.size, workdir)
    tracer = spans.SpanTracer() if args.trace else None

    import repro  # noqa: F401  (import time is part of set-up)

    if tracer is not None:
        tracer.op = "setup"
        with spans.instrument(tracer), tracer.span("bench.setup", "bench"):
            workload.setup()
    else:
        workload.setup()
    setup_raw = time.perf_counter() - _STARTED
    cal = workloads.Calibrator()
    cal.slice()

    def measure_here(seconds: float, share: int, shares: int):
        part = workload.measure(seconds, cal, tracer, share, shares)
        part.factor = cal.factor
        part.setup_s = setup_raw
        part.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return part

    if args.share is not None:
        print(measure_here(args.seconds / SHARES, args.share, SHARES).to_json())
        return 0

    shares = 1 if args.trace else SHARES
    try:
        parts = [measure_here(args.seconds / shares, 0, shares)]
        parts += [_child(args, share, workdir) for share in range(1, shares)]
    finally:
        workloads.cleanup(workload)
    measurement, scaled, raw = workloads.merge(parts)
    if not args.trace:  # a traced run need not cover the whole input
        workload.complete(measurement)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        raw_values = report.per_layer_metrics(tracer, parts[0])
        values = scale_host_times(raw_values, declared["per_layer"], cal.factor)
        gaps = report.stage_gaps(tracer, parts[0].stages)
        measurement.attempted += 1
        bad = {k: g for k, g in gaps.items() if abs(g) > report.STAGE_TOLERANCE}
        if bad:
            measurement.fail(1, f"outside spans disagree with the stage profile: {bad}")
        wanted = declared["per_layer"]
    else:
        values = workload.summarise(measurement.values, scaled)
        values["setup_s"] = statistics.median(p.setup_s * p.factor for p in parts)
        values["peak_rss_mb"] = max(p.peak_rss_mb for p in parts)
        raw_values = workload.summarise(measurement.values, raw)
        raw_values["setup_s"] = statistics.median(p.setup_s for p in parts)
        wanted = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": metrics,
    }

    record = {
        "schema": "perfbench.record/1",
        "meta": report.run_meta(ROOT, args, parts),
        "sizes": measurement.sizes,
        "digests": {k: measurement.digests[k] for k in ("input", "output") if k in measurement.digests},
        "failures": measurement.failures,
        "result": result,
        "raw_metrics": raw_values,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        record["layers"] = report.layer_table(tracer, cal.factor)
        record["stage_profile_s"] = parts[0].stages
        record["stage_gaps"] = gaps
        report.write_json(out_dir / "spans" / f"{name}.json", [vars(s) for s in tracer.spans])
    path = report.write_json(out_dir / "records" / f"{name}.json", record)

    for why in measurement.failures:
        print(f"FAILED: {why}")
    print(f"sizes: {json.dumps(measurement.sizes, sort_keys=True)}")
    print(f"digests: {json.dumps(record['digests'], sort_keys=True)}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
