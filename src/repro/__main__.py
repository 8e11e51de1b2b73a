"""Command-line interface: run the paper's experiments by name.

Usage
-----
    python -m repro list
    python -m repro run table1 [table3 figure4 ...] | all
        [--jobs N] [--cache-dir DIR] [--resume] [--reorder-window N]
        [--format text|json] [--artifacts-dir DIR] [--canonical] [--smoke]
        [--policy continuous|discrete|...] [--trace-dir DIR]
        [--profile]
    python -m repro chaos [--smoke] [--gate] [--workloads mpeg ...]
        [--plans overrun ...] [--policies default none] [--length N]
        [--jobs N] [--cache-dir DIR] [--resume] [--reorder-window N]
        [--format text|json] [--artifacts-dir DIR] [--no-canonical]
        [--policy continuous|discrete|...] [--trace-dir DIR]
    python -m repro cache stats|verify|prune|gc CACHE_DIR
        [--older-than DAYS] [--keep-artifact FILE ...] [--json]
    python -m repro schedule INSTANCE.json [--deadline-factor 1.3] [--check]
        [--profile]
    python -m repro check INSTANCE.json|mpeg|cruise|wlan ... [--json]
    python -m repro trace mpeg|cruise|wlan [--out RUN.trace.json]
        [--metrics-out RUN.metrics.json] [--plan overrun|...|none]
        [--length N] [--timeline] [--policy continuous|discrete|...]
    python -m repro report FILE [--json]
    python -m repro tail EVENTS.jsonl [--canonical]
    python -m repro demo

``run`` regenerates the requested tables/figures through the
experiment engine (:mod:`repro.experiments.engine`): cells fan out
over ``--jobs`` worker processes, ``--cache-dir DIR`` memoizes cell
results in a content-addressed directory tree, ``--resume`` continues
an interrupted sweep from whatever the cache already holds,
``--format json``
prints the structured artifact instead of the rendered table,
``--artifacts-dir`` additionally writes one ``<experiment>.json``
artifact per run, and ``--smoke`` shrinks every experiment to a
seconds-scale configuration (for CI and quick sanity runs);
``chaos`` replays the fault-injection matrix of
:mod:`repro.experiments.chaos` — seeded fault plans against the
built-in workloads under each degradation policy — writing
byte-stable *canonical* artifacts (volatile timings zeroed) so CI can
diff two runs, with ``--gate`` turning the acceptance thresholds
(default-policy recovery rate and unrecovered misses) into the exit
code; ``schedule`` loads a problem instance saved with
:func:`repro.io.save_instance`, runs the online algorithm and prints
the Gantt chart; ``check`` statically verifies instances (saved JSON
files or the built-in workloads by name) end to end — graph, platform,
online schedule, per-minterm deadline feasibility — and exits non-zero
on any error-severity diagnostic (see ``docs/diagnostics.md``);
``trace`` replays one seeded run of a built-in workload with the
tracer attached (:mod:`repro.obs`) and writes a Perfetto-loadable
Chrome trace plus a byte-stable canonical metrics snapshot;
``report`` renders a human-readable summary of one file the package
writes — a Chrome trace, an experiment artifact, a metrics snapshot
or a ``repro.events/1`` ledger (see ``docs/observability.md``);
``run``/``chaos`` accept ``--trace-dir DIR`` to trace the engine run
itself (one span per cell) and write an ``<experiment>.events.jsonl``
run-event ledger next to each artifact when ``--artifacts-dir`` is
given; ``tail`` replays a ledger as human-readable lines
(``--canonical`` to print the canonicalised byte-stable form CI
``cmp``\\ s); ``run``/``schedule`` accept ``--profile`` to print the
stage-timing/counter table that previously was silently discarded;
``cache`` inspects and maintains a cell cache directory (``stats``,
``verify``, age-based ``prune`` that never touches fingerprints
referenced by ``--keep-artifact`` files, ``gc`` of corrupt entries and
stray temp files — ``stats``/``verify`` take ``--json`` for
machine-readable output); ``demo`` schedules the paper's Figure-1
example.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, Dict

from . import experiments
from .experiments import ExperimentSpec
from .io import load_instance
from .scheduling import (
    SPEED_POLICIES,
    render_gantt,
    render_listing,
    schedule_online,
    set_deadline_from_makespan,
)

#: Cells kept per experiment under ``--smoke``.
SMOKE_CELLS = 2
#: Trace length used by trace-driven experiments under ``--smoke``.
SMOKE_LENGTH = 200


def _subset(spec: ExperimentSpec, count: int = SMOKE_CELLS) -> ExperimentSpec:
    """The same spec restricted to its first ``count`` cells."""
    return dataclasses.replace(spec, cells=spec.cells[:count])


def _subset_bias(spec: ExperimentSpec) -> ExperimentSpec:
    """One graph per CTG category (the bias summaries average both)."""
    return dataclasses.replace(spec, cells=(spec.cells[0], spec.cells[5]))


def _titled(spec: ExperimentSpec, title: str, note: str) -> ExperimentSpec:
    """Attach a render closure for results whose format() takes a title."""
    spec.render = lambda result: result.format(title, note)
    return spec


def _spec_table1(smoke: bool, policy: str = "continuous") -> ExperimentSpec:
    spec = experiments.table1_spec(speed_policy=policy)
    return _subset(spec) if smoke else spec


def _spec_figure4(smoke: bool) -> ExperimentSpec:
    return experiments.figure4_spec(length=SMOKE_LENGTH if smoke else 1000)


def _spec_figure5(smoke: bool) -> ExperimentSpec:
    if smoke:
        return experiments.mpeg_spec(
            movies=("Airwolf", "Bike"), length=SMOKE_LENGTH
        )
    return experiments.mpeg_spec()


def _spec_table3(smoke: bool) -> ExperimentSpec:
    spec = experiments.table3_spec(length=SMOKE_LENGTH if smoke else 1000)
    return _subset(spec) if smoke else spec


def _spec_table4(smoke: bool) -> ExperimentSpec:
    spec = experiments.bias_spec("lowest", trace_length=100 if smoke else 1000)
    if smoke:
        spec = _subset_bias(spec)
    return _titled(
        spec,
        "Table 4 — online profiled for lowest-energy minterm",
        "(paper: adaptive saves ~22-23% on average)",
    )


def _spec_table5(smoke: bool) -> ExperimentSpec:
    spec = experiments.bias_spec("highest", trace_length=100 if smoke else 1000)
    if smoke:
        spec = _subset_bias(spec)
    return _titled(
        spec,
        "Table 5 — online profiled for highest-energy minterm",
        "(paper: adaptive saves only ~3-5% on average)",
    )


def _spec_figure6(smoke: bool) -> ExperimentSpec:
    spec = experiments.bias_spec(
        "ideal", thresholds=(0.5,), trace_length=100 if smoke else 1000
    )
    if smoke:
        spec = _subset_bias(spec)
    return _titled(
        spec,
        "Figure 6 — ideal profiling vs adaptive T=0.5",
        "(paper: adaptive ~10% better overall)",
    )


def _spec_runtime(smoke: bool) -> ExperimentSpec:
    spec = experiments.runtime_spec(repeats=1 if smoke else 3)
    return _subset(spec) if smoke else spec


def _spec_ablation_window(smoke: bool) -> ExperimentSpec:
    if smoke:
        return experiments.sweep_spec(
            windows=(20,), thresholds=(0.5, 0.1), length=SMOKE_LENGTH
        )
    return experiments.sweep_spec()


def _spec_ablation_weighting(smoke: bool) -> ExperimentSpec:
    spec = experiments.weighting_spec()
    return _subset(spec) if smoke else spec


def _spec_ext_predictors(smoke: bool) -> ExperimentSpec:
    if smoke:
        return experiments.predictor_spec(movies=("Airwolf",), length=SMOKE_LENGTH)
    return experiments.predictor_spec()


def _spec_ext_overhead(smoke: bool) -> ExperimentSpec:
    if smoke:
        return experiments.overhead_spec(thresholds=(0.5, 0.1), length=SMOKE_LENGTH)
    return experiments.overhead_spec()


def _spec_ext_discrete(smoke: bool) -> ExperimentSpec:
    spec = experiments.discrete_spec()
    return _subset(spec) if smoke else spec


def _spec_ext_robustness(smoke: bool) -> ExperimentSpec:
    if smoke:
        return experiments.robustness_spec(seeds=(20, 21), length=SMOKE_LENGTH)
    return experiments.robustness_spec()


def _spec_montecarlo(smoke: bool) -> ExperimentSpec:
    if smoke:
        return experiments.montecarlo_spec(
            workloads=("mpeg", "cruise"), n=256
        )
    return experiments.montecarlo_spec()


#: Experiment registry: CLI name → spec factory taking the smoke flag.
EXPERIMENTS: Dict[str, Callable[[bool], ExperimentSpec]] = {
    "table1": _spec_table1,
    "figure4": _spec_figure4,
    "figure5": _spec_figure5,
    "table3": _spec_table3,
    "table4": _spec_table4,
    "table5": _spec_table5,
    "figure6": _spec_figure6,
    "runtime": _spec_runtime,
    "ablation-window": _spec_ablation_window,
    "ablation-weighting": _spec_ablation_weighting,
    "ext-predictors": _spec_ext_predictors,
    "ext-overhead": _spec_ext_overhead,
    "ext-discrete-dvfs": _spec_ext_discrete,
    "ext-robustness": _spec_ext_robustness,
    "montecarlo": _spec_montecarlo,
}

#: Experiments that accept ``--policy`` (a speed-policy axis); the
#: rest error out under a non-continuous policy instead of silently
#: ignoring the flag.
POLICY_EXPERIMENTS: Dict[str, Callable[[bool, str], ExperimentSpec]] = {
    "table1": _spec_table1,
}


def _cmd_list(_args: argparse.Namespace) -> int:
    print("available experiments:")
    for name in EXPERIMENTS:
        print(f"  {name}")
    return 0


def _write_engine_trace(trace_dir, name: str, report, tracer) -> None:
    """Write the Chrome trace + canonical metrics snapshot of one
    traced engine run into ``trace_dir`` (see ``--trace-dir``)."""
    from .obs import metrics_snapshot, write_chrome_trace, write_metrics_snapshot

    trace_dir = Path(trace_dir)
    trace_path = write_chrome_trace(
        trace_dir / f"{name}.trace.json", tracer, run_name=name
    )
    snapshot = metrics_snapshot(
        profile=report.profile, tracer=tracer, canonical=True, source=f"run {name}"
    )
    metrics_path = write_metrics_snapshot(
        trace_dir / f"{name}.metrics.json", snapshot
    )
    print(
        f"[trace written: {trace_path}; metrics: {metrics_path}]", file=sys.stderr
    )


def _run_engine(args: argparse.Namespace, spec: ExperimentSpec, name: str):
    """One engine run under the shared ``run``/``chaos`` flags.

    Builds the tracer (``--trace-dir``), calls
    :func:`~repro.experiments.run_spec` — which writes the run-event
    ledger ``<experiment>.events.jsonl`` next to the artifacts when
    ``--artifacts-dir`` is given — and writes the engine trace;
    returns the report.
    """
    tracer = None
    if args.trace_dir is not None:
        from .obs import Tracer

        tracer = Tracer()
    events = (
        Path(args.artifacts_dir) / f"{name}.events.jsonl"
        if args.artifacts_dir
        else None
    )
    report = experiments.run_spec(
        spec,
        jobs=args.jobs,
        cache=args.cache_dir,
        tracer=tracer,
        resume=args.resume,
        reorder_window=args.reorder_window,
        events=events,
    )
    if events is not None:
        print(f"[events ledger: {events}]", file=sys.stderr)
    if tracer is not None:
        _write_engine_trace(args.trace_dir, name, report, tracer)
    return report


def _cmd_run(args: argparse.Namespace) -> int:
    names = list(EXPERIMENTS) if "all" in args.names else args.names
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.policy != "continuous":
        unsupported = [n for n in names if n not in POLICY_EXPERIMENTS]
        if unsupported:
            print(
                f"--policy {args.policy} is not supported by: "
                f"{', '.join(unsupported)} "
                f"(policy-aware: {', '.join(sorted(POLICY_EXPERIMENTS))})",
                file=sys.stderr,
            )
            return 2
    if args.resume and args.cache_dir is None:
        print("run: --resume requires --cache-dir", file=sys.stderr)
        return 2
    for name in names:
        if args.policy != "continuous":
            spec = POLICY_EXPERIMENTS[name](args.smoke, args.policy)
        else:
            spec = EXPERIMENTS[name](args.smoke)
        report = _run_engine(args, spec, name)
        if args.artifacts_dir is not None:
            path = experiments.write_artifact(
                args.artifacts_dir, report, canonical=args.canonical
            )
            print(f"[artifact written: {path}]", file=sys.stderr)
        if args.format == "json":
            print(json.dumps(experiments.artifact_payload(report), indent=2))
        else:
            print(f"=== {name} ===")
            print(report.format())
            print()
        if args.profile:
            print(f"--- {name} profile ---")
            print(report.profile.format())
            print()
    return 0


#: Smoke-mode chaos matrix: one workload, the gated plans, both the
#: default policy and the no-reaction baseline, a seconds-scale trace.
CHAOS_SMOKE_WORKLOADS = ("mpeg",)
CHAOS_SMOKE_LENGTH = 150
CHAOS_SMOKE_TRAIN = 30

#: ``--gate`` threshold on the pooled default-policy recovery rate.
CHAOS_RECOVERY_GATE = 0.90


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .experiments import chaos as chaos_mod

    if args.smoke:
        workloads = tuple(args.workloads or CHAOS_SMOKE_WORKLOADS)
        plans = tuple(args.plans or chaos_mod.SMOKE_PLANS)
        policies = tuple(args.policies or ("default", "none"))
        length = args.length or CHAOS_SMOKE_LENGTH
        train = CHAOS_SMOKE_TRAIN
    else:
        workloads = tuple(args.workloads or chaos_mod.CHAOS_WORKLOADS)
        plans = tuple(args.plans) if args.plans else None
        policies = tuple(args.policies or ("default", "none"))
        length = args.length or chaos_mod.CHAOS_LENGTH
        train = chaos_mod.CHAOS_TRAIN
    try:
        spec = chaos_mod.chaos_spec(
            workloads,
            plans,
            policies,
            length=length,
            train=train,
            speed_policy=args.policy,
        )
    except ValueError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    if args.resume and args.cache_dir is None:
        print("chaos: --resume requires --cache-dir", file=sys.stderr)
        return 2
    report = _run_engine(args, spec, "chaos")
    if args.artifacts_dir is not None:
        canonical = not args.no_canonical
        path = experiments.write_artifact(
            args.artifacts_dir, report, canonical=canonical
        )
        kind = "canonical artifact" if canonical else "artifact"
        print(f"[{kind} written: {path}]", file=sys.stderr)
    if args.format == "json":
        build = (
            experiments.artifact_payload
            if args.no_canonical
            else experiments.canonical_artifact_payload
        )
        print(json.dumps(build(report), indent=2))
    else:
        print(report.result.format())
    if args.gate:
        rate = report.result.overall_recovery_rate()
        unrecovered = report.result.unrecovered_misses()
        qloss = report.result.total_quantization_losses()
        qnote = f" ({qloss} quantization loss(es) excluded)" if qloss else ""
        if rate < CHAOS_RECOVERY_GATE or unrecovered > 0:
            print(
                f"chaos gate FAILED: recovery rate {rate:.2f} "
                f"(threshold {CHAOS_RECOVERY_GATE:.2f}), "
                f"{unrecovered} unrecovered miss(es){qnote}",
                file=sys.stderr,
            )
            return 1
        print(
            f"chaos gate passed: recovery rate {rate:.2f}, "
            f"0 unrecovered misses{qnote}",
            file=sys.stderr,
        )
    return 0


#: Seconds per day, for ``repro cache prune --older-than DAYS``.
_DAY_SECONDS = 86400.0


def _cmd_cache(args: argparse.Namespace) -> int:
    """``repro cache stats|verify|prune|gc`` on one cache directory."""
    if not Path(args.store).is_dir():
        # a mistyped path must not pass for an empty cache
        print(f"cache: no cache at {args.store}", file=sys.stderr)
        return 2
    store = experiments.CellCache(args.store)
    keep = set()
    for artifact_path in args.keep_artifact or ():
        try:
            artifact = experiments.load_artifact(artifact_path)
        except (OSError, ValueError) as exc:
            print(f"cache: cannot read {artifact_path}: {exc}", file=sys.stderr)
            return 2
        keep |= {cell["fingerprint"] for cell in artifact["cells"]}
    if args.action == "stats":
        fingerprints = store.fingerprints()
        if args.json:
            print(
                json.dumps(
                    {
                        "backend": store.describe(),
                        "entries": len(fingerprints),
                        "size_bytes": store.size_bytes(),
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        print(f"backend:  {store.describe()}")
        print(f"entries:  {len(fingerprints)}")
        print(f"size:     {store.size_bytes()} bytes")
        return 0
    if args.action == "verify":
        checked, corrupt = store.verify()
        if args.json:
            print(
                json.dumps(
                    {"checked": checked, "corrupt": sorted(corrupt)},
                    indent=2,
                    sort_keys=True,
                )
            )
            return 1 if corrupt else 0
        print(f"checked {checked} entr{'y' if checked == 1 else 'ies'}: "
              f"{len(corrupt)} corrupt")
        for fp in corrupt:
            print(f"corrupt: {fp}")
        return 1 if corrupt else 0
    if args.action == "prune":
        if args.older_than is None:
            print(
                "cache: prune requires --older-than DAYS "
                "(0 evicts every unprotected entry)",
                file=sys.stderr,
            )
            return 2
        removed = store.prune(
            older_than_seconds=args.older_than * _DAY_SECONDS, keep=keep
        )
        protected = f", {len(keep)} protected" if keep else ""
        print(f"pruned {len(removed)} entr{'y' if len(removed) == 1 else 'ies'}"
              f"{protected}")
        return 0
    counts = store.gc()
    print(
        f"gc: removed {counts['corrupt_removed']} corrupt entr"
        f"{'y' if counts['corrupt_removed'] == 1 else 'ies'}, "
        f"{counts['tmp_removed']} stray temp file(s)"
    )
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from .ctg import CTGError
    from .platform.mpsoc import PlatformError
    from .profiling import StageProfiler

    try:
        ctg, platform, _trace = load_instance(args.instance)
    except (CTGError, PlatformError, OSError, ValueError) as exc:
        print(f"schedule: cannot load {args.instance}: {exc}", file=sys.stderr)
        return 2
    if ctg.deadline <= 0:
        set_deadline_from_makespan(ctg, platform, args.deadline_factor)
    profiler = StageProfiler() if args.profile else None
    result = schedule_online(ctg, platform, profiler=profiler, check=args.check)
    result.schedule.validate()
    print(render_gantt(result.schedule))
    print()
    print(render_listing(result.schedule))
    energy = result.schedule.expected_energy(ctg.default_probabilities)
    print(f"\nexpected energy per period: {energy:.2f}")
    if result.profile is not None:
        print()
        print(result.profile.format())
    return 0


#: Built-in workloads the ``check`` verb accepts by name.
_WORKLOADS = ("mpeg", "cruise", "wlan")


def _load_target(name: str, deadline_factor: float):
    """Resolve a ``check`` target to a ready ``(ctg, platform)`` pair."""
    if name in _WORKLOADS:
        from . import workloads

        ctg = getattr(workloads, f"{name}_ctg")()
        platform = getattr(workloads, f"{name}_platform")()
    else:
        ctg, platform, _trace = load_instance(name)
    if ctg.deadline <= 0:
        set_deadline_from_makespan(ctg, platform, deadline_factor)
    return ctg, platform


def _cmd_check(args: argparse.Namespace) -> int:
    if not args.targets:
        print("check: provide one or more TARGET names", file=sys.stderr)
        return 2
    from .check import check_instance
    from .ctg import CTGError
    from .ctg.minterms import CtgAnalysis
    from .platform.mpsoc import PlatformError

    worst = 0
    for name in args.targets:
        try:
            ctg, platform = _load_target(name, args.deadline_factor)
        except (CTGError, PlatformError, OSError, ValueError) as exc:
            print(f"{name}\nerror: cannot load target: {exc}", file=sys.stderr)
            worst = 1
            continue
        analysis = CtgAnalysis.of(ctg)
        schedule = None
        if not args.no_schedule:
            schedule = schedule_online(ctg, platform, analysis=analysis).schedule
        report = check_instance(ctg, platform, schedule, analysis=analysis)
        if args.json:
            print(report.to_json())
        else:
            print(report.render_text(header=name))
        if not report.ok:
            worst = 1
    return worst


#: Defaults of the ``trace`` verb: a seconds-scale seeded run whose
#: canonical metrics snapshot is byte-identical across invocations.
TRACE_LENGTH = 150
TRACE_TRAIN = 30
TRACE_DEADLINE_FACTOR = 1.6


def _cmd_trace(args: argparse.Namespace) -> int:
    from . import workloads as workloads_mod
    from .experiments.chaos import fault_plan_catalogue
    from .obs import (
        Tracer,
        derive_run_metrics,
        metrics_snapshot,
        render_timeline,
        write_chrome_trace,
        write_metrics_snapshot,
    )
    from .sim import empirical_distribution, run_adaptive, run_faulted
    from .workloads import drifting_trace

    if not 1 <= args.train < args.length:
        print(
            f"trace: need 1 <= --train < --length "
            f"(got --train {args.train}, --length {args.length})",
            file=sys.stderr,
        )
        return 2
    if not 1.0 <= args.deadline_factor < math.inf:  # also rejects NaN
        print(
            f"trace: --deadline-factor must be finite and at least 1.0 "
            f"(got {args.deadline_factor})",
            file=sys.stderr,
        )
        return 2
    name = args.workload
    ctg = getattr(workloads_mod, f"{name}_ctg")()
    platform = getattr(workloads_mod, f"{name}_platform")()
    set_deadline_from_makespan(ctg, platform, args.deadline_factor)
    trace = drifting_trace(ctg, args.length, seed=args.seed)
    probabilities = empirical_distribution(ctg, trace[: args.train])
    tracer = Tracer()
    if args.plan == "none":
        result = run_adaptive(
            ctg,
            platform,
            trace[args.train :],
            probabilities,
            tracer=tracer,
            speed_policy=args.policy,
        )
    else:
        catalogue = fault_plan_catalogue()
        if args.plan not in catalogue:
            known = ", ".join(sorted(catalogue) + ["none"])
            print(f"unknown fault plan {args.plan!r} (known: {known})", file=sys.stderr)
            return 2
        result = run_faulted(
            ctg,
            platform,
            trace[args.train :],
            probabilities,
            catalogue[args.plan],
            tracer=tracer,
            speed_policy=args.policy,
        )

    out = Path(args.out) if args.out else Path(f"{name}.trace.json")
    if args.metrics_out:
        metrics_out = Path(args.metrics_out)
    elif out.name.endswith(".trace.json"):
        metrics_out = out.with_name(out.name[: -len(".trace.json")] + ".metrics.json")
    else:
        metrics_out = out.with_suffix(".metrics.json")
    write_chrome_trace(out, tracer, run_name=f"{name}:{args.plan}")
    derived = derive_run_metrics(result, tracer=tracer)
    snapshot = metrics_snapshot(
        profile=result.profile,
        tracer=tracer,
        derived=derived,
        canonical=True,
        source=f"trace {name}",
    )
    write_metrics_snapshot(metrics_out, snapshot)
    instances = len(result.energies)
    print(
        f"traced {name} ({args.plan}): {instances} instances, "
        f"{result.reschedule_calls} re-schedules, "
        f"{len(tracer.spans)} spans, {len(tracer.events)} events"
    )
    print(f"chrome trace:     {out}  (open in https://ui.perfetto.dev)")
    print(f"metrics snapshot: {metrics_out}  (canonical, byte-stable)")
    if args.timeline:
        print()
        print(render_timeline(tracer))
    return 0


def _write_stdout(text: str) -> int:
    """Write ``text`` to stdout; exit code 0, or 1 if the reader is gone."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``| head``): point stdout at
        # devnull so the interpreter's exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs.report import ReportError, load_report_payload, render_report

    try:
        kind, payload = load_report_payload(args.file)
    except OSError as exc:
        print(f"report: cannot read input: {exc}", file=sys.stderr)
        return 2
    except ReportError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    return _write_stdout(render_report(kind, payload, as_json=args.json) + "\n")


def _cmd_tail(args: argparse.Namespace) -> int:
    """``repro tail``: replay a run-event ledger."""
    from .obs.events import (
        EventError,
        canonical_ledger,
        read_ledger,
        render_event,
    )

    path = Path(args.file)
    try:
        records = read_ledger(path)
    except OSError as exc:
        print(f"tail: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    except EventError as exc:
        print(f"tail: {exc}", file=sys.stderr)
        return 2
    if args.canonical:
        return _write_stdout(canonical_ledger(records))
    return _write_stdout("".join(render_event(r) + "\n" for r in records))


def _cmd_demo(_args: argparse.Namespace) -> int:
    from .ctg import figure1_ctg
    from .platform import PlatformConfig, generate_platform

    ctg = figure1_ctg()
    platform = generate_platform(ctg.tasks(), PlatformConfig(pes=2, seed=42))
    set_deadline_from_makespan(ctg, platform, 1.4)
    result = schedule_online(ctg, platform)
    print(render_gantt(result.schedule))
    print()
    print(render_listing(result.schedule))
    return 0


def _positive_int(text: str) -> int:
    """argparse ``type=`` for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _engine_flags() -> argparse.ArgumentParser:
    """The engine flags ``run`` and ``chaos`` share (an argparse parent)."""
    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="worker processes for independent cells "
        "(default: os.cpu_count(); 1 = inline, no pool)",
    )
    engine.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed cell cache directory (e.g. .repro-cache); "
        "omit to disable caching",
    )
    engine.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted sweep: cells already in the cache "
        "are skipped (requires --cache-dir)",
    )
    engine.add_argument(
        "--reorder-window",
        type=_positive_int,
        default=None,
        metavar="N",
        help="bound on in-flight cells / resident out-of-order results "
        "(default: 1 serial, max(8, 2*jobs) parallel)",
    )
    engine.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the run to a seconds-scale configuration (for CI and "
        "quick sanity runs)",
    )
    engine.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="write a Chrome trace (<experiment>.trace.json) and a "
        "canonical metrics snapshot (<experiment>.metrics.json) of "
        "each engine run",
    )
    engine.add_argument(
        "--policy",
        choices=tuple(sorted(SPEED_POLICIES)),
        default="continuous",
        help="speed-selection policy (default: continuous, the paper's "
        "stretching); run accepts it only for policy-aware experiments",
    )
    return engine


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive CTG scheduling + DVFS (DATE 2008 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(func=_cmd_list)

    engine = _engine_flags()
    run = sub.add_parser(
        "run", parents=[engine], help="run experiments by name (or 'all')"
    )
    run.add_argument("names", nargs="+", metavar="EXPERIMENT")
    run.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout format: rendered tables (text) or the structured "
        "artifact payload (json)",
    )
    run.add_argument(
        "--artifacts-dir",
        default=None,
        metavar="DIR",
        help="also write one <experiment>.json artifact per run",
    )
    run.add_argument(
        "--canonical",
        action="store_true",
        help="write artifacts in canonical form (volatile timings zeroed, "
        "byte-stable across runs and --jobs settings)",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="print each experiment's aggregated stage-timing/counter table",
    )
    run.set_defaults(func=_cmd_run)

    chaos = sub.add_parser(
        "chaos",
        parents=[engine],
        help="fault-injection matrix under degradation policies",
    )
    chaos.add_argument(
        "--workloads",
        nargs="+",
        default=None,
        metavar="NAME",
        help="workloads to fault (default: mpeg cruise; smoke: mpeg)",
    )
    chaos.add_argument(
        "--plans",
        nargs="+",
        default=None,
        metavar="PLAN",
        help="named fault plans from the catalogue "
        "(default: all; smoke: the gated subset)",
    )
    chaos.add_argument(
        "--policies",
        nargs="+",
        default=None,
        metavar="POLICY",
        help="degradation policies to compare (default: default none)",
    )
    chaos.add_argument(
        "--length",
        type=int,
        default=None,
        metavar="N",
        help="trace length per cell (default: full 400, smoke 150)",
    )
    chaos.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout format: rendered matrix (text) or the canonical "
        "artifact payload (json)",
    )
    chaos.add_argument(
        "--artifacts-dir",
        default=None,
        metavar="DIR",
        help="write the byte-stable canonical chaos.json artifact",
    )
    chaos.add_argument(
        "--no-canonical",
        action="store_true",
        help="write/print the raw artifact instead of the canonical form "
        "(keeps real cache statistics — used by the resume-smoke CI job)",
    )
    chaos.add_argument(
        "--gate",
        action="store_true",
        help="exit non-zero unless the default policy recovers >=90%% "
        "of threatened instances with zero unrecovered misses",
    )
    chaos.set_defaults(func=_cmd_chaos)

    sched = sub.add_parser("schedule", help="schedule a saved problem instance")
    sched.add_argument("instance", help="JSON file from repro.io.save_instance")
    sched.add_argument("--deadline-factor", type=float, default=1.3)
    sched.add_argument(
        "--check",
        action="store_true",
        help="statically verify the schedule before printing it "
        "(raises on any error-severity diagnostic)",
    )
    sched.add_argument(
        "--profile",
        action="store_true",
        help="print the invocation's stage-timing/counter table",
    )
    sched.set_defaults(func=_cmd_schedule)

    check = sub.add_parser(
        "check", help="statically verify instances without simulating them"
    )
    check.add_argument(
        "targets",
        nargs="*",
        metavar="TARGET",
        help=f"instance JSON path or workload name ({', '.join(_WORKLOADS)})",
    )
    check.add_argument("--deadline-factor", type=float, default=1.3)
    check.add_argument(
        "--no-schedule",
        action="store_true",
        help="verify only the graph and platform (skip building and "
        "checking an online schedule)",
    )
    check.add_argument("--json", action="store_true", help="emit reports as JSON")
    check.set_defaults(func=_cmd_check)

    trace = sub.add_parser(
        "trace",
        help="trace one seeded run: Chrome trace + canonical metrics snapshot",
    )
    trace.add_argument("workload", choices=_WORKLOADS)
    trace.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="Chrome trace output path (default: <workload>.trace.json)",
    )
    trace.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="canonical metrics snapshot path "
        "(default: derived from --out, .metrics.json)",
    )
    trace.add_argument(
        "--plan",
        default="overrun",
        metavar="PLAN",
        help="fault plan from the chaos catalogue, or 'none' for a "
        "fault-free adaptive run (default: overrun)",
    )
    trace.add_argument("--length", type=int, default=TRACE_LENGTH, metavar="N")
    trace.add_argument("--train", type=int, default=TRACE_TRAIN, metavar="N")
    trace.add_argument("--seed", type=int, default=7, metavar="SEED")
    trace.add_argument(
        "--deadline-factor", type=float, default=TRACE_DEADLINE_FACTOR
    )
    trace.add_argument(
        "--timeline",
        action="store_true",
        help="also print the plain-text span/event timeline",
    )
    trace.add_argument(
        "--policy",
        choices=tuple(sorted(SPEED_POLICIES)),
        default="continuous",
        help="speed-selection policy of the traced run "
        "(default: continuous, the paper's stretching)",
    )
    trace.set_defaults(func=_cmd_trace)

    report = sub.add_parser("report", help="summarise one report file")
    report.add_argument(
        "file",
        metavar="FILE",
        help="a file written by repro: Chrome trace, experiment artifact, "
        "metrics snapshot or events.jsonl ledger",
    )
    report.add_argument(
        "--json",
        action="store_true",
        help="emit the structured summary as JSON instead of text",
    )
    report.set_defaults(func=_cmd_report)

    tail = sub.add_parser(
        "tail",
        help="replay a run-event ledger (events.jsonl)",
    )
    tail.add_argument("file", help="events.jsonl ledger written by run/chaos")
    tail.add_argument(
        "--canonical",
        action="store_true",
        help="print the canonicalised ledger (deterministic events and "
        "fields only, byte-stable across --jobs/resume)",
    )
    tail.set_defaults(func=_cmd_tail)

    cache_verb = sub.add_parser(
        "cache", help="inspect and maintain a cell cache directory"
    )
    cache_verb.add_argument(
        "action",
        choices=("stats", "verify", "prune", "gc"),
        help="stats: entry count + size; verify: scan for corrupt entries "
        "(exit 1 on any); prune: age-based eviction; gc: drop corrupt "
        "entries and stray temp files",
    )
    cache_verb.add_argument(
        "store",
        metavar="CACHE_DIR",
        help="cell cache directory (as given to --cache-dir)",
    )
    cache_verb.add_argument(
        "--older-than",
        type=float,
        default=None,
        metavar="DAYS",
        help="prune: evict entries last written more than DAYS days ago "
        "(0 evicts every unprotected entry)",
    )
    cache_verb.add_argument(
        "--keep-artifact",
        action="append",
        default=None,
        metavar="FILE",
        help="never prune fingerprints referenced by this experiment "
        "artifact (repeatable; protects live sweeps' entries)",
    )
    cache_verb.add_argument(
        "--json",
        action="store_true",
        help="stats/verify: emit machine-readable JSON instead of text",
    )
    cache_verb.set_defaults(func=_cmd_cache)

    sub.add_parser("demo", help="schedule the paper's Figure-1 example").set_defaults(
        func=_cmd_demo
    )

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
