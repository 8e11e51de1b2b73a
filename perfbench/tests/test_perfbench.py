"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import report, spans, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
        "--seconds", "0.2", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)


def _measure(name: str, seed: int, tmp_path: Path, tracer=None):
    """One process's measurement of a tiny workload, checked as a run is."""
    workload = workloads.make(name, seed, "tiny", tmp_path / "work")
    workload.setup()
    try:
        part = workload.measure(0.0, workloads.Calibrator(), tracer)
    finally:
        workloads.cleanup(workload)
    merged, _, _ = workloads.merge([part])
    if tracer is None:
        workload.complete(merged)
    return merged, part


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_printed_with_its_unit(name, trace):
    out = _run(name, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("name", ("cruise-adaptive", "mpeg-adaptive", "mpeg-montecarlo"))
def test_seed_changes_inputs_and_digests(name, tmp_path):
    first, _ = _measure(name, 1, tmp_path)
    again, _ = _measure(name, 1, tmp_path)
    other, _ = _measure(name, 2, tmp_path)
    assert first.failed == again.failed == other.failed == 0
    assert first.digests["output"] == again.digests["output"]
    assert first.digests["input"] != other.digests["input"]
    assert first.digests["output"] != other.digests["output"]


def test_traced_run_reproduces_untraced_outputs_and_stage_profile(tmp_path):
    tracer = spans.SpanTracer()
    merged, m = _measure("cruise-adaptive", 3, tmp_path, tracer)
    assert merged.failed == 0
    assert m.traced_s > 0 and m.untraced_s > 0
    gaps = report.stage_gaps(tracer, m.stages)
    assert all(abs(g) <= report.STAGE_TOLERANCE for g in gaps.values()), gaps
    metrics = report.per_layer_metrics(tracer, m)
    assert metrics["scheduling.dls.calls"] > 0
    assert metrics["sim.executor.run_calls"] == m.sizes["trace_length"] * m.sizes["passes"]
    ops = {s.op for s in tracer.spans}
    assert "pass0.e0" in ops


def test_perturbed_instance_fails_its_schedule(tmp_path, monkeypatch):
    from repro.sim import executor

    original = executor.InstanceExecutor.run
    calls = {"n": 0}

    def late(self, decisions, work_ratios=None):
        result = original(self, decisions, work_ratios)
        calls["n"] += 1
        if calls["n"] == 7:
            return dataclasses.replace(result, deadline_met=False)
        return result

    monkeypatch.setattr(executor.InstanceExecutor, "run", late)
    m, _ = _measure("cruise-adaptive", 1, tmp_path)
    assert 1 <= m.failed < m.attempted


def test_perturbed_sweep_fails(tmp_path, monkeypatch):
    import repro.batch

    original = repro.batch.monte_carlo

    def missing(*args, **kwargs):
        result = original(*args, **kwargs)
        result.deadline_met[0] = False
        return result

    monkeypatch.setattr(repro.batch, "monte_carlo", missing)
    _, m = _measure("mpeg-montecarlo", 1, tmp_path)
    assert m.failed == m.attempted


def test_perturbed_cache_hit_fails_its_cell(tmp_path, monkeypatch):
    from repro.experiments import cache

    original = cache.CellCache.get

    def stale(self, fp):
        entry = original(self, fp)
        if entry is not None and entry.get("key") == "mpeg":
            entry = dict(entry, values=dict(entry["values"], mean_energy=0.0))
        return entry

    monkeypatch.setattr(cache.CellCache, "get", stale)
    m, _ = _measure("smoke-sweep", 1, tmp_path)
    assert 1 <= m.failed < m.attempted


def test_processes_that_disagree_fail_and_timings_are_scaled():
    a = workloads.Measurement(digests={"trace0": "x"}, durations={"loop": [2.0]}, factor=0.5)
    b = workloads.Measurement(digests={"trace0": "y"}, durations={"loop": [1.0]}, factor=1.0)
    merged, scaled, raw = workloads.merge([a, b])
    assert merged.failed == 1
    assert raw["loop"] == [2.0, 1.0] and scaled["loop"] == [1.0, 1.0]


def test_speed_factor_follows_the_upper_quartile_slice():
    cal = workloads.Calibrator()
    cal.samples_ms = [6.0, 7.0, 10.0, 10.0, 6.5, 10.0, 7.5, 10.0]
    assert cal.factor == workloads.Calibrator.REFERENCE_MS / 10.0


def test_adaptive_rates_count_each_trace_once():
    workload = workloads.make("mpeg-adaptive", 5, "tiny", None)
    n, length = len(workload.trace_seeds), workload.length
    once = {f"loop{k}": [1.0] for k in range(n)}
    once.update({f"pass{k}": [2.0] for k in range(n)})
    # trace 0 replayed twice more, at other speeds: its median stands for it
    repeated = dict(once, loop0=[1.0, 0.5, 1.5], pass0=[2.0, 1.0, 3.0])
    for d in (once, repeated):
        d.update(replay=[0.01], quiet=[0.001], latency=[0.1])
        values = workload.summarise({}, d)
        assert values["instances_per_s"] == n * length / n
        assert values["cold_sweep_s"] == 2.0 * n


def test_self_time_excludes_other_layers_only():
    s = spans.Span
    trace = [
        s(1, "scheduling.stretching.structure", "scheduling.stretching", 1.0, 2.0, 0, "op"),
        s(2, "scheduling.dls", "scheduling.dls", 3.0, 6.0, 0, "op"),
        s(0, "scheduling.stretching", "scheduling.stretching", 0.0, 10.0, None, "op"),
    ]
    totals = spans.layer_totals(trace)
    assert totals["scheduling.stretching"].calls == 1
    assert totals["scheduling.stretching"].busy == 10.0
    assert totals["scheduling.stretching"].self_time == 7.0
    assert totals["scheduling.dls"].self_time == 3.0


def test_diff_names_the_layer_that_moved_most(tmp_path, capsys):
    def record(path, dls_ms, seed):
        payload = {
            "meta": {"workload": "cruise-adaptive", "seed": seed},
            "layers": {
                "scheduling.dls": {"calls": 10, "busy_ms": dls_ms, "self_ms": dls_ms},
                "adaptive": {"calls": 10, "busy_ms": 5.0, "self_ms": 1.0},
            },
        }
        report.write_json(path, payload)

    record(tmp_path / "a.json", 100.0, 1)
    record(tmp_path / "b.json", 40.0, 2)
    assert report.main_diff([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("== cruise-adaptive")
    assert lines[2].split()[0] == "scheduling.dls"
    assert "-60.0" in lines[2]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "records"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cruise-adaptive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
