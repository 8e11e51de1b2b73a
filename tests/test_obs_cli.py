"""CLI surface of the observability layer: the ``trace`` and ``report``
verbs, ``--trace-dir`` on ``run``, and ``--profile`` on
``run``/``schedule``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.ctg import figure1_ctg
from repro.io import save_instance
from repro.obs import validate_chrome_trace
from repro.platform import PlatformConfig, generate_platform

FAST_TRACE = ["--length", "40", "--train", "10", "--plan", "none"]
SRC = Path(__file__).resolve().parent.parent / "src"


def _trace(tmp_path, tag, extra=()):
    out = tmp_path / f"{tag}.trace.json"
    code = main(["trace", "mpeg", "--out", str(out), *FAST_TRACE, *extra])
    return code, out, out.with_name(f"{tag}.metrics.json")


class TestTraceVerb:
    def test_writes_valid_chrome_trace_and_metrics(self, tmp_path, capsys):
        code, out, metrics = _trace(tmp_path, "run")
        assert code == 0
        assert validate_chrome_trace(json.loads(out.read_text())) == []
        snapshot = json.loads(metrics.read_text())
        assert snapshot["schema"] == "repro.metrics/1"
        assert snapshot["canonical"] is True
        stdout = capsys.readouterr().out
        assert "traced mpeg" in stdout
        assert str(out) in stdout
        assert str(metrics) in stdout

    def test_trace_has_task_spans_and_online_stages(self, tmp_path, capsys):
        _, out, _ = _trace(tmp_path, "spans")
        capsys.readouterr()
        records = json.loads(out.read_text())["traceEvents"]
        assert any(r.get("cat") == "sim.task" for r in records)
        assert any(
            r.get("cat") == "stage" and r["name"] == "online" for r in records
        )

    def test_metrics_snapshot_is_byte_stable(self, tmp_path, capsys):
        _, _, first = _trace(tmp_path, "a")
        _, _, second = _trace(tmp_path, "b")
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_faulted_plan_records_fault_events(self, tmp_path, capsys):
        out = tmp_path / "faulted.trace.json"
        code = main(
            ["trace", "mpeg", "--out", str(out), "--length", "60", "--train", "15"]
        )  # default plan: overrun
        assert code == 0
        capsys.readouterr()
        records = json.loads(out.read_text())["traceEvents"]
        assert any(r["name"] == "sim.fault" for r in records)

    def test_timeline_flag_prints_tracks(self, tmp_path, capsys):
        code, _, _ = _trace(tmp_path, "tl", extra=["--timeline"])
        assert code == 0
        assert "track runtime:" in capsys.readouterr().out

    def test_unknown_plan_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.trace.json"
        code = main(["trace", "mpeg", "--out", str(out), "--plan", "nonsense"])
        assert code == 2
        assert "unknown fault plan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--train", "0"],
            ["--length", "-5"],
            ["--length", "10", "--train", "20"],
            ["--length", "20", "--train", "20"],
            ["--deadline-factor", "0.5"],
            ["--deadline-factor", "nan"],
            ["--deadline-factor", "inf"],
        ],
    )
    def test_unrunnable_inputs_exit_2_without_traceback(self, tmp_path, argv):
        out = tmp_path / "x.trace.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "trace", "mpeg", "--out", str(out), *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("trace: ")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_unknown_workload_is_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["trace", "nonsense"])


class TestReportVerb:
    def test_reports_a_trace_file(self, tmp_path, capsys):
        _, out, _ = _trace(tmp_path, "rep")
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "trace report" in text
        assert "online" in text

    def test_reports_a_metrics_file(self, tmp_path, capsys):
        _, _, metrics = _trace(tmp_path, "met")
        capsys.readouterr()
        assert main(["report", str(metrics)]) == 0
        text = capsys.readouterr().out
        assert "metrics" in text
        assert "counters" in text

    def test_reports_an_experiment_artifact(self, tmp_path, capsys):
        assert main(
            ["run", "table1", "--smoke", "--artifacts-dir", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "table1.json")]) == 0
        text = capsys.readouterr().out
        assert "table1" in text
        assert "cells" in text

    def test_json_mode_emits_structured_summary(self, tmp_path, capsys):
        _, out, _ = _trace(tmp_path, "js")
        capsys.readouterr()
        assert main(["report", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["task_spans"] > 0
        assert "online" in payload["stage_calls"]

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unrecognisable_payload_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"what": "is this"}')
        assert main(["report", str(bad)]) == 2
        assert "report:" in capsys.readouterr().err
        notjson = tmp_path / "notjson.json"
        notjson.write_text("{nope")
        assert main(["report", str(notjson)]) == 2


class TestEngineTraceDir:
    def test_run_trace_dir_writes_trace_and_metrics(self, tmp_path, capsys):
        assert main(
            ["run", "table1", "--smoke", "--trace-dir", str(tmp_path)]
        ) == 0
        err = capsys.readouterr().err
        assert "trace written" in err
        trace = tmp_path / "table1.trace.json"
        metrics = tmp_path / "table1.metrics.json"
        assert validate_chrome_trace(json.loads(trace.read_text())) == []
        records = json.loads(trace.read_text())["traceEvents"]
        assert any(r.get("cat") == "cell" for r in records)
        assert json.loads(metrics.read_text())["canonical"] is True

    def test_trace_dir_is_jobs_invariant(self, tmp_path, capsys):
        for jobs, sub in (("1", "serial"), ("2", "parallel")):
            assert main(
                [
                    "run", "table1", "--smoke", "--jobs", jobs,
                    "--trace-dir", str(tmp_path / sub),
                ]
            ) == 0
        capsys.readouterr()
        serial = (tmp_path / "serial" / "table1.metrics.json").read_bytes()
        parallel = (tmp_path / "parallel" / "table1.metrics.json").read_bytes()
        assert serial == parallel


class TestProfileFlags:
    def test_run_profile_prints_stage_table(self, capsys):
        assert main(["run", "table1", "--smoke", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "table1 profile" in out
        assert "stage timings:" in out

    def test_schedule_profile_prints_stage_table(self, tmp_path, capsys):
        ctg = figure1_ctg()
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=2, seed=5))
        path = tmp_path / "instance.json"
        save_instance(path, ctg, platform)
        assert main(
            ["schedule", str(path), "--deadline-factor", "1.5", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "stage timings:" in out
        assert "online" in out
