"""The ``repro report`` and ``repro tail`` verbs on single files: the
four report kinds, the run-event ledger summary, usage errors, a
closed output pipe, and ``repro cache stats/verify --json``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.experiments import run_spec, write_artifact
from repro.experiments.spec import Cell, ExperimentSpec
from repro.obs import (
    EVENTS_SCHEMA,
    Tracer,
    load_report_payload,
    metrics_snapshot,
    summarise_artifact,
    write_chrome_trace,
    write_metrics_snapshot,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def shard_cell(params):
    """Module-level cell function for shard runs."""
    return {
        "values": {"y": params["x"] * 2},
        "profile": {
            "counters": {"shard.cells": 1},
            "timings": {"shard.work": 0.001},
            "calls": {"shard.work": 1},
        },
    }


def _spec(name, xs):
    return ExperimentSpec(
        name=name,
        cells=tuple(Cell(key=f"x{x}", params={"x": x}) for x in xs),
        cell_function=shard_cell,
        reducer=lambda cells: sum(c.values["y"] for c in cells),
    )


@pytest.fixture(scope="module")
def shards(tmp_path_factory):
    """One traced run's directory: artifact, ledger, Chrome trace and
    canonical metrics snapshot."""
    root = tmp_path_factory.mktemp("shard")
    shard_dir = root / "alpha"
    shard_dir.mkdir()
    tracer = Tracer()
    report = run_spec(
        _spec("alpha", (1, 2, 3)),
        jobs=1,
        cache=str(root / "alpha-cache"),
        tracer=tracer,
        events=shard_dir / "alpha.events.jsonl",
    )
    write_artifact(shard_dir, report)
    write_chrome_trace(shard_dir / "alpha.trace.json", tracer, run_name="alpha")
    write_metrics_snapshot(
        shard_dir / "alpha.metrics.json",
        metrics_snapshot(tracer=tracer, canonical=True),
    )
    return [shard_dir]


class TestArtifactEngineSection:
    """Satellite: ``repro report`` on a ``repro.experiment/3`` artifact
    surfaces the engine accounting in both renderings."""

    def test_summary_carries_engine_window_and_counters(self, shards):
        payload = json.loads((shards[0] / "alpha.json").read_text())
        summary = summarise_artifact(payload)
        assert summary["engine"]["window"] >= 1
        assert summary["engine"]["counters"]["engine.stream.flushed"] == 3

    def test_older_artifacts_render_an_empty_section(self):
        summary = summarise_artifact(
            {"schema": "repro.experiment/2", "experiment": "old", "cells": []}
        )
        assert summary["engine"] == {"window": 0, "counters": {}}

    def test_cli_text_report_shows_engine_block(self, shards, capsys):
        assert main(["report", str(shards[0] / "alpha.json")]) == 0
        out = capsys.readouterr().out
        assert "engine (window" in out
        assert "engine.stream.flushed" in out

    def test_cli_json_report_shows_engine_block(self, shards, capsys):
        assert main(["report", str(shards[0] / "alpha.json"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"]["counters"]["engine.stream.flushed"] == 3
        assert payload["cache"]["misses"] == 3


class TestReportVerb:
    @pytest.mark.parametrize(
        "name, kind, title",
        [
            ("alpha.json", "artifact", "artifact report — alpha"),
            ("alpha.events.jsonl", "events", "ledger report — alpha"),
            ("alpha.trace.json", "trace", "trace report"),
            ("alpha.metrics.json", "metrics", "metrics report"),
        ],
        ids=["artifact", "events", "trace", "metrics"],
    )
    def test_renders_each_single_file_kind(self, shards, capsys, name, kind, title):
        path = shards[0] / name
        assert load_report_payload(path)[0] == kind
        assert main(["report", str(path)]) == 0
        assert capsys.readouterr().out.startswith(title + "\n")
        assert main(["report", str(path), "--json"]) == 0
        assert isinstance(json.loads(capsys.readouterr().out), dict)

    def test_missing_file_exits_2(self, capsys):
        assert main(["report", "definitely/not/here.json"]) == 2
        assert capsys.readouterr().err

    def test_directory_exits_2(self, shards, capsys):
        assert main(["report", str(shards[0])]) == 2
        assert capsys.readouterr().err.startswith("report: ")

    def test_garbage_is_neither_json_nor_a_ledger(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not json\n")
        assert main(["report", str(bad)]) == 2
        assert "neither a JSON report file nor a" in capsys.readouterr().err


class TestLedgerReport:
    """``repro report`` on one ledger counts the cells it declares and
    completes (not the artifacts it has none of)."""

    def test_text_counts_declared_and_completed_cells(self, shards, capsys):
        assert main(["report", str(shards[0] / "alpha.events.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "cells: 3   completed: 3   warm: 0" in out
        assert "  cell.completed  3" in out

    def test_json_counts_declared_and_completed_cells(self, shards, capsys):
        ledger = shards[0] / "alpha.events.jsonl"
        assert main(["report", str(ledger), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiments"] == ["alpha"]
        assert payload["cells"] == 3
        assert payload["completed"] == 3
        assert payload["warm"] == 0
        assert payload["events"]["sweep.started"] == 1

    def test_warm_cells_are_counted(self, tmp_path, capsys):
        ledger = tmp_path / "warm.events.jsonl"
        for _ in range(2):
            run_spec(
                _spec("warm", (1, 2)), jobs=1, cache=str(tmp_path / "c"), events=ledger
            )
        assert main(["report", str(ledger), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["cells"], payload["completed"], payload["warm"]) == (2, 2, 2)

    def test_header_only_ledger_is_a_ledger(self, tmp_path):
        path = tmp_path / "opened.events.jsonl"
        path.write_text(
            json.dumps({"event": "ledger.opened", "schema": EVENTS_SCHEMA, "seq": 0})
            + "\n"
        )
        kind, records = load_report_payload(path)
        assert kind == "events"
        assert [r["event"] for r in records] == ["ledger.opened"]


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def __init__(self, fileno):
        self._fileno = fileno

    def write(self, _text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self._fileno


class TestClosedOutputPipe:
    @pytest.mark.parametrize("verb", ["report", "tail"])
    def test_broken_pipe_is_not_an_input_error(
        self, shards, tmp_path, monkeypatch, capsys, verb
    ):
        name = "alpha.json" if verb == "report" else "alpha.events.jsonl"
        with open(tmp_path / "stdout", "w") as sink:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink.fileno()))
            code = main([verb, str(shards[0] / name)])
        assert code == 1
        assert "cannot read" not in capsys.readouterr().err

    def test_real_closed_pipe_exits_quietly(self, shards):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "report", str(shards[0] / "alpha.json")],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": str(SRC)},
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""


class TestRetiredOptions:
    """The multi-input report, ``--diff``, ``--follow`` and ``--live``
    are gone: argparse rejects them as usage errors."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "a.json", "b.json"],
            ["report", "--diff", "a.json", "b.json"],
            ["tail", "run.events.jsonl", "--follow"],
            ["run", "table1", "--smoke", "--live"],
            ["chaos", "--smoke", "--live"],
        ],
        ids=["report-two-files", "report-diff", "tail-follow", "run-live", "chaos-live"],
    )
    def test_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "usage:" in captured.err


class TestTailVerb:
    def test_replays_ledger(self, shards, capsys):
        ledger = shards[0] / "alpha.events.jsonl"
        assert main(["tail", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "sweep.started" in out
        assert "cell.completed" in out

    def test_canonical_mode_is_byte_stable_json(self, shards, capsys):
        ledger = shards[0] / "alpha.events.jsonl"
        assert main(["tail", str(ledger), "--canonical"]) == 0
        first = capsys.readouterr().out
        assert main(["tail", str(ledger), "--canonical"]) == 0
        assert capsys.readouterr().out == first
        events = [json.loads(line)["event"] for line in first.splitlines()]
        assert "cell.submitted" not in events
        assert "cell.completed" in events

    def test_missing_file_exits_2(self, capsys):
        assert main(["tail", "no/such/events.jsonl"]) == 2
        assert capsys.readouterr().err


class TestCacheStatsJson:
    def test_stats_json(self, tmp_path, capsys):
        run_spec(_spec("gamma", (7,)), jobs=1, cache=str(tmp_path / "c"))
        assert main(["cache", "stats", str(tmp_path / "c"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert payload["backend"].startswith("dir:")
        assert payload["size_bytes"] > 0

    def test_verify_json(self, tmp_path, capsys):
        run_spec(_spec("delta", (8,)), jobs=1, cache=str(tmp_path / "c"))
        assert main(["cache", "verify", str(tmp_path / "c"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"checked": 1, "corrupt": []}
