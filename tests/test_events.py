"""Tests for the run-event ledger (``repro.events/1``): the
:class:`EventLedger` writer and its null object, canonicalisation (the
byte-identity CI ``cmp``\\ s across jobs/resume), the engine's
emission sequence and the ``repro tail`` renderer."""

import json
from pathlib import Path

import pytest

from repro.experiments import Cell, ExperimentSpec, run_spec
from repro.io import canonical_json
from repro.obs import (
    EVENTS_SCHEMA,
    NULL_LEDGER,
    VOCABULARY,
    EventError,
    EventLedger,
    MetricKind,
    as_ledger,
    canonical_ledger,
    canonical_records,
    read_ledger,
    render_event,
    vocabulary_table,
)

REPO = Path(__file__).resolve().parent.parent


def doubling_cell(params):
    """Module-level cell function (importable by worker processes)."""
    return {"values": {"y": params["x"] * 2}}


def recovering_cell(params):
    """Cell whose profile carries fault-recovery counters."""
    return {
        "values": {"y": params["x"]},
        "profile": {
            "counters": {
                "fault.injected": 3,
                "fault.threatened": 2,
                "fault.escalations": 1,
            }
        },
    }


def _spec(name="ledgered", xs=(1, 2, 3), cell_function=doubling_cell):
    return ExperimentSpec(
        name=name,
        cells=tuple(Cell(key=f"x{x}", params={"x": x}) for x in xs),
        cell_function=cell_function,
        reducer=lambda cells: sum(c.values["y"] for c in cells),
    )


class TestVocabulary:
    def test_observability_doc_embeds_the_table(self):
        # every ledger event is documented with its canonical flag, as
        # the one rendered vocabulary table prints its row
        doc = (REPO / "docs" / "observability.md").read_text()
        rows = {line.split()[0]: line for line in vocabulary_table().splitlines()}
        ledger_names = [s.name for s in VOCABULARY if s.kind is MetricKind.LEDGER]
        assert "cell.completed" in ledger_names
        for name in ledger_names:
            assert rows[f"``{name}``"] in doc


class TestEventLedger:
    def test_opens_with_schema_header(self):
        ledger = EventLedger()
        assert ledger.records[0]["event"] == "ledger.opened"
        assert ledger.records[0]["schema"] == EVENTS_SCHEMA

    def test_undeclared_event_rejected(self):
        with pytest.raises(EventError, match="undeclared event"):
            EventLedger().emit("sweep.teleported")

    def test_declared_name_of_another_kind_rejected(self):
        # ``online`` is a declared stage timer, not a ledger record
        with pytest.raises(EventError, match="undeclared event"):
            EventLedger().emit("online")

    def test_missing_required_field_rejected(self):
        with pytest.raises(EventError, match="missing required field"):
            EventLedger().emit("cell.completed", key="a")  # no fingerprint

    def test_extras_land_in_meta_not_toplevel(self):
        record = EventLedger().emit(
            "sweep.started", experiment="t", cells=3, jobs=4
        )
        assert record["experiment"] == "t"
        assert "jobs" not in record
        assert record["meta"]["jobs"] == 4

    def test_wall_clock_confined_to_meta(self):
        record = EventLedger().emit("cell.cached", key="a")
        assert "wall" in record["meta"]
        assert "wall" not in record

    def test_seq_and_counts(self):
        ledger = EventLedger()
        ledger.emit("cell.cached", key="a")
        ledger.emit("cell.cached", key="b")
        assert [r["seq"] for r in ledger.records] == [0, 1, 2]
        assert [r["event"] for r in ledger.records].count("cell.cached") == 2

    def test_file_backed_write_through(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLedger(path=path) as ledger:
            ledger.emit("cell.cached", key="a")
            assert not ledger.records  # file-backed ledgers do not buffer
        records = read_ledger(path)
        assert [r["event"] for r in records] == ["ledger.opened", "cell.cached"]

    def test_reopening_truncates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLedger(path=path) as ledger:
            ledger.emit("cell.cached", key="stale")
        with EventLedger(path=path):
            pass
        assert [r["event"] for r in read_ledger(path)] == ["ledger.opened"]

    def test_close_is_idempotent(self, tmp_path):
        ledger = EventLedger(path=tmp_path / "e.jsonl")
        ledger.close()
        ledger.close()

    def test_as_ledger_ownership(self, tmp_path):
        assert as_ledger(None) == (NULL_LEDGER, False)
        existing = EventLedger()
        assert as_ledger(existing) == (existing, False)
        created, owned = as_ledger(tmp_path / "e.jsonl")
        assert owned and created.path is not None
        created.close()


class TestNullLedger:
    def test_records_nothing(self):
        NULL_LEDGER.emit("cell.cached", key="a")
        assert NULL_LEDGER.records == []
        assert NULL_LEDGER.path is None

    def test_run_spec_without_events_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report = run_spec(_spec(), jobs=1, cache=tmp_path / "cache")
        assert report.result == 12
        assert not list(tmp_path.rglob("*.jsonl"))
        assert NULL_LEDGER.records == []


class TestReadLedger:
    def test_rejects_non_json_line(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"event": "ledger.opened", "schema": "%s"}\nnope\n' % EVENTS_SCHEMA)
        with pytest.raises(EventError, match="not JSON"):
            read_ledger(path)

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"event": "cell.cached", "key": "a"}\n')
        with pytest.raises(EventError, match="ledger header"):
            read_ledger(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        with pytest.raises(EventError, match="empty ledger"):
            read_ledger(path)


class TestCanonicalisation:
    def test_drops_non_canonical_and_meta(self):
        ledger = EventLedger()
        ledger.emit("sweep.started", experiment="t", cells=1, jobs=8)
        ledger.emit("cell.submitted", key="a")
        ledger.emit("cell.completed", key="a", fingerprint="f" * 8)
        records = canonical_records(ledger.records)
        assert [r["event"] for r in records] == [
            "ledger.opened",
            "sweep.started",
            "cell.completed",
        ]
        assert all("meta" not in r for r in records)
        assert "jobs" not in records[1]

    def test_renumbers_seq(self):
        ledger = EventLedger()
        ledger.emit("cell.submitted", key="a")  # non-canonical gap
        ledger.emit("cell.completed", key="a", fingerprint="f")
        records = canonical_records(ledger.records)
        assert [r["seq"] for r in records] == [0, 1]

    def test_canonical_ledger_is_canonical_json_lines(self):
        ledger = EventLedger()
        ledger.emit("cell.completed", key="a", fingerprint="f")
        text = canonical_ledger(ledger.records)
        assert text.endswith("\n")
        lines = text.splitlines()
        assert all(line == canonical_json(json.loads(line)) for line in lines)


class TestRunSpecEmission:
    def test_cold_run_event_sequence(self):
        ledger = EventLedger()
        report = run_spec(_spec(), jobs=1, events=ledger)
        assert report.result == 12
        names = [r["event"] for r in ledger.records]
        assert names[0] == "ledger.opened"
        assert names[1] == "sweep.started"
        assert names[-1] == "sweep.finished"
        assert names.count("cell.submitted") == 3
        assert names.count("cell.flushed") == 3
        # canonical tail in declaration order
        completed = [r["key"] for r in ledger.records if r["event"] == "cell.completed"]
        assert completed == ["x1", "x2", "x3"]

    def test_warm_run_emits_cached_then_resumed(self, tmp_path):
        cache = str(tmp_path / "cache")
        run_spec(_spec(), jobs=1, cache=cache)
        warm = EventLedger()
        run_spec(_spec(), jobs=1, cache=cache, events=warm)
        assert [r["event"] for r in warm.records].count("cell.cached") == 3
        resumed = EventLedger()
        run_spec(_spec(), jobs=1, cache=cache, resume=True, events=resumed)
        assert [r["event"] for r in resumed.records].count("cell.resumed") == 3

    def test_recovery_events_replay_fault_counters(self):
        ledger = EventLedger()
        run_spec(_spec(cell_function=recovering_cell), jobs=1, events=ledger)
        recoveries = [r for r in ledger.records if r["event"] == "cell.recovery"]
        assert len(recoveries) == 3
        assert recoveries[0]["injected"] == 3
        assert recoveries[0]["threatened"] == 2
        assert recoveries[0]["escalations"] == 1

    def test_events_path_argument_writes_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        run_spec(_spec(), jobs=1, events=path)
        names = [r["event"] for r in read_ledger(path)]
        assert "sweep.finished" in names

    def test_sweep_started_declares_jobs_in_meta_only(self):
        ledger = EventLedger()
        run_spec(_spec(), jobs=1, events=ledger)
        started = next(r for r in ledger.records if r["event"] == "sweep.started")
        assert started["meta"]["jobs"] == 1
        assert "jobs" not in canonical_records([started])[0]


class TestCanonicalByteIdentity:
    """The acceptance criterion: canonicalised ledgers are byte-stable
    across ``--jobs``, cold/warm caches and interrupted-then-resumed runs."""

    def _canonical(self, tmp_path, tag, **kwargs):
        path = tmp_path / f"{tag}.events.jsonl"
        run_spec(_spec(xs=(1, 2, 3, 4)), events=path, **kwargs)
        return canonical_ledger(read_ledger(path))

    def test_stable_across_jobs_and_resume(self, tmp_path):
        serial = self._canonical(tmp_path, "serial", jobs=1)
        parallel = self._canonical(
            tmp_path, "parallel", jobs=2, cache=str(tmp_path / "dircache")
        )
        resumed = self._canonical(
            tmp_path, "resumed", jobs=1, cache=str(tmp_path / "dircache"), resume=True
        )
        assert serial == parallel == resumed

    def test_interrupted_then_resumed_matches_uninterrupted(self, tmp_path):
        # simulate an interrupted sweep: a warm cache holding only the
        # first two cells, plus the dead run's partial ledger on disk
        cache = str(tmp_path / "cache")
        run_spec(_spec(xs=(1, 2)), jobs=1, cache=cache)
        partial = tmp_path / "resumed.events.jsonl"
        partial.write_text('{"event": "ledger.opened", "torn": true}\n')
        resumed = run_spec(
            _spec(xs=(1, 2, 3, 4)), jobs=1, cache=cache, resume=True, events=partial
        )
        clean = self._canonical(tmp_path, "clean", jobs=1)
        assert resumed.stats.resumed == 2
        assert canonical_ledger(read_ledger(partial)) == clean


class TestRenderEvent:
    def test_renders_fields_and_meta(self):
        record = EventLedger().emit("cell.completed", key="a", fingerprint="abc")
        line = render_event(record)
        assert "cell.completed" in line
        assert "key=a" in line
        assert "fingerprint=abc" in line
        assert line.startswith("+")

    def test_meta_extras_follow_fields(self):
        record = EventLedger().emit("sweep.started", experiment="t", cells=2, jobs=4)
        line = render_event(record)
        assert "cells=2" in line and "jobs=4" in line

    def test_tolerates_unknown_event(self):
        assert "mystery" in render_event({"event": "mystery"})

