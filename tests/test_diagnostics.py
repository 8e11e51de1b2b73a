"""Tests for the diagnostics core: registry, records, reports, docs."""

import json
import re
from pathlib import Path

import pytest

from repro.check import (
    CODE_REGISTRY,
    CODE_TABLE,
    CheckReport,
    Diagnostic,
    Severity,
    code_info,
)

DOCS = Path(__file__).resolve().parent.parent / "docs" / "diagnostics.md"

_PREFIXES = ("CTG", "PLAT", "SCHED", "LINK", "CACHE", "AST", "FAULT", "DET", "NUM", "ENG")


class TestRegistry:
    def test_codes_are_well_formed(self):
        for info in CODE_TABLE:
            assert re.fullmatch(r"[A-Z]+\d{3}", info.code), info.code
            assert info.code.rstrip("0123456789") in _PREFIXES
            assert info.title
            assert isinstance(info.severity, Severity)

    def test_registry_matches_table(self):
        assert len(CODE_REGISTRY) == len(CODE_TABLE)
        for info in CODE_TABLE:
            assert CODE_REGISTRY[info.code] is info

    def test_code_info_lookup(self):
        assert code_info("CTG012").severity is Severity.ERROR
        with pytest.raises(KeyError):
            code_info("NOPE999")

    def test_severity_ordering_and_labels(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR
        assert Severity.ERROR.label == "error"


class TestDiagnostic:
    def test_severity_defaults_from_registry(self):
        d = Diagnostic("LINK003", "slow transfer")
        assert d.severity is Severity.WARNING

    def test_explicit_severity_wins(self):
        d = Diagnostic("LINK003", "slow transfer", severity=Severity.ERROR)
        assert d.severity is Severity.ERROR

    def test_unregistered_code_rejected(self):
        with pytest.raises(ValueError, match="unregistered"):
            Diagnostic("CTG999", "made up")

    def test_str_and_dict_forms(self):
        d = Diagnostic("SCHED001", "task 'a' is not placed", subject="a")
        assert str(d) == "error SCHED001 [a]: task 'a' is not placed"
        assert d.to_dict() == {
            "code": "SCHED001",
            "severity": "error",
            "subject": "a",
            "symbol": "",
            "message": "task 'a' is not placed",
        }

    def test_symbol_round_trips(self):
        d = Diagnostic(
            "AST103", "float equality", subject="m.py:3:5", symbol="m:f"
        )
        assert d.to_dict()["symbol"] == "m:f"


class TestCheckReport:
    def report(self):
        r = CheckReport(checks_run=["ctg"])
        r.add(Diagnostic("CTG015", "no distribution", subject="b1"))
        r.extend(
            [
                Diagnostic("SCHED030", "too slow"),
                Diagnostic("SCHED030", "also too slow", subject="s2"),
            ]
        )
        return r

    def test_queries(self):
        r = self.report()
        assert not r.ok
        assert len(r) == 3
        assert len(r.errors) == 2 and len(r.warnings) == 1
        assert r.codes() == ["CTG015", "SCHED030"]
        assert r.has("SCHED030") and not r.has("CTG001")
        assert len(r.by_code("SCHED030")) == 2

    def test_empty_report_is_ok(self):
        assert CheckReport().ok

    def test_render_text_sorts_worst_first(self):
        lines = self.report().render_text(header="unit").splitlines()
        assert lines[0] == "unit"
        assert lines[1].startswith("error") and lines[3].startswith("warning")
        assert lines[-1] == "check FAILED: 2 errors, 1 warning"

    def test_summary_singular(self):
        r = CheckReport(diagnostics=[Diagnostic("CTG001", "cycle")])
        assert r.summary() == "check FAILED: 1 error"

    def test_json_schema(self):
        payload = json.loads(self.report().to_json())
        assert payload["ok"] is False
        assert payload["errors"] == 2 and payload["warnings"] == 1
        assert payload["checks_run"] == ["ctg"]
        assert {d["code"] for d in payload["diagnostics"]} == {"CTG015", "SCHED030"}


class TestDocsCoverage:
    """docs/diagnostics.md and CODE_TABLE must never drift apart."""

    def documented_codes(self):
        text = DOCS.read_text(encoding="utf-8")
        return re.findall(r"^### (\w+)", text, flags=re.MULTILINE)

    def test_every_code_documented(self):
        documented = set(self.documented_codes())
        missing = [info.code for info in CODE_TABLE if info.code not in documented]
        assert not missing, f"codes missing from docs/diagnostics.md: {missing}"

    def test_no_phantom_docs_entries(self):
        phantom = [c for c in self.documented_codes() if c not in CODE_REGISTRY]
        assert not phantom, f"documented but unregistered codes: {phantom}"

    def test_docs_state_each_severity(self):
        text = DOCS.read_text(encoding="utf-8")
        for info in CODE_TABLE:
            section = text.split(f"### {info.code}", 1)[1].split("###", 1)[0]
            assert info.severity.label in section.lower(), (
                f"{info.code}: severity {info.severity.label!r} not stated"
            )
