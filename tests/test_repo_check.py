"""The repository analysis gate: baseline, CLI, and the repo's own health.

The flagship assertion of this module is ``test_repo_is_clean``: the
full static-analysis stack (AST lint + call-graph flow rules) must
produce **zero unwaived findings** on this repository — the same gate
CI runs via ``python -m repro check --repo``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.check.baseline import (
    BaselineError,
    Waiver,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.check.diagnostics import Diagnostic
from repro.check.repo import analyze_repo
from repro.check.sarif import validate_sarif

ROOT = Path(__file__).resolve().parents[1]


def finding(code="DET201", subject="src/repro/x.py:10:5", symbol="repro.x:f"):
    return Diagnostic(code, "msg", subject=subject, symbol=symbol)


class TestWaiverMatching:
    def test_code_only_waiver_matches_everywhere(self):
        waiver = Waiver(code="DET201", reason="r")
        assert waiver.matches(finding())
        assert waiver.matches(finding(subject="other.py:1:1", symbol="o:g"))

    def test_file_scoped_waiver(self):
        waiver = Waiver(code="DET201", file="src/repro/x.py", reason="r")
        assert waiver.matches(finding())
        assert not waiver.matches(finding(subject="src/repro/y.py:10:5"))

    def test_symbol_scoped_waiver(self):
        waiver = Waiver(code="DET201", symbol="repro.x:f", reason="r")
        assert waiver.matches(finding())
        assert not waiver.matches(finding(symbol="repro.x:g"))

    def test_code_mismatch_never_matches(self):
        waiver = Waiver(code="DET202", file="src/repro/x.py", reason="r")
        assert not waiver.matches(finding())

    def test_apply_baseline_splits_and_tracks_usage(self):
        waivers = [
            Waiver(code="DET201", symbol="repro.x:f", reason="r"),
            Waiver(code="NUM301", reason="never matches"),
        ]
        unwaived, waived, unused = apply_baseline(
            [finding(), finding(code="DET203")], waivers
        )
        assert [d.code for d in unwaived] == ["DET203"]
        assert [d.code for d in waived] == ["DET201"]
        assert unused == [waivers[1]]


class TestBaselineFile:
    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == []

    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [finding()], reason="because")
        (waiver,) = load_baseline(path)
        assert waiver.code == "DET201"
        assert waiver.file == "src/repro/x.py"
        assert waiver.symbol == "repro.x:f"
        assert waiver.reason == "because"

    def test_keep_preserves_curated_reasons(self, tmp_path):
        path = tmp_path / "baseline.json"
        curated = Waiver(code="DET201", symbol="repro.x:f", reason="curated")
        written = write_baseline(
            path, [finding(), finding(code="DET203")], reason="TODO", keep=[curated]
        )
        reasons = {w.code: w.reason for w in written}
        assert reasons == {"DET201": "curated", "DET203": "TODO"}

    def test_rejects_unknown_code(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {"version": 1, "waivers": [{"code": "NOPE1", "reason": "x"}]}
            )
        )
        with pytest.raises(BaselineError, match="NOPE1"):
            load_baseline(path)

    def test_rejects_missing_reason(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps({"version": 1, "waivers": [{"code": "DET201"}]})
        )
        with pytest.raises(BaselineError, match="reason"):
            load_baseline(path)

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{nope")
        with pytest.raises(BaselineError, match="JSON"):
            load_baseline(path)


class TestRepoGate:
    def test_repo_is_clean(self):
        """The committed tree passes its own gate with zero unwaived findings."""
        analysis = analyze_repo(ROOT)
        assert analysis.ok, analysis.report.render_text()
        assert not analysis.unused_waivers, [
            w.to_dict() for w in analysis.unused_waivers
        ]

    def test_committed_baseline_is_loadable_and_justified(self):
        waivers = load_baseline(ROOT / "lint-baseline.json")
        assert all(w.reason.strip() for w in waivers)

    def test_analysis_is_deterministic(self):
        first = analyze_repo(ROOT)
        second = analyze_repo(ROOT)
        assert first.report.to_json() == second.report.to_json()
        assert [d.to_dict() for d in first.all_diagnostics] == [
            d.to_dict() for d in second.all_diagnostics
        ]

    def test_waived_findings_reported_not_gating(self):
        analysis = analyze_repo(ROOT)
        assert all(d.code == "DET202" for d in analysis.waived)


class TestRepoGateOnFixtureTree:
    def make_repo(self, tmp_path, cell_body):
        src = tmp_path / "src" / "repro"
        src.mkdir(parents=True)
        (src / "__init__.py").write_text("")
        (src / "core.py").write_text(cell_body)
        return tmp_path

    def test_finding_fails_the_gate(self, tmp_path):
        root = self.make_repo(
            tmp_path,
            "def canonical_json(xs):\n    return list(set(xs))\n",
        )
        analysis = analyze_repo(root)
        assert not analysis.ok
        assert analysis.report.codes() == ["DET201"]

    def test_baseline_waives_the_finding(self, tmp_path):
        root = self.make_repo(
            tmp_path,
            "def canonical_json(xs):\n    return list(set(xs))\n",
        )
        (root / "lint-baseline.json").write_text(
            json.dumps(
                {
                    "version": 1,
                    "waivers": [
                        {
                            "code": "DET201",
                            "symbol": "repro.core:canonical_json",
                            "reason": "fixture",
                        }
                    ],
                }
            )
        )
        analysis = analyze_repo(root)
        assert analysis.ok
        assert [d.code for d in analysis.waived] == ["DET201"]

    def test_stale_waiver_is_reported_unused(self, tmp_path):
        root = self.make_repo(tmp_path, "def fine():\n    return 1\n")
        (root / "lint-baseline.json").write_text(
            json.dumps(
                {
                    "version": 1,
                    "waivers": [{"code": "DET203", "reason": "stale"}],
                }
            )
        )
        analysis = analyze_repo(root)
        assert analysis.ok
        assert [w.code for w in analysis.unused_waivers] == ["DET203"]


class TestCli:
    def test_check_repo_exits_zero_on_this_repo(self, capsys):
        assert main(["check", "--repo", "--root", str(ROOT)]) == 0
        out = capsys.readouterr().out
        assert "check passed" in out

    def test_check_repo_sarif_stdout_validates(self, capsys):
        assert (
            main(["check", "--repo", "--root", str(ROOT), "--format", "sarif"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert validate_sarif(payload) == []

    def test_check_repo_sarif_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.sarif"
        assert (
            main(
                [
                    "check",
                    "--repo",
                    "--root",
                    str(ROOT),
                    "--sarif-out",
                    str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert validate_sarif(payload) == []

    def test_check_repo_fails_on_finding(self, tmp_path, capsys):
        src = tmp_path / "src" / "repro"
        src.mkdir(parents=True)
        (src / "__init__.py").write_text("")
        (src / "bad.py").write_text(
            "import random\ndef f():\n    return random.random()\n"
        )
        assert main(["check", "--repo", "--root", str(tmp_path)]) == 1
        assert "DET203" in capsys.readouterr().out

    def test_check_repo_stale_waiver_fails(self, tmp_path, capsys):
        src = tmp_path / "src" / "repro"
        src.mkdir(parents=True)
        (src / "__init__.py").write_text("")
        (src / "ok.py").write_text("def f():\n    return 1\n")
        (tmp_path / "lint-baseline.json").write_text(
            json.dumps(
                {"version": 1, "waivers": [{"code": "DET203", "reason": "stale"}]}
            )
        )
        assert main(["check", "--repo", "--root", str(tmp_path)]) == 1
        assert "stale baseline waiver" in capsys.readouterr().err

    def test_update_baseline_writes_and_then_passes(self, tmp_path, capsys):
        src = tmp_path / "src" / "repro"
        src.mkdir(parents=True)
        (src / "__init__.py").write_text("")
        (src / "bad.py").write_text(
            "import random\ndef f():\n    return random.random()\n"
        )
        assert (
            main(["check", "--repo", "--root", str(tmp_path), "--update-baseline"])
            == 0
        )
        assert (tmp_path / "lint-baseline.json").exists()
        capsys.readouterr()
        assert main(["check", "--repo", "--root", str(tmp_path)]) == 0

    def test_check_without_targets_or_repo_errors(self, capsys):
        assert main(["check"]) == 2
        assert "provide TARGET" in capsys.readouterr().err
