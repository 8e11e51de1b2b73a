"""Tests for the command-line interface (python -m repro)."""

import json

import pytest

from repro.__main__ import EXPERIMENTS, main
from repro.experiments import ARTIFACT_SCHEMA, load_artifact, validate_artifact
from repro.ctg import figure1_ctg
from repro.io import save_instance
from repro.platform import PlatformConfig, generate_platform


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "deadline" in out
        assert "makespan" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "nonsense"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Reference Alg 1" in out

    def test_schedule_instance(self, tmp_path, capsys):
        ctg = figure1_ctg()
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=2, seed=5))
        path = tmp_path / "instance.json"
        save_instance(path, ctg, platform)
        assert main(["schedule", str(path), "--deadline-factor", "1.5"]) == 0
        out = capsys.readouterr().out
        assert "expected energy" in out
        assert "t8" in out

    @pytest.mark.parametrize("content", [None, "not json"])
    def test_schedule_unloadable_instance_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "instance.json"
        if content is not None:
            path.write_text(content)
        assert main(["schedule", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schedule: cannot load")
        assert "Traceback" not in err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestRunEngineFlags:
    def test_table3_parallel_json_round_trips_schema(self, capsys):
        assert main(["run", "table3", "--jobs", "2", "--smoke", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate_artifact(payload)
        assert payload["schema"] == ARTIFACT_SCHEMA
        assert payload["experiment"] == "table3"
        assert payload["jobs"] == 2
        assert payload["cells"]
        for cell in payload["cells"]:
            assert cell["fingerprint"]
            assert cell["values"]

    def test_run_all_smoke_exits_zero(self, capsys):
        assert main(["run", "all", "--smoke", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert f"=== {name} ===" in out
        assert "[engine:" in out

    def test_cache_dir_hits_on_second_run(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ["run", "figure4", "--smoke", "--cache-dir", str(cache), "--format", "json"]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["cache"]["hits"] == 0
        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["cache"]["hits"] == warm["cache"]["misses"] + warm["cache"]["hits"]
        assert warm["cache"]["hit_rate"] == 1.0
        assert warm["result"] == cold["result"]

    def test_artifacts_dir_writes_one_file_per_experiment(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert (
            main(
                ["run", "figure4", "table3", "--smoke", "--artifacts-dir", str(out_dir)]
            )
            == 0
        )
        capsys.readouterr()
        for name in ("figure4", "table3"):
            payload = load_artifact(out_dir / f"{name}.json")
            assert payload["experiment"] == name

    def test_jobs_do_not_change_stdout(self, capsys):
        assert main(["run", "table3", "--smoke", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["run", "table3", "--smoke", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        # engine line differs only in the jobs/time fields
        strip = lambda text: [
            line for line in text.splitlines() if not line.startswith("[engine:")
        ]
        assert strip(parallel) == strip(serial)


class TestEngineFlagValidation:
    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("flag", ["--jobs", "--reorder-window"])
    @pytest.mark.parametrize("verb", [["run", "table1"], ["chaos"]], ids=["run", "chaos"])
    def test_non_positive_counts_are_usage_errors(self, capsys, verb, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([*verb, "--smoke", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: must be >= 1, got {value}" in err
        assert "Traceback" not in err


class TestCheckVerb:
    def test_check_workload_by_name(self, capsys):
        assert main(["check", "cruise", "--deadline-factor", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "cruise" in out
        assert "check passed" in out

    def test_check_saved_instance(self, tmp_path, capsys):
        ctg = figure1_ctg()
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=2, seed=5))
        path = tmp_path / "instance.json"
        save_instance(path, ctg, platform)
        assert main(["check", str(path), "--deadline-factor", "1.5"]) == 0
        assert "check passed" in capsys.readouterr().out

    def test_check_no_schedule_skips_building_one(self, capsys):
        assert main(["check", "cruise", "--no-schedule"]) == 0
        assert "check passed" in capsys.readouterr().out

    def test_check_json_output(self, capsys):
        assert main(["check", "cruise", "--json"]) == 0
        out = capsys.readouterr().out
        assert '"ok": true' in out
        assert '"checks_run"' in out

    def test_check_unloadable_target_reports_and_continues(self, tmp_path, capsys):
        ctg = figure1_ctg()
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=2, seed=5))
        path = tmp_path / "instance.json"
        save_instance(path, ctg, platform)
        bad = tmp_path / "missing.json"
        assert main(["check", str(bad), str(path), "--deadline-factor", "1.5"]) == 1
        captured = capsys.readouterr()
        assert "cannot load target" in captured.err
        assert "check passed" in captured.out  # the good target still ran

    def test_schedule_with_check_flag(self, tmp_path, capsys):
        ctg = figure1_ctg()
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=2, seed=5))
        path = tmp_path / "instance.json"
        save_instance(path, ctg, platform)
        assert main(["schedule", str(path), "--check"]) == 0
        assert "expected energy" in capsys.readouterr().out
