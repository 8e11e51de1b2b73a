"""Smoke tests: the shipped example scripts must run end to end.

Only the fast examples run here (the MPEG/WLAN ones replay thousands
of instances and belong to the benchmark tier); each is executed in a
subprocess exactly as a user would run it.  Every example, the slow
ones included, is also imported, so a renamed or deleted library name
fails here rather than only when the script is run.
"""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name, *args, timeout=180):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "Policy comparison" in result.stdout
        assert "deadline met: True" in result.stdout

    def test_random_ctg_sweep(self):
        result = run_example("random_ctg_sweep.py", "1.4")
        assert result.returncode == 0, result.stderr
        assert "Normalised expected energy" in result.stdout

    def test_monte_carlo_sweep(self):
        result = run_example("monte_carlo_sweep.py", "2000")
        assert result.returncode == 0, result.stderr
        assert "instances/s" in result.stdout
        assert "oracle check: executor agrees exactly" in result.stdout
        assert "miss rate" in result.stdout

    def test_stochastic_execution(self):
        result = run_example("stochastic_execution.py", "1000")
        assert result.returncode == 0, result.stderr
        assert "single kernel call" in result.stdout
        assert "reclamations" in result.stdout
        assert "ok: reclamation saved energy" in result.stdout

    def test_schedule_inspection(self, tmp_path):
        result = run_example("schedule_inspection.py", str(tmp_path))
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "mpeg_schedule.svg").exists()
        assert (tmp_path / "mpeg_instance.json").exists()
        assert "Per-scenario execution profile" in result.stdout


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.py")), ids=lambda path: path.name
)
def test_example_imports(path):
    """Importing runs nothing: every example guards ``main()``."""
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
