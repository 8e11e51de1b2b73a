"""Tests for the ``repro cache`` verb and the engine CLI flags
(``--cache-dir``, ``--resume`` validation, ``--no-canonical``)."""

import json
import os
import time

import pytest

from repro.__main__ import main
from repro.experiments import CellCache, run_spec
from repro.experiments.spec import Cell, ExperimentSpec


def tiny_cell(params):
    """Module-level cell for CLI cache tests."""
    return {"values": {"y": params["x"] + 1}}


def _seed_cache(cache_dir, n=3):
    """Populate a cache through a real engine run; returns the report."""
    spec = ExperimentSpec(
        name="tiny",
        cells=tuple(Cell(key=f"x{i}", params={"x": i}) for i in range(n)),
        cell_function=tiny_cell,
        reducer=lambda cells: [c.values["y"] for c in cells],
    )
    return run_spec(spec, jobs=1, cache=str(cache_dir))


class TestCacheVerb:
    def test_stats(self, tmp_path, capsys):
        uri = str(tmp_path / "tree")
        _seed_cache(uri)
        assert main(["cache", "stats", uri]) == 0
        out = capsys.readouterr().out
        assert "entries:  3" in out
        assert f"dir:{uri}" in out

    @pytest.mark.parametrize("action", ["stats", "verify", "prune", "gc"])
    def test_missing_directory_is_not_an_empty_cache(
        self, tmp_path, capsys, action
    ):
        missing = str(tmp_path / "no" / "such" / "dir")
        args = ["cache", action, missing]
        if action == "prune":
            args += ["--older-than", "0"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == f"cache: no cache at {missing}"
        assert captured.out == ""
        # a regular file is not a cache directory either
        stray = tmp_path / "file"
        stray.write_text("x")
        assert main(["cache", action, str(stray)]) == 2
        assert "no cache at" in capsys.readouterr().err

    def test_verify_clean_and_corrupt(self, tmp_path, capsys):
        uri = str(tmp_path / "tree")
        report = _seed_cache(uri)
        assert main(["cache", "verify", uri]) == 0
        store = CellCache(uri)
        store.path_for(report.cells[0].fingerprint).write_text("garbage")
        assert main(["cache", "verify", uri]) == 1
        assert "1 corrupt" in capsys.readouterr().out

    def test_gc_removes_corruption(self, tmp_path, capsys):
        uri = str(tmp_path / "tree")
        report = _seed_cache(uri)
        store = CellCache(tmp_path / "tree")
        store.path_for(report.cells[0].fingerprint).write_text("garbage")
        assert main(["cache", "gc", uri]) == 0
        assert "removed 1 corrupt" in capsys.readouterr().out
        assert main(["cache", "verify", uri]) == 0

    def test_prune_requires_older_than(self, tmp_path, capsys):
        uri = str(tmp_path / "tree")
        _seed_cache(uri)
        assert main(["cache", "prune", uri]) == 2
        assert "--older-than" in capsys.readouterr().err

    def test_prune_evicts_by_age(self, tmp_path, capsys):
        uri = str(tmp_path / "tree")
        _seed_cache(uri)
        # nothing is older than a day
        assert main(["cache", "prune", uri, "--older-than", "1"]) == 0
        assert "pruned 0" in capsys.readouterr().out
        # --older-than 0 evicts everything unprotected
        assert main(["cache", "prune", uri, "--older-than", "0"]) == 0
        assert "pruned 3" in capsys.readouterr().out
        store = CellCache(tmp_path / "tree")
        assert store.fingerprints() == []

    def test_prune_never_touches_a_live_sweeps_fingerprints(
        self, tmp_path, capsys
    ):
        """The satellite guarantee: fingerprints referenced by a live
        sweep's artifact survive any prune, whatever their age."""
        cache_uri = str(tmp_path / "tree")
        report = _seed_cache(cache_uri)
        from repro.experiments import write_artifact

        artifact = write_artifact(tmp_path / "artifacts", report)
        # back-date every entry so an age-based prune would take them all
        store = CellCache(tmp_path / "tree")
        for fp in store.fingerprints():
            path = store.path_for(fp)
            old = time.time() - 30 * 86400
            os.utime(path, (old, old))
        live = {cell.fingerprint for cell in report.cells}
        assert (
            main(
                [
                    "cache", "prune", cache_uri,
                    "--older-than", "7",
                    "--keep-artifact", str(artifact),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "3 protected" in out
        assert set(store.fingerprints()) == live
        # the warm sweep still replays entirely from cache
        warm = _seed_cache(cache_uri)
        assert warm.stats.hits == 3

    def test_bad_keep_artifact_is_a_usage_error(self, tmp_path, capsys):
        uri = str(tmp_path / "tree")
        _seed_cache(uri)
        missing = tmp_path / "nope.json"
        code = main(
            ["cache", "prune", uri, "--older-than", "0",
             "--keep-artifact", str(missing)]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err


class TestEngineCliFlags:
    def test_resume_requires_a_cache(self, capsys):
        assert main(["run", "table1", "--smoke", "--resume"]) == 2
        assert "--resume requires" in capsys.readouterr().err
        assert main(["chaos", "--smoke", "--resume"]) == 2
        assert "--resume requires" in capsys.readouterr().err

    def test_cache_dir_round_trips_through_resume(self, tmp_path, capsys):
        cache = str(tmp_path / "cells")
        assert main(["run", "table1", "--smoke", "--jobs", "1",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["run", "table1", "--smoke", "--jobs", "1",
                     "--cache-dir", cache, "--resume", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["backend"] == f"dir:{cache}"
        assert payload["cache"]["hits"] > 0
        assert payload["cache"]["misses"] == 0

    def test_chaos_no_canonical_keeps_real_cache_stats(self, tmp_path, capsys):
        cache = str(tmp_path / "tree")
        args = ["chaos", "--smoke", "--jobs", "1", "--cache-dir", cache,
                "--length", "40"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--format", "json", "--no-canonical"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["enabled"] is True
        assert payload["cache"]["hit_rate"] == 1.0
        assert payload["engine"]["counters"]["cache.backend.hit"] > 0
