"""Tests for the content-addressed cell cache and its engine wiring."""

import json
import threading

import pytest

from repro.experiments import (
    Cell,
    CellCache,
    ExperimentSpec,
    resolve_cache,
    run_spec,
)
from repro.experiments.cache import ENTRY_VERSION


def double_cell(params):
    """Module-level toy cell for cache tests."""
    return {"values": {"double": params["x"] * 2}}


def _collect(cells):
    return [(c.key, c.values["double"]) for c in cells]


def _spec(xs=(1, 2, 3), context=None, name="doubles"):
    return ExperimentSpec(
        name=name,
        cells=tuple(Cell(key=f"x{x}", params={"x": x}) for x in xs),
        cell_function=double_cell,
        reducer=_collect,
        context=context or {},
    )


class TestCellCache:
    def test_miss_then_put_then_hit(self, tmp_path):
        cache = CellCache(tmp_path)
        assert cache.get("ab" * 32) is None
        assert cache.stats.misses == 1
        cache.put("ab" * 32, {"experiment": "x", "key": "a", "values": {"v": 1}})
        entry = cache.get("ab" * 32)
        assert entry is not None
        assert entry["values"] == {"v": 1}
        assert cache.stats.hits == 1

    def test_two_level_fanout_layout(self, tmp_path):
        cache = CellCache(tmp_path)
        fp = "cd" * 32
        path = cache.put(fp, {"experiment": "x", "key": "a", "values": {}})
        assert path == tmp_path / "cd" / f"{fp}.json"
        assert path.exists()

    def test_corrupt_json_is_a_counted_miss(self, tmp_path):
        cache = CellCache(tmp_path)
        fp = "ef" * 32
        path = cache.path_for(fp)
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(fp) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1

    def test_schema_mismatch_is_corrupt(self, tmp_path):
        cache = CellCache(tmp_path)
        fp = "01" * 32
        cache.put(fp, {"experiment": "x", "key": "a", "values": {}})
        payload = json.loads(cache.path_for(fp).read_text())

        payload["entry_version"] = ENTRY_VERSION + 1
        cache.path_for(fp).write_text(json.dumps(payload))
        assert cache.get(fp) is None

        payload["entry_version"] = ENTRY_VERSION
        payload["fingerprint"] = "f" * 64
        cache.path_for(fp).write_text(json.dumps(payload))
        assert cache.get(fp) is None

        del payload["fingerprint"]
        cache.path_for(fp).write_text(json.dumps(payload))
        assert cache.get(fp) is None
        assert cache.stats.corrupt == 3

    def test_resolve_cache_forms(self, tmp_path):
        assert resolve_cache(None) is None
        cache = CellCache(tmp_path)
        assert resolve_cache(cache) is cache
        for form in (str(tmp_path), tmp_path):
            resolved = resolve_cache(form)
            assert isinstance(resolved, CellCache)
            assert resolved.root == tmp_path
            assert resolved.describe() == f"dir:{tmp_path}"

    def test_upsert_replaces_in_place(self, tmp_path):
        cache = CellCache(tmp_path)
        fp = "ef" * 32
        cache.put(fp, {"experiment": "x", "key": "a", "values": {"v": 1}})
        cache.put(fp, {"experiment": "x", "key": "a", "values": {"v": 2}})
        assert cache.get(fp)["values"] == {"v": 2}
        assert cache.fingerprints() == [fp]
        assert cache.contains(fp)

    def test_maintenance_surface(self, tmp_path):
        cache = CellCache(tmp_path)
        run_spec(_spec(), jobs=1, cache=cache)
        checked, corrupt = cache.verify()
        assert checked == 3
        assert corrupt == []
        assert cache.size_bytes() > 0
        victim = cache.fingerprints()[0]
        cache.path_for(victim).write_text("garbage", encoding="utf-8")
        stray = cache.path_for(victim).with_name(f"{victim}.json.tmp1-0")
        stray.write_text("{", encoding="utf-8")
        assert cache.verify()[1] == [victim]
        assert cache.tmp_garbage() == [stray]
        counts = cache.gc()
        assert counts == {"corrupt_removed": 1, "tmp_removed": 1}
        assert len(cache.fingerprints()) == 2
        assert cache.remove(victim) is False


class TestEngineCaching:
    def test_cold_then_warm(self, tmp_path):
        cache = CellCache(tmp_path)
        cold = run_spec(_spec(), jobs=1, cache=cache)
        assert cold.stats.misses == 3
        assert cold.stats.hits == 0
        warm = run_spec(_spec(), jobs=1, cache=cache)
        assert warm.stats.hits == 3
        assert warm.stats.misses == 0
        assert warm.stats.hit_rate == 1.0
        assert warm.result == cold.result
        assert all(cell.cached for cell in warm.cells)

    def test_warm_cache_matches_at_any_jobs(self, tmp_path):
        cache = CellCache(tmp_path)
        cold = run_spec(_spec(), jobs=2, cache=cache)
        warm = run_spec(_spec(), jobs=2, cache=cache)
        assert warm.result == cold.result
        assert warm.stats.hits == 3

    def test_param_change_invalidates_only_that_cell(self, tmp_path):
        cache = CellCache(tmp_path)
        run_spec(_spec((1, 2, 3)), jobs=1, cache=cache)
        partial = run_spec(_spec((1, 2, 9)), jobs=1, cache=cache)
        assert partial.stats.hits == 2
        assert partial.stats.misses == 1
        assert partial.result[-1] == ("x9", 18)

    def test_context_change_invalidates_everything(self, tmp_path):
        cache = CellCache(tmp_path)
        run_spec(_spec(context={"instance": "a"}), jobs=1, cache=cache)
        changed = run_spec(_spec(context={"instance": "b"}), jobs=1, cache=cache)
        assert changed.stats.hits == 0
        assert changed.stats.misses == 3

    def test_package_version_change_invalidates_everything(self, tmp_path, monkeypatch):
        cache = CellCache(tmp_path)
        run_spec(_spec(), jobs=1, cache=cache)
        monkeypatch.setattr("repro.experiments.spec.__version__", "0.0.0-test")
        bumped = run_spec(_spec(), jobs=1, cache=cache)
        assert bumped.stats.hits == 0
        assert bumped.stats.misses == 3

    def test_corrupted_entry_recovers_by_recomputing(self, tmp_path):
        cache = CellCache(tmp_path)
        first = run_spec(_spec(), jobs=1, cache=cache)
        # vandalise one entry on disk
        victim = cache.path_for(first.cells[0].fingerprint)
        victim.write_text("garbage", encoding="utf-8")
        recovered = run_spec(_spec(), jobs=1, cache=cache)
        assert recovered.result == first.result
        assert recovered.stats.corrupt == 1
        assert recovered.stats.hits == 2
        assert recovered.stats.misses == 1
        # the recompute healed the entry
        healed = run_spec(_spec(), jobs=1, cache=cache)
        assert healed.stats.hits == 3

    def test_cached_cells_keep_profile_and_seconds(self, tmp_path):
        cache = CellCache(tmp_path)
        cold = run_spec(_profiled_spec(), jobs=1, cache=cache)
        warm = run_spec(_profiled_spec(), jobs=1, cache=cache)
        assert warm.profile.counters == cold.profile.counters
        for cell in warm.cells:
            assert cell.cached
            assert cell.seconds >= 0.0


def profiled_cell(params):
    return {
        "values": {"double": params["x"] * 2},
        "profile": {"counters": {"work": params["x"]}},
    }


def _profiled_spec():
    return ExperimentSpec(
        name="profiled",
        cells=tuple(Cell(key=f"x{x}", params={"x": x}) for x in (1, 2)),
        cell_function=profiled_cell,
        reducer=_collect,
    )


class TestConcurrentWriters:
    def test_parallel_puts_never_corrupt(self, tmp_path):
        """Many threads upserting the same fingerprints concurrently must
        leave every entry readable — the regression for the old
        ``.tmp{pid}`` temp-name collision between threads of one
        process."""
        cache = CellCache(tmp_path)
        fps = [format(i, "02x") * 32 for i in range(4)]
        errors = []

        def hammer(worker):
            try:
                for round_no in range(25):
                    for fp in fps:
                        cache.put(
                            fp,
                            {
                                "experiment": "x",
                                "key": f"w{worker}",
                                "values": {"round": round_no},
                            },
                        )
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        checked, corrupt = cache.verify()
        assert checked == len(fps)
        assert corrupt == []
        # no temp-file debris left behind by the writers
        assert cache.tmp_garbage() == []

    def test_tmp_names_are_distinct_within_a_process(self, tmp_path):
        from repro.experiments.cache import _TMP_COUNTER

        first = next(_TMP_COUNTER)
        second = next(_TMP_COUNTER)
        assert second == first + 1


class TestCrashMidPutResume:
    def test_resume_recomputes_the_torn_tail(self, tmp_path):
        """A sweep killed mid-``put`` leaves (at worst, on a non-atomic
        filesystem) a torn final entry; ``--resume`` must treat it as
        corrupt, recompute it, and heal the store."""
        cache = CellCache(tmp_path)
        reference = run_spec(_spec(), jobs=1, cache=cache)
        # simulate the torn tail: truncated JSON in the last entry
        victim_fp = reference.cells[-1].fingerprint
        victim = cache.path_for(victim_fp)
        victim.write_text(victim.read_text()[: len(victim.read_text()) // 2])
        resumed = run_spec(_spec(), jobs=1, cache=cache, resume=True)
        assert resumed.result == reference.result
        assert resumed.stats.corrupt == 1
        assert resumed.stats.hits == 2
        assert resumed.stats.resumed == 2
        assert resumed.engine_profile.counters["cache.backend.corrupt"] == 1
        healed = run_spec(_spec(), jobs=1, cache=cache, resume=True)
        assert healed.stats.hits == 3
        assert healed.stats.resumed == 3
        assert healed.engine_profile.counters["engine.stream.resumed"] == 3

    def test_resume_without_cache_is_an_error(self):
        from repro.experiments import EngineError

        with pytest.raises(EngineError, match="resume"):
            run_spec(_spec(), jobs=1, cache=None, resume=True)


class TestRealExperimentCaching:
    def test_figure4_round_trips_through_cache(self, tmp_path):
        from repro.experiments import figure4_spec

        cold = run_spec(figure4_spec(length=150), jobs=1, cache=str(tmp_path))
        warm = run_spec(figure4_spec(length=150), jobs=1, cache=str(tmp_path))
        assert warm.stats.hits == 1
        assert warm.result.selections == cold.result.selections
        assert warm.result.windowed == cold.result.windowed
        assert warm.result.filtered == cold.result.filtered
