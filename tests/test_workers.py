"""Tests for the worker-dispatch layer: pool selection and the pools
behind ``run_spec(jobs=...)``."""

import pytest

from repro.experiments import (
    Cell,
    EngineError,
    ExperimentSpec,
    LocalProcessPool,
    SerialPool,
    resolve_pool,
    run_spec,
)


def triple_cell(params):
    """Module-level cell function (importable by pool workers)."""
    return {"values": {"triple": params["x"] * 3}}


def bad_cell(params):
    """Cell function violating the payload contract."""
    return {"no_values": True}


class TestPoolSelection:
    def test_serial_below_fanout(self):
        assert isinstance(resolve_pool(triple_cell, 1), SerialPool)
        assert isinstance(resolve_pool(triple_cell, 0), SerialPool)
        with resolve_pool(triple_cell, 2) as pool:
            assert isinstance(pool, LocalProcessPool)

    def test_serial_pool_contract(self):
        pool = SerialPool(triple_cell)
        pool.submit(0, {"x": 1})
        pool.submit(1, {"x": 2})
        tag, payload = pool.ready()
        assert tag == 0
        assert payload["values"] == {"triple": 3}
        assert payload["seconds"] >= 0.0
        tag, payload = pool.ready()
        assert tag == 1
        assert payload["values"] == {"triple": 6}
        with pytest.raises(EngineError, match="empty serial pool"):
            pool.ready()


class TestLocalProcessPool:
    def test_completions_carry_their_tags(self):
        with LocalProcessPool(triple_cell, 2) as pool:
            for tag, x in enumerate((4, 5, 6)):
                pool.submit(tag, {"x": x})
            done = dict(pool.ready() for _ in range(3))
            with pytest.raises(EngineError, match="no outstanding cells"):
                pool.ready()
        assert {tag: p["values"]["triple"] for tag, p in done.items()} == {
            0: 12,
            1: 15,
            2: 18,
        }

    def test_propagates_cell_failures(self):
        spec = ExperimentSpec(
            name="bad",
            cells=(Cell(key="a", params={"x": 1}), Cell(key="b", params={"x": 2})),
            cell_function=bad_cell,
            reducer=lambda cells: None,
        )
        with pytest.raises(EngineError, match="'values' key"):
            run_spec(spec, jobs=2)
