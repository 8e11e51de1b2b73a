"""Experiment cells are pure functions of their parameters, by execution.

The engine caches cell results by a fingerprint of their parameters and
runs cells in any order, in any process.  Two impurities break that
contract silently:

* a cell that mutates its ``params`` (the class of the old in-place
  ``ctg.deadline`` scaling) changes the inputs a later cell or a cache
  fingerprint sees;
* a cell that writes module state its result then reads makes a second
  in-process run differ from the first, while a fresh worker process
  would reproduce the first.

So for every registered experiment (plus the chaos matrix) the first
``--smoke`` cell runs twice in-process on a deep copy of its params:
the params must be unchanged afterwards and both runs must return the
same ``values``.  (Cells that cannot be imported by a worker are
rejected at run time by ``workers.require_parallelisable``; see
``tests/test_engine.py``.)
"""

import copy

import pytest

from repro.__main__ import (
    CHAOS_SMOKE_LENGTH,
    CHAOS_SMOKE_TRAIN,
    CHAOS_SMOKE_WORKLOADS,
    EXPERIMENTS,
)
from repro.experiments import chaos_spec
from repro.experiments.chaos import SMOKE_PLANS
from repro.io import canonical_json


def _smoke_spec(name):
    if name == "chaos":
        return chaos_spec(
            CHAOS_SMOKE_WORKLOADS,
            SMOKE_PLANS,
            ("default", "none"),
            length=CHAOS_SMOKE_LENGTH,
            train=CHAOS_SMOKE_TRAIN,
        )
    return EXPERIMENTS[name](True)


@pytest.mark.parametrize("name", [*sorted(EXPERIMENTS), "chaos"])
def test_first_smoke_cell_is_pure(name):
    spec = _smoke_spec(name)
    original = copy.deepcopy(dict(spec.cells[0].params))
    params = copy.deepcopy(original)

    first = spec.cell_function(params)
    assert params == original, f"{name}: the cell mutated its params"
    second = spec.cell_function(params)
    assert params == original, f"{name}: the cell mutated its params"

    assert canonical_json(first["values"]) == canonical_json(second["values"]), (
        f"{name}: a second in-process run returned different values"
    )
