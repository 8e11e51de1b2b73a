"""Regression tests for hash-seed-dependent and dtype-sensitive sites.

Each fixed site gets a hash-seed-variation test: the computation runs
in two subprocesses with different ``PYTHONHASHSEED`` values and must
print byte-identical results.  Before the fixes, set-iteration order
(hash-seed-dependent for strings) could leak into float sums, dict
insertion orders and ready-list orders; sorting the iterations makes
the results seed-independent by construction.

The batch kernels' dtype pins are checked by execution: integer
``wcet_factors`` must yield the same float64 results as float ones.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_hashseeded(script: str, seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = str(SRC)
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return result.stdout


def assert_seed_independent(script: str) -> None:
    first = run_hashseeded(script, "1")
    second = run_hashseeded(script, "2")
    assert first == second
    assert first.strip(), "script produced no output"


class TestHashSeedIndependence:
    def test_table45_scenario_cost(self):
        """Float sum over ``scenario.active``: summation order is visible."""
        assert_seed_independent(
            "from repro.workloads import mpeg_ctg, mpeg_platform\n"
            "from repro.ctg.minterms import enumerate_scenarios\n"
            "from repro.experiments.table45 import _scenario_cost\n"
            "ctg, platform = mpeg_ctg(), mpeg_platform()\n"
            "for s in enumerate_scenarios(ctg):\n"
            "    print(repr(_scenario_cost(platform, s)))\n"
        )

    def test_minterms_activation_and_exclusion(self):
        """Dict build-up over ``scenario.active``: insertion order is visible."""
        assert_seed_independent(
            "import json\n"
            "from repro.workloads import mpeg_ctg\n"
            "from repro.ctg.minterms import (\n"
            "    activation_probability, enumerate_scenarios, exclusion_table)\n"
            "ctg = mpeg_ctg()\n"
            "probs = activation_probability(ctg, ctg.default_probabilities)\n"
            "print(json.dumps(list(probs.items())))\n"
            "table = exclusion_table(ctg)\n"
            "print(json.dumps({t: sorted(v) for t, v in table.items()}))\n"
        )

    def test_dls_ready_list_order(self):
        """Ready-candidate enumeration over a task set."""
        assert_seed_independent(
            "from repro.workloads import mpeg_ctg, mpeg_platform\n"
            "from repro.scheduling.dls import dls_schedule\n"
            "schedule = dls_schedule(mpeg_ctg(), mpeg_platform())\n"
            "for task in sorted(schedule.placements):\n"
            "    p = schedule.placements[task]\n"
            "    print(task, p.pe, repr(p.wcet), repr(p.speed))\n"
        )


class TestOrderIndependence:
    def test_table45_scenario_cost_ignores_iteration_order(self):
        """Permuting ``scenario.active`` must not move the cost's last bit.

        On the generated Table-4/5 graphs a reordered float sum differs
        in its last bits, but two hash seeds in subprocesses rarely
        happen to hit such an order, so present the orders directly.
        """
        import random
        from types import SimpleNamespace

        from repro.ctg import enumerate_scenarios, generate_ctg, paper_table4_configs
        from repro.experiments.table45 import TABLE45_PE_COUNTS, _scenario_cost
        from repro.platform import PlatformConfig, generate_platform

        config, pes = paper_table4_configs()[5], TABLE45_PE_COUNTS[5]
        ctg = generate_ctg(config)
        platform = generate_platform(ctg.tasks(), PlatformConfig(pes=pes, seed=config.seed))
        rng = random.Random(3)
        for scenario in enumerate_scenarios(ctg):
            tasks = sorted(scenario.active)
            costs = set()
            for _ in range(20):
                rng.shuffle(tasks)
                costs.add(_scenario_cost(platform, SimpleNamespace(active=tuple(tasks))))
            assert costs == {_scenario_cost(platform, scenario)}


class TestKernelDtypePins:
    def test_kernels_have_no_unpinned_accumulators(self):
        """Integer ``wcet_factors`` give the float-input results, as float64."""
        import numpy as np

        from repro.batch import BatchSchedule, instance_energies, instance_finish_times
        from repro.scheduling import schedule_online, set_deadline_from_makespan
        from repro.workloads import mpeg_ctg, mpeg_platform

        ctg, platform = mpeg_ctg(), mpeg_platform()
        set_deadline_from_makespan(ctg, platform, 1.3)
        batch = BatchSchedule.from_ctg(schedule_online(ctg, platform).schedule)
        rng = np.random.default_rng(7)
        scenarios = rng.integers(0, batch.n_scenarios, size=64)
        int_factors = rng.integers(1, 4, size=(64, batch.n_tasks))
        float_factors = int_factors.astype(np.float64)
        for kernel in (instance_finish_times, instance_energies):
            got = kernel(batch, scenarios, int_factors)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, kernel(batch, scenarios, float_factors))

    def test_stretch_pipeline_stays_float64_end_to_end(self):
        """Pin the stretching pipeline's output dtype end to end."""
        import numpy as np

        from repro.ctg import CtgAnalysis
        from repro.scheduling import (
            dls_schedule,
            set_deadline_from_makespan,
            stretch_schedule,
        )
        from repro.workloads import mpeg_ctg, mpeg_platform

        ctg, platform = mpeg_ctg(), mpeg_platform()
        set_deadline_from_makespan(ctg, platform, 1.3)
        analysis = CtgAnalysis.of(ctg)
        schedule = dls_schedule(ctg, platform, analysis=analysis)
        report = stretch_schedule(schedule, analysis=analysis)
        speeds = np.asarray([report.speeds[task] for task in sorted(ctg.tasks())])
        assert speeds.dtype == np.float64
        assert np.isfinite(speeds).all()
