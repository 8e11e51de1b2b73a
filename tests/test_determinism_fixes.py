"""Regression tests for the sites the flow analyzer flagged.

Each fixed site gets a hash-seed-variation test: the computation runs
in two subprocesses with different ``PYTHONHASHSEED`` values and must
print byte-identical results.  Before the fixes, set-iteration order
(hash-seed-dependent for strings) could leak into float sums, dict
insertion orders and ready-list orders; sorting the iterations makes
the results seed-independent by construction.

The batch-kernel dtype fixes (NUM303) are locked in statically: the
flow rules must stay quiet on ``repro/batch/kernels.py``.
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
        """Float sum over ``scenario.active`` (the DET201 finding)."""
        assert_seed_independent(
            "from repro.workloads import mpeg_ctg, mpeg_platform\n"
            "from repro.ctg.minterms import enumerate_scenarios\n"
            "from repro.experiments.table45 import _scenario_cost\n"
            "ctg, platform = mpeg_ctg(), mpeg_platform()\n"
            "for s in enumerate_scenarios(ctg):\n"
            "    print(repr(_scenario_cost(platform, s)))\n"
        )

    def test_minterms_activation_and_exclusion(self):
        """Dict build-up over ``scenario.active`` (two DET201 findings)."""
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
        """Ready-candidate enumeration over a task set (DET201 finding)."""
        assert_seed_independent(
            "from repro.workloads import mpeg_ctg, mpeg_platform\n"
            "from repro.scheduling.dls import dls_schedule\n"
            "schedule = dls_schedule(mpeg_ctg(), mpeg_platform())\n"
            "for task in sorted(schedule.placements):\n"
            "    p = schedule.placements[task]\n"
            "    print(task, p.pe, repr(p.wcet), repr(p.speed))\n"
        )


class TestKernelDtypePins:
    def test_kernels_have_no_unpinned_accumulators(self):
        """NUM303 must stay quiet on the batch kernels (the fixed sites)."""
        from repro.check.callgraph import parse_modules, build_callgraph
        from repro.check.flow import analyze_modules

        files = sorted((SRC / "repro").rglob("*.py"))
        modules = parse_modules(files, SRC)
        graph = build_callgraph(modules)
        kernel_findings = [
            d
            for d in analyze_modules(modules, graph)
            if d.code == "NUM303" and "kernels" in d.subject
        ]
        assert kernel_findings == []

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
