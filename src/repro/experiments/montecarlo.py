"""Experiment: batched Monte-Carlo workload sweep.

The paper argues its online algorithm keeps the schedule feasible
under non-deterministic workloads; the natural sanity check is a large
Monte-Carlo sweep — sample many branch-decision instances from the
profiled distribution, evaluate every instance's finish time and
energy under the stretched schedule, and report the distribution
(miss rate, mean/p95 finish, mean energy).

One cell per built-in workload.  Each cell samples ``n`` instances
through :func:`repro.batch.monte_carlo` — the array-native kernel
that evaluates all instances in a handful of numpy operations instead
of replaying the object-walking executor per instance (see
``docs/algorithms.md`` §6.5).  The sampled statistics are seeded and
therefore canonical values; the sweep's wall-clock lives in the cell's
non-canonical ``timing`` section, so canonical artifacts stay
byte-stable while ``repro report`` can still show the throughput.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..analysis import format_table
from ..profiling import StageProfiler
from ..scheduling import set_deadline_from_makespan
from .spec import Cell, CellResult, ExperimentSpec

#: Workloads swept by default (every built-in workload).
MONTECARLO_WORKLOADS: Tuple[str, ...] = ("mpeg", "cruise", "wlan")

#: Instances per workload in the full sweep.
MONTECARLO_INSTANCES = 10_000

#: Deadline relative to the nominal-speed online schedule length.
MONTECARLO_DEADLINE_FACTOR = 1.3


@dataclass
class MonteCarloRow:
    """One workload's sampled finish/energy distribution."""

    workload: str
    n: int
    mean_finish: float
    p95_finish: float
    mean_energy: float
    miss_rate: float
    sweep_seconds: float = 0.0

    @property
    def instances_per_second(self) -> float:
        """Sweep throughput (0 when the timing was zeroed)."""
        return self.n / self.sweep_seconds if self.sweep_seconds > 0 else 0.0


@dataclass
class MonteCarloSweepResult:
    """All workload rows of one Monte-Carlo sweep."""

    rows: List[MonteCarloRow] = field(default_factory=list)

    def format(self) -> str:
        """Render the sweep table."""
        table = format_table(
            ["workload", "n", "mean finish", "p95 finish", "mean energy",
             "miss rate"],
            [
                [r.workload, r.n, f"{r.mean_finish:.3f}", f"{r.p95_finish:.3f}",
                 f"{r.mean_energy:.2f}", f"{r.miss_rate:.4f}"]
                for r in self.rows
            ],
            title="Monte Carlo — batched instance sweep (stretched schedule)",
        )
        rates = [r for r in self.rows if r.sweep_seconds > 0]
        if rates:
            table += "\nthroughput: " + ", ".join(
                f"{r.workload} {r.instances_per_second:,.0f} inst/s"
                for r in rates
            )
        return table


def montecarlo_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """Sample one workload's instance distribution with the batch kernel."""
    from .. import workloads as workloads_mod
    from ..batch import monte_carlo

    name = params["workload"]
    ctg = getattr(workloads_mod, f"{name}_ctg")()
    platform = getattr(workloads_mod, f"{name}_platform")()
    set_deadline_from_makespan(ctg, platform, params["deadline_factor"])
    profiler = StageProfiler()

    started = time.perf_counter()
    result = monte_carlo(
        ctg, platform, params["n"], seed=params["seed"], profiler=profiler
    )
    sweep_seconds = time.perf_counter() - started

    summary = result.summary()
    return {
        "values": summary,
        "timing": {"sweep_seconds": sweep_seconds},
        "profile": profiler.to_dict(),
    }


def _reduce_montecarlo(cells: List[CellResult]) -> MonteCarloSweepResult:
    result = MonteCarloSweepResult()
    for cell in cells:
        values = cell.values
        result.rows.append(
            MonteCarloRow(
                workload=cell.params["workload"],
                n=values["n"],
                mean_finish=values["mean_finish"],
                p95_finish=values["p95_finish"],
                mean_energy=values["mean_energy"],
                miss_rate=values["miss_rate"],
                sweep_seconds=cell.timing["sweep_seconds"],
            )
        )
    return result


def montecarlo_spec(
    workloads: Tuple[str, ...] = MONTECARLO_WORKLOADS,
    n: int = MONTECARLO_INSTANCES,
    seed: int = 0,
    deadline_factor: float = MONTECARLO_DEADLINE_FACTOR,
) -> ExperimentSpec:
    """The Monte-Carlo sweep as a declarative spec: one cell per workload."""
    cells = tuple(
        Cell(
            key=name,
            params={
                "workload": name,
                "n": n,
                "seed": seed,
                "deadline_factor": deadline_factor,
            },
        )
        for name in workloads
    )
    return ExperimentSpec(
        name="montecarlo",
        cells=cells,
        cell_function=montecarlo_cell,
        reducer=_reduce_montecarlo,
        timing_keys=("sweep_seconds",),
    )
