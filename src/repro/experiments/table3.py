"""Experiment: the paper's Table 3 — vehicle cruise controller.

The 32-task, 2-branch cruise-controller CTG on 5 PEs, deadline twice
the optimum schedule length (§IV).  A training road trace profiles the
non-adaptive algorithm; three further 1000-vector road traces are
replayed under both policies — thresholds 0.1, 0.1 and 0.5 as in the
paper.  Expected outcome: small (≈5%) savings, because the CTG has
only three minterms of nearly equal energy.

Declared as an :class:`~repro.experiments.spec.ExperimentSpec`: one
cell per vector sequence.  Each cell rebuilds the (deterministic)
workload, training trace and profile from its parameters, so cells are
independent and bit-identical at any ``--jobs`` value; the spec's
fingerprint context carries the serialised cruise instance so cache
entries invalidate whenever the workload model changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..adaptive import AdaptiveConfig
from ..analysis import format_table, percent_savings
from ..io import instance_fingerprint
from ..profiling import StageProfiler
from ..scheduling import set_deadline_from_makespan
from ..sim import empirical_distribution, run_adaptive, run_non_adaptive
from ..workloads import cruise_ctg, cruise_platform, road_trace
from .spec import Cell, CellResult, ExperimentSpec

CRUISE_DEADLINE_FACTOR = 2.0
CRUISE_WINDOW = 20
#: (trace seed, threshold) per vector sequence, mirroring the paper's
#: "threshold value of 0.1 for first two sets and 0.5 for the third".
CRUISE_SEQUENCES: Tuple[Tuple[int, float], ...] = ((32, 0.1), (33, 0.1), (34, 0.5))
CRUISE_TRAIN_SEED = 31


@dataclass
class Table3Row:
    """One road sequence's energies and call count."""

    sequence: int
    threshold: float
    non_adaptive: float
    adaptive: float
    calls: int

    @property
    def savings(self) -> float:
        """Percent saving of adaptive over non-adaptive."""
        return percent_savings(self.non_adaptive, self.adaptive)


@dataclass
class Table3Result:
    """All Table-3 rows."""

    rows: List[Table3Row] = field(default_factory=list)

    def format(self) -> str:
        """Render Table 3 with the paper reference note."""
        table = format_table(
            ["Vector sequence", "T", "Non-adaptive", "Adaptive", "savings (%)", "# calls"],
            [
                [r.sequence, r.threshold, round(r.non_adaptive), round(r.adaptive),
                 round(r.savings, 1), r.calls]
                for r in self.rows
            ],
            title="Table 3 — Energy consumption of vehicle cruise controller system",
        )
        return table + (
            "\n(paper: savings ≈5% on all three sequences; calls ≈150 at "
            "T=0.1, ≈9 at T=0.5 — low gain expected: only three minterms "
            "of nearly equal energy)"
        )


def table3_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """One road sequence replayed under both policies."""
    ctg = cruise_ctg()
    platform = cruise_platform()
    set_deadline_from_makespan(ctg, platform, params["deadline_factor"])
    train = road_trace(ctg, params["length"], seed=params["train_seed"])
    profile = empirical_distribution(ctg, train)

    sequence = road_trace(ctg, params["length"], seed=params["seed"])
    online = run_non_adaptive(ctg, platform, sequence, profile)
    adaptive = run_adaptive(
        ctg,
        platform,
        sequence,
        profile,
        AdaptiveConfig(window_size=params["window"], threshold=params["threshold"]),
    )
    stages = StageProfiler()
    for run in (online, adaptive):
        if run.profile is not None:
            stages.merge(run.profile)
    return {
        "values": {
            "non_adaptive": online.total_energy,
            "adaptive": adaptive.total_energy,
            "calls": adaptive.reschedule_calls,
        },
        "profile": stages.to_dict(),
    }


def _reduce_table3(cells: List[CellResult]) -> Table3Result:
    result = Table3Result()
    for cell in cells:
        result.rows.append(
            Table3Row(
                sequence=cell.params["sequence"],
                threshold=cell.params["threshold"],
                non_adaptive=cell.values["non_adaptive"],
                adaptive=cell.values["adaptive"],
                calls=cell.values["calls"],
            )
        )
    return result


def table3_spec(
    length: int = 1000,
    deadline_factor: float = CRUISE_DEADLINE_FACTOR,
    sequences: Tuple[Tuple[int, float], ...] = CRUISE_SEQUENCES,
) -> ExperimentSpec:
    """Table 3 as a declarative spec: one cell per road sequence."""
    cells = tuple(
        Cell(
            key=f"seq{index}",
            params={
                "sequence": index,
                "seed": seed,
                "threshold": threshold,
                "length": length,
                "deadline_factor": deadline_factor,
                "train_seed": CRUISE_TRAIN_SEED,
                "window": CRUISE_WINDOW,
            },
        )
        for index, (seed, threshold) in enumerate(sequences, start=1)
    )
    return ExperimentSpec(
        name="table3",
        cells=cells,
        cell_function=table3_cell,
        reducer=_reduce_table3,
        context={"instance": instance_fingerprint(cruise_ctg(), cruise_platform())},
    )
