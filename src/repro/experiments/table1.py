"""Experiment: the paper's Table 1 — online vs the two references.

Five TGFF-style Category-1 CTGs (triplets 25/3/3, 16/3/1, 15/4/2,
15/4/2, 25/4/3) are scheduled with Reference Algorithm 1 (Shin&Kim
[10]-style), Reference Algorithm 2 (ISCAS'07 [17]-style) and the online
algorithm, all given the accurate profiled branch probabilities (no
adaptive behaviour, as §IV specifies for this comparison).  Energies
are normalised with the online algorithm at 100.

Declared as an :class:`~repro.experiments.spec.ExperimentSpec`: one
cell per CTG, executed by the engine (parallel + cached); the reducer
reassembles the rows in paper order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..analysis import format_table, normalise
from ..ctg import GeneratorConfig, generate_ctg, paper_table1_configs
from ..platform import PlatformConfig, generate_platform
from ..profiling import StageProfiler
from ..scheduling import (
    reference_algorithm_1,
    reference_algorithm_2,
    schedule_online,
    set_deadline_from_makespan,
)
from .spec import Cell, CellResult, ExperimentSpec

#: PE counts (the *b* of the paper's a/b/c triplets).
TABLE1_PE_COUNTS: Tuple[int, ...] = (3, 3, 4, 4, 4)

#: Deadline relative to the nominal-speed online schedule length.
TABLE1_DEADLINE_FACTOR = 1.3


@dataclass
class Table1Row:
    """One CTG's normalised energies (online = 100)."""

    index: int
    triplet: str
    reference_1: float
    reference_2: float
    online: float = 100.0
    online_runtime: float = 0.0
    reference_2_runtime: float = 0.0


@dataclass
class Table1Result:
    """All rows plus convenience aggregates."""

    rows: List[Table1Row] = field(default_factory=list)

    @property
    def mean_reference_1(self) -> float:
        """Average normalised Reference-1 energy."""
        return sum(r.reference_1 for r in self.rows) / len(self.rows)

    @property
    def mean_reference_2(self) -> float:
        """Average normalised Reference-2 energy."""
        return sum(r.reference_2 for r in self.rows) / len(self.rows)

    def format(self) -> str:
        """Render Table 1 with the paper reference note."""
        table = format_table(
            ["CTG", "a/b/c", "Reference Alg 1", "Reference Alg 2", "Online"],
            [
                [r.index, r.triplet, round(r.reference_1), round(r.reference_2), 100]
                for r in self.rows
            ],
            title="Table 1 — Energy consumption of online algorithm (online = 100)",
        )
        summary = (
            f"\nmean: ref1 {self.mean_reference_1:.0f}, "
            f"ref2 {self.mean_reference_2:.0f}  "
            f"(paper: ref1 130-290 [avg +39% energy vs online], ref2 87-97)"
        )
        return table + summary


def generator_params(config: GeneratorConfig) -> Dict[str, Any]:
    """JSON parameters that reconstruct a :class:`GeneratorConfig`."""
    return {
        "nodes": config.nodes,
        "branch_nodes": config.branch_nodes,
        "category": config.category,
        "comm_range": list(config.comm_range),
        "seed": config.seed,
        "outcomes_per_branch": config.outcomes_per_branch,
    }


def config_from_params(params: Dict[str, Any]) -> GeneratorConfig:
    """Inverse of :func:`generator_params`."""
    return GeneratorConfig(
        nodes=params["nodes"],
        branch_nodes=params["branch_nodes"],
        category=params["category"],
        comm_range=tuple(params["comm_range"]),
        seed=params["seed"],
        outcomes_per_branch=params["outcomes_per_branch"],
    )


def table1_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """One Table-1 CTG: all three algorithms, normalised energies."""
    config = config_from_params(params["config"])
    pes = params["pes"]
    ctg = generate_ctg(config)
    platform = generate_platform(ctg.tasks(), PlatformConfig(pes=pes, seed=config.seed))
    set_deadline_from_makespan(ctg, platform, params["deadline_factor"])
    probabilities = ctg.default_probabilities
    profiler = StageProfiler()

    started = time.perf_counter()
    # absent key = None = the continuous policy
    online = schedule_online(
        ctg, platform, profiler=profiler, speed_policy=params.get("speed_policy")
    )
    online_runtime = time.perf_counter() - started

    ref1 = reference_algorithm_1(ctg, platform)
    started = time.perf_counter()
    ref2 = reference_algorithm_2(ctg, platform)
    ref2_runtime = time.perf_counter() - started

    energies = normalise(
        {
            "online": online.schedule.expected_energy(probabilities),
            "ref1": ref1.schedule.expected_energy(probabilities),
            "ref2": ref2.schedule.expected_energy(probabilities),
        },
        reference="online",
    )
    return {
        "values": {
            "triplet": f"{config.nodes}/{pes}/{config.branch_nodes}",
            "reference_1": energies["ref1"],
            "reference_2": energies["ref2"],
        },
        "timing": {
            "online_runtime": online_runtime,
            "reference_2_runtime": ref2_runtime,
        },
        "profile": profiler.to_dict(),
    }


def _reduce_table1(cells: List[CellResult]) -> Table1Result:
    result = Table1Result()
    for cell in cells:
        values = cell.values
        result.rows.append(
            Table1Row(
                index=cell.params["index"],
                triplet=values["triplet"],
                reference_1=values["reference_1"],
                reference_2=values["reference_2"],
                online_runtime=cell.timing["online_runtime"],
                reference_2_runtime=cell.timing["reference_2_runtime"],
            )
        )
    return result


def table1_spec(
    deadline_factor: float = TABLE1_DEADLINE_FACTOR,
    speed_policy: str = "continuous",
) -> ExperimentSpec:
    """Table 1 as a declarative spec: one cell per paper CTG.

    ``speed_policy`` names a :data:`repro.scheduling.policies
    .SPEED_POLICIES` entry applied to the online algorithm of every
    cell; ``"continuous"`` (the default) leaves cell keys and
    parameters untouched so cache entries and artifacts stay
    byte-identical to the historical behaviour.
    """
    from ..scheduling.policies import SPEED_POLICIES

    if speed_policy not in SPEED_POLICIES:
        known = ", ".join(sorted(SPEED_POLICIES))
        raise ValueError(f"unknown speed policy {speed_policy!r} (known: {known})")
    extra = {} if speed_policy == "continuous" else {"speed_policy": speed_policy}
    suffix = "" if speed_policy == "continuous" else f":{speed_policy}"
    cells = tuple(
        Cell(
            key=f"ctg{index}{suffix}",
            params={
                "index": index,
                "config": generator_params(config),
                "pes": pes,
                "deadline_factor": deadline_factor,
                **extra,
            },
        )
        for index, (config, pes) in enumerate(
            zip(paper_table1_configs(), TABLE1_PE_COUNTS), start=1
        )
    )
    return ExperimentSpec(
        name="table1",
        cells=cells,
        cell_function=table1_cell,
        reducer=_reduce_table1,
        timing_keys=("online_runtime", "reference_2_runtime"),
    )
