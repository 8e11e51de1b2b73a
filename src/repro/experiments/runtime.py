"""Experiment: the paper's runtime claim — heuristic vs NLP stretching.

§IV: "the average runtime of reference algorithm 2 was 70 seconds
while the online algorithm took merely 0.6 ms ... about 120,000X
average speedup.  The speed up mainly comes from replacing the NLP
based DVFS algorithm with a slack distribution based heuristic.  As a
matter of fact, the complexity of the NLP based algorithm is so high
that we cannot apply the reference algorithm 2 to the MPEG problem."

Absolute times are machine- and implementation-dependent (the authors
ran compiled code on 2008 hardware; this is pure Python), so the
reproducible shape is the *ratio*: the heuristic must be orders of
magnitude faster than the NLP on the same mapped schedule, with the
gap widening with graph size.

Declared as an :class:`~repro.experiments.spec.ExperimentSpec` (one
cell per graph).  Timing cells parallelise and cache like any other —
the measurements live in the cell's non-canonical ``timing`` section,
so a replayed cell is explicitly flagged ``cached=True`` (its numbers
are from when it actually ran, on whatever machine ran it) and
canonical artifacts zero them (``timing_keys``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..analysis import format_table, geometric_mean
from ..ctg import CtgAnalysis, generate_ctg, paper_table1_configs
from ..platform import PlatformConfig, generate_platform
from ..scheduling import dls_schedule, nlp_stretch_schedule, set_deadline_from_makespan, stretch_schedule
from .spec import Cell, CellResult, ExperimentSpec
from .table1 import TABLE1_DEADLINE_FACTOR, TABLE1_PE_COUNTS, config_from_params, generator_params


@dataclass
class RuntimeRow:
    """Timing of both stretching stages on one graph."""

    triplet: str
    heuristic_seconds: float
    nlp_seconds: float

    @property
    def speedup(self) -> float:
        """NLP time over heuristic time."""
        return self.nlp_seconds / self.heuristic_seconds


@dataclass
class RuntimeResult:
    """All runtime rows plus the aggregate speedup."""

    rows: List[RuntimeRow] = field(default_factory=list)

    @property
    def mean_speedup(self) -> float:
        """Geometric-mean speedup across the graphs."""
        return geometric_mean(row.speedup for row in self.rows)

    def format(self) -> str:
        """Render the timing table with the paper reference note."""
        table = format_table(
            ["a/b/c", "heuristic (ms)", "NLP (ms)", "speedup (x)"],
            [
                [r.triplet, f"{1e3 * r.heuristic_seconds:.2f}",
                 f"{1e3 * r.nlp_seconds:.1f}", f"{r.speedup:.0f}"]
                for r in self.rows
            ],
            title="Runtime — stretching heuristic vs NLP (same DLS mapping)",
        )
        return table + (
            f"\ngeometric-mean speedup: {self.mean_speedup:.0f}x  "
            "(paper: ~120,000x for compiled code; the reproducible shape is "
            "orders-of-magnitude, and the NLP being impractical on MPEG)"
        )


def runtime_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """Time both stretching stages on one graph (best of ``repeats``)."""
    config = config_from_params(params["config"])
    pes = params["pes"]
    repeats = params["repeats"]
    ctg = generate_ctg(config)
    platform = generate_platform(ctg.tasks(), PlatformConfig(pes=pes, seed=config.seed))
    set_deadline_from_makespan(ctg, platform, params["deadline_factor"])
    analysis = CtgAnalysis.of(ctg)

    heuristic_time = float("inf")
    for _ in range(repeats):
        schedule = dls_schedule(ctg, platform, analysis=analysis)
        started = time.perf_counter()
        stretch_schedule(schedule, analysis=analysis)
        heuristic_time = min(heuristic_time, time.perf_counter() - started)

    nlp_time = float("inf")
    for _ in range(repeats):
        schedule = dls_schedule(ctg, platform, analysis=analysis)
        started = time.perf_counter()
        nlp_stretch_schedule(schedule)
        nlp_time = min(nlp_time, time.perf_counter() - started)

    return {
        "values": {
            "triplet": f"{config.nodes}/{pes}/{config.branch_nodes}",
        },
        "timing": {
            "heuristic_seconds": heuristic_time,
            "nlp_seconds": nlp_time,
        },
    }


def _reduce_runtime(cells: List[CellResult]) -> RuntimeResult:
    result = RuntimeResult()
    for cell in cells:
        result.rows.append(
            RuntimeRow(
                triplet=cell.values["triplet"],
                heuristic_seconds=cell.timing["heuristic_seconds"],
                nlp_seconds=cell.timing["nlp_seconds"],
            )
        )
    return result


def runtime_spec(repeats: int = 3) -> ExperimentSpec:
    """The runtime comparison as a declarative spec."""
    cells = tuple(
        Cell(
            key=f"ctg{index}",
            params={
                "config": generator_params(config),
                "pes": pes,
                "repeats": repeats,
                "deadline_factor": TABLE1_DEADLINE_FACTOR,
            },
        )
        for index, (config, pes) in enumerate(
            zip(paper_table1_configs(), TABLE1_PE_COUNTS), start=1
        )
    )
    return ExperimentSpec(
        name="runtime",
        cells=cells,
        cell_function=runtime_cell,
        reducer=_reduce_runtime,
        timing_keys=("heuristic_seconds", "nlp_seconds"),
    )
