"""Experiment: the paper's Figure 5 + Table 2 — MPEG adaptive vs online.

For each of the eight movie clips a 2000-vector trace is generated;
the first 1000 vectors train the non-adaptive ("online") profile, the
second 1000 are replayed under the non-adaptive schedule and under the
adaptive framework with thresholds 0.5 and 0.1 (window 20).  Figure 5
is the energy comparison, Table 2 the re-scheduling call counts.

Declared as an :class:`~repro.experiments.spec.ExperimentSpec`: one
cell per movie clip (eight independent cells — the classic fan-out);
the fingerprint context carries the serialised MPEG instance.
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
from ..workloads import MOVIE_PROFILES, movie_trace, mpeg_ctg, mpeg_platform
from .spec import Cell, CellResult, ExperimentSpec

MPEG_DEADLINE_FACTOR = 1.6
MPEG_WINDOW = 20
MPEG_THRESHOLDS: Tuple[float, ...] = (0.5, 0.1)


@dataclass
class MovieRow:
    """Per-movie energies and call counts."""

    movie: str
    online_energy: float
    adaptive_energy: Dict[float, float] = field(default_factory=dict)
    calls: Dict[float, int] = field(default_factory=dict)
    deadline_misses: Dict[float, int] = field(default_factory=dict)

    def savings(self, threshold: float) -> float:
        """Percent energy saving of the adaptive run at a threshold."""
        return percent_savings(self.online_energy, self.adaptive_energy[threshold])


@dataclass
class MpegResult:
    """Figure 5 + Table 2 in one structure."""

    rows: List[MovieRow] = field(default_factory=list)
    thresholds: Tuple[float, ...] = MPEG_THRESHOLDS

    def mean_savings(self, threshold: float) -> float:
        """Average saving across the movies."""
        return sum(r.savings(threshold) for r in self.rows) / len(self.rows)

    def mean_calls(self, threshold: float) -> float:
        """Average re-scheduling call count across the movies."""
        return sum(r.calls[threshold] for r in self.rows) / len(self.rows)

    def format(self) -> str:
        """Render Figure 5 and Table 2 with paper reference notes."""
        figure5 = format_table(
            ["Movie", "Online"]
            + [f"Adaptive T={t}" for t in self.thresholds]
            + [f"savings T={t} (%)" for t in self.thresholds],
            [
                [r.movie, round(r.online_energy)]
                + [round(r.adaptive_energy[t]) for t in self.thresholds]
                + [round(r.savings(t)) for t in self.thresholds]
                for r in self.rows
            ],
            title="Figure 5 — MPEG energy consumption with varying thresholds",
        )
        table2 = format_table(
            ["Movie"] + [f"T={t}" for t in self.thresholds],
            [[r.movie] + [r.calls[t] for t in self.thresholds] for r in self.rows],
            title="Table 2 — Algorithm call count for MPEG movies",
        )
        summary = "\n".join(
            f"mean savings T={t}: {self.mean_savings(t):.0f}%   "
            f"mean calls T={t}: {self.mean_calls(t):.0f}"
            for t in self.thresholds
        )
        reference = (
            "(paper: savings 21% at T=0.5 / 23% at T=0.1; "
            "calls avg 9 at T=0.5 / 162 at T=0.1)"
        )
        return f"{figure5}\n\n{table2}\n{summary}\n{reference}"


def mpeg_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """One movie clip: train on the first half, replay the second."""
    ctg = mpeg_ctg()
    platform = mpeg_platform()
    set_deadline_from_makespan(ctg, platform, params["deadline_factor"])
    length = params["length"]
    trace = movie_trace(ctg, params["movie"], length=length)
    train, test = trace[: length // 2], trace[length // 2 :]
    profile = empirical_distribution(ctg, train)
    online = run_non_adaptive(ctg, platform, test, profile)
    stages = StageProfiler()
    if online.profile is not None:
        stages.merge(online.profile)
    adaptive_energy: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    deadline_misses: Dict[str, int] = {}
    for threshold in params["thresholds"]:
        adaptive = run_adaptive(
            ctg,
            platform,
            test,
            profile,
            AdaptiveConfig(window_size=params["window"], threshold=threshold),
        )
        adaptive_energy[str(threshold)] = adaptive.total_energy
        calls[str(threshold)] = adaptive.reschedule_calls
        deadline_misses[str(threshold)] = adaptive.deadline_misses
        if adaptive.profile is not None:
            stages.merge(adaptive.profile)
    return {
        "values": {
            "online_energy": online.total_energy,
            "adaptive_energy": adaptive_energy,
            "calls": calls,
            "deadline_misses": deadline_misses,
        },
        "profile": stages.to_dict(),
    }


def _reduce_mpeg(cells: List[CellResult]) -> MpegResult:
    thresholds = tuple(cells[0].params["thresholds"])
    result = MpegResult(thresholds=thresholds)
    for cell in cells:
        values = cell.values
        row = MovieRow(
            movie=cell.params["movie"], online_energy=values["online_energy"]
        )
        for threshold in thresholds:
            row.adaptive_energy[threshold] = values["adaptive_energy"][str(threshold)]
            row.calls[threshold] = values["calls"][str(threshold)]
            row.deadline_misses[threshold] = values["deadline_misses"][str(threshold)]
        result.rows.append(row)
    return result


def mpeg_spec(
    movies: Tuple[str, ...] = tuple(MOVIE_PROFILES),
    thresholds: Tuple[float, ...] = MPEG_THRESHOLDS,
    length: int = 2000,
    window: int = MPEG_WINDOW,
    deadline_factor: float = MPEG_DEADLINE_FACTOR,
) -> ExperimentSpec:
    """Figure 5 + Table 2 as a declarative spec: one cell per movie."""
    cells = tuple(
        Cell(
            key=movie,
            params={
                "movie": movie,
                "thresholds": [float(t) for t in thresholds],
                "length": length,
                "window": window,
                "deadline_factor": deadline_factor,
            },
        )
        for movie in movies
    )
    return ExperimentSpec(
        name="figure5",
        cells=cells,
        cell_function=mpeg_cell,
        reducer=_reduce_mpeg,
        context={"instance": instance_fingerprint(mpeg_ctg(), mpeg_platform())},
    )
