"""Experiment: the paper's Figure 4 — branch profiling dynamics.

1000 macroblocks of a movie clip are decoded and the type-I branch
(``classify`` / the paper's b₁) is observed:

* *Selection* — the raw 0/1 decision series;
* *prob* — the probability within a sliding window of 50 iterations;
* *filtered Prob* — the staircase the adaptive algorithm actually
  uses: it holds until the windowed estimate drifts more than the
  threshold (0.1 in the paper's illustration), then snaps; each snap
  is one re-scheduling call.

Declared as a single-cell :class:`~repro.experiments.spec.
ExperimentSpec` — the cheapest experiment, but uniform declaration
means it caches and emits artifacts like every other one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..analysis import format_series, sliding_window_series, threshold_filter_series
from ..workloads import movie_trace, mpeg_ctg
from .spec import Cell, CellResult, ExperimentSpec

FIGURE4_WINDOW = 50
FIGURE4_THRESHOLD = 0.1


@dataclass
class Figure4Result:
    """The three data series of Figure 4."""

    movie: str
    branch: str
    selections: List[int] = field(default_factory=list)
    windowed: List[float] = field(default_factory=list)
    filtered: List[float] = field(default_factory=list)

    @property
    def updates(self) -> int:
        """Number of snaps of the filtered series (≈ re-scheduling calls)."""
        return sum(1 for a, b in zip(self.filtered, self.filtered[1:]) if a != b)

    @property
    def selection_rate(self) -> float:
        """Long-run average of the selection series."""
        return sum(self.selections) / len(self.selections) if self.selections else 0.0

    def tracking_error(self) -> float:
        """Mean |filtered − windowed| — how closely the staircase tracks."""
        if not self.windowed:
            return 0.0
        return sum(
            abs(f - w) for f, w in zip(self.filtered, self.windowed)
        ) / len(self.windowed)

    def format(self, stride: int = 20) -> str:
        """Render the header stats plus down-sampled series."""
        header = (
            f"Figure 4 — branch '{self.branch}' of the MPEG decoder on "
            f"{self.movie} ({len(self.selections)} macroblocks)\n"
            f"selection rate {self.selection_rate:.3f}; windowed prob "
            f"min/max {min(self.windowed):.2f}/{max(self.windowed):.2f}; "
            f"filtered updates {self.updates}; "
            f"mean tracking error {self.tracking_error():.3f}\n"
        )
        return (
            header
            + format_series("prob (window=50), every 20th sample", self.windowed[::stride])
            + "\n"
            + format_series("filtered prob (T=0.1), every 20th sample", self.filtered[::stride])
        )


def figure4_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """Decode one clip and derive the three Figure-4 series."""
    ctg = mpeg_ctg()
    trace = movie_trace(ctg, params["movie"], length=params["length"])
    selections = [
        1 if vector[params["branch"]] == params["positive_label"] else 0
        for vector in trace
    ]
    windowed = sliding_window_series(selections, params["window"])
    filtered = threshold_filter_series(
        windowed, params["threshold"], initial=windowed[0]
    )
    return {
        "values": {
            "selections": selections,
            "windowed": windowed,
            "filtered": filtered,
        }
    }


def _reduce_figure4(cells: List[CellResult]) -> Figure4Result:
    cell = cells[0]
    return Figure4Result(
        movie=cell.params["movie"],
        branch=cell.params["branch"],
        selections=list(cell.values["selections"]),
        windowed=list(cell.values["windowed"]),
        filtered=list(cell.values["filtered"]),
    )


def figure4_spec(
    movie: str = "Airwolf",
    length: int = 1000,
    window: int = FIGURE4_WINDOW,
    threshold: float = FIGURE4_THRESHOLD,
    branch: str = "classify",
    positive_label: str = "b1",
) -> ExperimentSpec:
    """Figure 4 as a (single-cell) declarative spec."""
    cell = Cell(
        key=movie,
        params={
            "movie": movie,
            "length": length,
            "window": window,
            "threshold": threshold,
            "branch": branch,
            "positive_label": positive_label,
        },
    )
    return ExperimentSpec(
        name="figure4",
        cells=(cell,),
        cell_function=figure4_cell,
        reducer=_reduce_figure4,
    )
