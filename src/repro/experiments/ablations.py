"""Ablation experiments beyond the paper's tables.

The paper calls out several design choices without quantifying them;
these harnesses do:

* **window/threshold sweep** — "the window size and the threshold
  determine how frequently the online scheduling and DVFS is called
  and they also impact how well the algorithm adapts" (§III.B);
* **slack weighting** — the probability weighting of CalculateSlack vs
  the unweighted distribution the paper criticises ref [9] for, plus
  the energy-optimal root weighting and the multi-pass variant
  (DESIGN.md interpretation notes);
* **zero-probability pruning** — dropping statistically impossible
  paths from the deadline analysis (hard-real-time vs statistical).

Both are :class:`~repro.experiments.spec.ExperimentSpec` declarations:
the sweep fans one cell per ``(window, threshold)`` grid point, the
weighting study one cell per slack-distribution variant.  Each cell
recomputes its deterministic baseline locally, so cells stay
independent (parallelisable, cacheable) without changing any number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from ..adaptive import AdaptiveConfig
from ..analysis import format_table
from ..ctg import CtgAnalysis
from ..io import instance_fingerprint
from ..scheduling import dls_schedule, set_deadline_from_makespan, stretch_schedule
from ..sim import empirical_distribution, run_adaptive, run_non_adaptive
from ..workloads import movie_trace, mpeg_ctg, mpeg_platform
from .spec import Cell, CellResult, ExperimentSpec


@dataclass
class SweepRow:
    """One (window, threshold) grid point of the sweep."""

    window: int
    threshold: float
    energy: float
    calls: int
    savings_vs_online: float


@dataclass
class SweepResult:
    """Full window/threshold sweep on one movie clip."""

    movie: str
    online_energy: float
    rows: List[SweepRow] = field(default_factory=list)

    def format(self) -> str:
        """Render the sweep as an aligned text table."""
        return format_table(
            ["window", "threshold", "adaptive E", "# calls", "savings (%)"],
            [
                [r.window, r.threshold, round(r.energy), r.calls, round(r.savings_vs_online, 1)]
                for r in self.rows
            ],
            title=(
                f"Ablation — window/threshold sweep on MPEG ({self.movie}); "
                f"online = {self.online_energy:.0f}"
            ),
        )


def sweep_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """One (window, threshold) grid point vs the recomputed baseline."""
    ctg = mpeg_ctg()
    platform = mpeg_platform()
    set_deadline_from_makespan(ctg, platform, params["deadline_factor"])
    length = params["length"]
    trace = movie_trace(ctg, params["movie"], length=length)
    train, test = trace[: length // 2], trace[length // 2 :]
    profile = empirical_distribution(ctg, train)
    online = run_non_adaptive(ctg, platform, test, profile)
    adaptive = run_adaptive(
        ctg, platform, test, profile,
        AdaptiveConfig(window_size=params["window"], threshold=params["threshold"]),
    )
    return {
        "values": {
            "online_energy": online.total_energy,
            "energy": adaptive.total_energy,
            "calls": adaptive.reschedule_calls,
        }
    }


def _reduce_sweep(cells: List[CellResult]) -> SweepResult:
    result = SweepResult(
        movie=cells[0].params["movie"],
        online_energy=cells[0].values["online_energy"],
    )
    for cell in cells:
        values = cell.values
        result.rows.append(
            SweepRow(
                window=cell.params["window"],
                threshold=cell.params["threshold"],
                energy=values["energy"],
                calls=values["calls"],
                savings_vs_online=100.0
                * (1 - values["energy"] / values["online_energy"]),
            )
        )
    return result


def sweep_spec(
    movie: str = "Shuttle",
    windows: Sequence[int] = (10, 20, 50),
    thresholds: Sequence[float] = (0.5, 0.25, 0.1, 0.05),
    length: int = 2000,
    deadline_factor: float = 1.6,
) -> ExperimentSpec:
    """The knob sweep as a spec: one cell per grid point."""
    cells = tuple(
        Cell(
            key=f"w{window}-T{threshold}",
            params={
                "movie": movie,
                "window": window,
                "threshold": threshold,
                "length": length,
                "deadline_factor": deadline_factor,
            },
        )
        for window in windows
        for threshold in thresholds
    )
    return ExperimentSpec(
        name="ablation-sweep",
        cells=cells,
        cell_function=sweep_cell,
        reducer=_reduce_sweep,
        context={"instance": instance_fingerprint(mpeg_ctg(), mpeg_platform())},
    )


@dataclass
class WeightingRow:
    """Expected energy of one slack-distribution variant."""

    variant: str
    expected_energy: float
    relative: float


@dataclass
class WeightingResult:
    """All slack-distribution variants, relative to the paper's."""

    rows: List[WeightingRow] = field(default_factory=list)

    def format(self) -> str:
        """Render the variant comparison as an aligned text table."""
        return format_table(
            ["slack distribution variant", "expected energy", "vs paper variant (%)"],
            [[r.variant, round(r.expected_energy, 1), round(r.relative, 1)] for r in self.rows],
            title="Ablation — slack-distribution variants on the MPEG decoder",
        )


#: The CalculateSlack variants of the weighting study; the paper's own
#: flavour comes first and is the baseline of every relative column.
WEIGHTING_VARIANTS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("paper: linear weight, 1 pass", {}),
    ("unweighted (ref [9] style)", {"probability_weighted": False}),
    ("energy-optimal root weight", {"share_exponent": 1.0 / 3.0}),
    ("4 redistribution passes", {"max_passes": 4}),
    ("zero-probability pruning", {"prune_zero_probability": True}),
)


def weighting_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """Expected energy of one CalculateSlack variant."""
    ctg = mpeg_ctg()
    platform = mpeg_platform()
    set_deadline_from_makespan(ctg, platform, params["deadline_factor"])
    probabilities = ctg.default_probabilities
    analysis = CtgAnalysis.of(ctg)
    schedule = dls_schedule(ctg, platform, probabilities, analysis=analysis)
    stretch_schedule(
        schedule, probabilities, analysis=analysis, **params["kwargs"]
    )
    energy = schedule.expected_energy(probabilities, scenarios=analysis.scenarios)
    return {"values": {"expected_energy": energy}}


def _reduce_weighting(cells: List[CellResult]) -> WeightingResult:
    result = WeightingResult()
    base_energy = cells[0].values["expected_energy"]
    for cell in cells:
        energy = cell.values["expected_energy"]
        result.rows.append(
            WeightingRow(
                variant=cell.params["variant"],
                expected_energy=energy,
                relative=100.0 * (energy / base_energy - 1.0),
            )
        )
    return result


def weighting_spec(deadline_factor: float = 1.6) -> ExperimentSpec:
    """The weighting study as a spec: one cell per variant."""
    cells = tuple(
        Cell(
            key=f"v{index}",
            params={
                "variant": name,
                "kwargs": dict(kwargs),
                "deadline_factor": deadline_factor,
            },
        )
        for index, (name, kwargs) in enumerate(WEIGHTING_VARIANTS)
    )
    return ExperimentSpec(
        name="ablation-weighting",
        cells=cells,
        cell_function=weighting_cell,
        reducer=_reduce_weighting,
        context={"instance": instance_fingerprint(mpeg_ctg(), mpeg_platform())},
    )
