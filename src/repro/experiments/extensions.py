"""Extension experiments beyond the paper's evaluation.

* **Predictor comparison** — the paper's sliding window vs an
  exponentially-weighted estimator with matched effective memory
  (§III.B notes the distribution "can be predicted based on history";
  this quantifies one natural alternative).
* **Re-scheduling overhead break-even** — the paper motivates the
  threshold by the overhead of re-invoking the online algorithm but
  never quantifies it; this computes, per threshold, the per-call
  energy cost at which the adaptive savings vanish.
* **Seed robustness** — Monte-Carlo of the 802.11b experiment over
  independent channel seeds; the distribution (not one lucky run) is
  the claim.
* **Discrete DVFS levels** — the paper assumes continuous scaling;
  real PEs expose a handful of voltage/frequency pairs.  Speeds are
  rounded *up* to the next level (deadlines stay safe), and the bench
  measures the energy cost of quantisation.

All four are :class:`~repro.experiments.spec.ExperimentSpec`
declarations.  Per-cell randomness is derived **explicitly**: every
cell's parameters carry the integer seed(s) it feeds to the seeded
trace generators, and the Monte-Carlo sweep can derive arbitrarily
many independent seeds from one base seed via
:func:`~repro.experiments.spec.derive_cell_seeds`
(``numpy.random.default_rng``) — nothing reads or writes the
process-global RNG state, so results are identical at any ``--jobs``
value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..adaptive import AdaptiveConfig, ExponentialProfiler
from ..analysis import SampleSummary, format_table, percent_savings, summarize_samples
from ..io import instance_fingerprint
from ..platform import DvfsModel, Platform, ProcessingElement
from ..scheduling import schedule_online, set_deadline_from_makespan
from ..sim import empirical_distribution, run_adaptive, run_non_adaptive
from ..workloads import channel_trace, movie_trace, mpeg_ctg, mpeg_platform, wlan_ctg, wlan_platform
from ..workloads.mpeg import BLOCK_COUNT, _BLOCK_WCET, _TASK_WCET
from .spec import Cell, CellResult, ExperimentSpec, derive_cell_seeds


# ----------------------------------------------------------------------
# Predictor comparison
# ----------------------------------------------------------------------
@dataclass
class PredictorRow:
    """One movie's outcome under both estimators."""

    movie: str
    online_energy: float
    window_energy: float
    window_calls: int
    exponential_energy: float
    exponential_calls: int


@dataclass
class PredictorResult:
    """Window vs exponential estimator over several clips."""

    threshold: float
    rows: List[PredictorRow] = field(default_factory=list)

    def format(self) -> str:
        """Render the estimator comparison as a text table."""
        return format_table(
            ["movie", "online", "window E", "calls", "exp E", "calls",
             "win sav (%)", "exp sav (%)"],
            [
                [
                    r.movie, round(r.online_energy),
                    round(r.window_energy), r.window_calls,
                    round(r.exponential_energy), r.exponential_calls,
                    round(percent_savings(r.online_energy, r.window_energy), 1),
                    round(percent_savings(r.online_energy, r.exponential_energy), 1),
                ]
                for r in self.rows
            ],
            title=(
                f"Extension — sliding window vs exponential smoothing "
                f"(matched memory, T={self.threshold})"
            ),
        )


def predictor_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """One movie under the windowed and exponential estimators."""
    ctg = mpeg_ctg()
    platform = mpeg_platform()
    set_deadline_from_makespan(ctg, platform, params["deadline_factor"])
    branch_labels = {b: ctg.outcomes_of(b) for b in ctg.branch_nodes()}
    config = AdaptiveConfig(
        window_size=params["window"], threshold=params["threshold"]
    )
    length = params["length"]
    trace = movie_trace(ctg, params["movie"], length=length)
    train, test = trace[: length // 2], trace[length // 2 :]
    profile = empirical_distribution(ctg, train)
    online = run_non_adaptive(ctg, platform, test, profile)
    windowed = run_adaptive(ctg, platform, test, profile, config)
    exponential = run_adaptive(
        ctg,
        platform,
        test,
        profile,
        config,
        profiler=ExponentialProfiler(
            branch_labels, equivalent_window=params["window"], initial=profile
        ),
    )
    return {
        "values": {
            "online_energy": online.total_energy,
            "window_energy": windowed.total_energy,
            "window_calls": windowed.reschedule_calls,
            "exponential_energy": exponential.total_energy,
            "exponential_calls": exponential.reschedule_calls,
        }
    }


def _reduce_predictors(cells: List[CellResult]) -> PredictorResult:
    result = PredictorResult(threshold=cells[0].params["threshold"])
    for cell in cells:
        values = cell.values
        result.rows.append(
            PredictorRow(
                movie=cell.params["movie"],
                online_energy=values["online_energy"],
                window_energy=values["window_energy"],
                window_calls=values["window_calls"],
                exponential_energy=values["exponential_energy"],
                exponential_calls=values["exponential_calls"],
            )
        )
    return result


def predictor_spec(
    movies: Sequence[str] = ("Airwolf", "Shuttle", "Tennis"),
    threshold: float = 0.1,
    window: int = 20,
    length: int = 2000,
    deadline_factor: float = 1.6,
) -> ExperimentSpec:
    """The estimator comparison as a spec: one cell per movie."""
    cells = tuple(
        Cell(
            key=movie,
            params={
                "movie": movie,
                "threshold": threshold,
                "window": window,
                "length": length,
                "deadline_factor": deadline_factor,
            },
        )
        for movie in movies
    )
    return ExperimentSpec(
        name="ext-predictors",
        cells=cells,
        cell_function=predictor_cell,
        reducer=_reduce_predictors,
        context={"instance": instance_fingerprint(mpeg_ctg(), mpeg_platform())},
    )


# ----------------------------------------------------------------------
# Overhead break-even
# ----------------------------------------------------------------------
@dataclass
class OverheadRow:
    """Break-even figures for one threshold."""

    threshold: float
    calls: int
    savings_percent: float
    break_even_per_call: float
    mean_instance_energy: float


@dataclass
class OverheadResult:
    """Overhead break-even across thresholds on one clip."""

    movie: str
    rows: List[OverheadRow] = field(default_factory=list)

    def format(self) -> str:
        """Render the break-even table."""
        return format_table(
            ["threshold", "# calls", "savings (%)", "break-even E/call",
             "≈ instances worth"],
            [
                [
                    r.threshold, r.calls, round(r.savings_percent, 1),
                    round(r.break_even_per_call, 1),
                    round(r.break_even_per_call / r.mean_instance_energy, 1)
                    if r.mean_instance_energy else 0.0,
                ]
                for r in self.rows
            ],
            title=(
                f"Extension — re-scheduling overhead break-even on MPEG "
                f"({self.movie}): per-call energy cost at which adaptive "
                "savings vanish"
            ),
        )


def overhead_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """One threshold's break-even vs the (recomputed) online baseline.

    The online baseline is a deterministic function of the shared
    parameters, so recomputing it per cell keeps cells independent
    without changing any number.
    """
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
        AdaptiveConfig(window_size=20, threshold=params["threshold"]),
    )
    return {
        "values": {
            "calls": adaptive.reschedule_calls,
            "savings_percent": percent_savings(
                online.total_energy, adaptive.total_energy
            ),
            "break_even_per_call": adaptive.break_even_overhead(online),
            "mean_instance_energy": adaptive.mean_energy,
        }
    }


def _reduce_overhead(cells: List[CellResult]) -> OverheadResult:
    result = OverheadResult(movie=cells[0].params["movie"])
    for cell in cells:
        values = cell.values
        result.rows.append(
            OverheadRow(
                threshold=cell.params["threshold"],
                calls=values["calls"],
                savings_percent=values["savings_percent"],
                break_even_per_call=(
                    float("inf")
                    if values["break_even_per_call"] is None
                    else values["break_even_per_call"]
                ),
                mean_instance_energy=values["mean_instance_energy"],
            )
        )
    return result


def overhead_spec(
    movie: str = "Bike",
    thresholds: Sequence[float] = (0.5, 0.25, 0.1, 0.05),
    length: int = 2000,
    deadline_factor: float = 1.6,
) -> ExperimentSpec:
    """The overhead break-even as a spec: one cell per threshold."""
    cells = tuple(
        Cell(
            key=f"T{threshold}",
            params={
                "movie": movie,
                "threshold": threshold,
                "length": length,
                "deadline_factor": deadline_factor,
            },
        )
        for threshold in thresholds
    )
    return ExperimentSpec(
        name="ext-overhead",
        cells=cells,
        cell_function=overhead_cell,
        reducer=_reduce_overhead,
        context={"instance": instance_fingerprint(mpeg_ctg(), mpeg_platform())},
    )


# ----------------------------------------------------------------------
# Seed robustness (Monte-Carlo over traces)
# ----------------------------------------------------------------------
@dataclass
class RobustnessResult:
    """Savings distribution of the adaptive framework over trace seeds."""

    workload: str
    threshold: float
    savings_percent: List[float] = field(default_factory=list)
    calls: List[int] = field(default_factory=list)

    def summary(self, confidence: float = 0.95) -> SampleSummary:
        """Mean/CI of the savings distribution."""
        return summarize_samples(self.savings_percent, confidence)

    def format(self) -> str:
        """Render per-seed rows plus the distribution summary."""
        table = format_table(
            ["seed #", "savings (%)", "# calls"],
            [
                [i, round(s, 1), c]
                for i, (s, c) in enumerate(zip(self.savings_percent, self.calls))
            ],
            title=(
                f"Extension — adaptive savings across trace seeds "
                f"({self.workload}, T={self.threshold})"
            ),
        )
        return table + "\nsavings " + self.summary().format(unit="%")


def robustness_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """One channel seed of the 802.11b Monte-Carlo.

    The cell's entire randomness flows from ``params["seed"]`` into the
    seeded trace generator — no process-global RNG state is read or
    mutated, so any ``--jobs`` value replays this cell bit-identically.
    """
    ctg = wlan_ctg()
    platform = wlan_platform()
    set_deadline_from_makespan(ctg, platform, params["deadline_factor"])
    length = params["length"]
    trace = channel_trace(ctg, length, seed=params["seed"])
    train, test = trace[: length // 2], trace[length // 2 :]
    profile = empirical_distribution(ctg, train)
    online = run_non_adaptive(ctg, platform, test, profile)
    adaptive = run_adaptive(
        ctg, platform, test, profile,
        AdaptiveConfig(window_size=20, threshold=params["threshold"]),
    )
    return {
        "values": {
            "savings_percent": percent_savings(
                online.total_energy, adaptive.total_energy
            ),
            "calls": adaptive.reschedule_calls,
        }
    }


def _reduce_robustness(cells: List[CellResult]) -> RobustnessResult:
    result = RobustnessResult(
        workload="802.11b receiver", threshold=cells[0].params["threshold"]
    )
    for cell in cells:
        result.savings_percent.append(cell.values["savings_percent"])
        result.calls.append(cell.values["calls"])
    return result


def robustness_spec(
    seeds: Optional[Sequence[int]] = None,
    threshold: float = 0.1,
    length: int = 2000,
    deadline_factor: float = 1.5,
    base_seed: Optional[int] = None,
    n_seeds: int = 12,
) -> ExperimentSpec:
    """The Monte-Carlo sweep as a spec: one cell per channel seed.

    Seeds come either from ``seeds`` (explicit, the historical
    ``range(20, 32)`` by default) or — for arbitrarily large sweeps —
    derived from ``base_seed`` via :func:`derive_cell_seeds`
    (``numpy.random.default_rng``), which yields ``n_seeds``
    statistically independent streams without any shared RNG state.
    """
    if base_seed is not None:
        cell_seeds: Tuple[int, ...] = derive_cell_seeds(base_seed, n_seeds)
    elif seeds is not None:
        cell_seeds = tuple(int(s) for s in seeds)
    else:
        cell_seeds = tuple(range(20, 32))
    cells = tuple(
        Cell(
            key=f"seed{seed}",
            params={
                "seed": seed,
                "threshold": threshold,
                "length": length,
                "deadline_factor": deadline_factor,
            },
        )
        for seed in cell_seeds
    )
    return ExperimentSpec(
        name="ext-robustness",
        cells=cells,
        cell_function=robustness_cell,
        reducer=_reduce_robustness,
        context={"instance": instance_fingerprint(wlan_ctg(), wlan_platform())},
    )


# ----------------------------------------------------------------------
# Discrete DVFS levels
# ----------------------------------------------------------------------
@dataclass
class DiscreteRow:
    """Expected energy under one speed-level set."""

    levels: str
    expected_energy: float
    penalty_percent: float


@dataclass
class DiscreteResult:
    """Quantisation penalty across level sets."""

    rows: List[DiscreteRow] = field(default_factory=list)

    def format(self) -> str:
        """Render the quantisation table."""
        return format_table(
            ["speed levels", "expected energy", "penalty vs continuous (%)"],
            [
                [r.levels, round(r.expected_energy, 1), round(r.penalty_percent, 1)]
                for r in self.rows
            ],
            title="Extension — discrete DVFS levels on the MPEG decoder",
        )


#: The level sets of the quantisation study; the continuous row is the
#: baseline every penalty is measured against.
DISCRETE_LEVEL_SETS: Tuple[Tuple[str, Optional[Tuple[float, ...]]], ...] = (
    ("continuous", None),
    ("8: 0.25..1.0", tuple(0.25 + 0.75 * i / 7 for i in range(8))),
    ("4: 0.25/0.5/0.75/1.0", (0.25, 0.5, 0.75, 1.0)),
    ("2: 0.5/1.0", (0.5, 1.0)),
)


def _mpeg_platform_with_levels(
    levels: Optional[Tuple[float, ...]], min_speed: float = 0.25
) -> Platform:
    """The MPEG platform with a discrete speed-level set on every PE."""
    platform = Platform(
        [
            ProcessingElement(f"pe{i}", min_speed=min_speed, speed_levels=levels)
            for i in range(3)
        ],
        dvfs=DvfsModel(),
    )
    platform.connect_all(bandwidth=2.0, energy_per_kbyte=0.05)
    factors = [1.0 + 0.15 * ((i % 3) - 1) for i in range(3)]
    wcets = dict(_TASK_WCET)
    for k in range(1, BLOCK_COUNT + 1):
        wcets[f"chk{k}"] = _BLOCK_WCET["chk"]
        wcets[f"deq{k}"] = _BLOCK_WCET["deq"]
        wcets[f"idct{k}"] = _BLOCK_WCET["idct"]
        wcets[f"sum{k}"] = _BLOCK_WCET["sum"]
    for task, base in wcets.items():
        for i in range(3):
            wcet = base * factors[i]
            platform.set_task_profile(task, f"pe{i}", wcet=wcet, energy=wcet)
    return platform


def discrete_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """Expected online energy under one speed-level set.

    The deadline always comes from the *continuous* platform (as in
    the study's definition), so every cell derives it the same way
    before swapping in its own level set.
    """
    ctg = mpeg_ctg()
    continuous = _mpeg_platform_with_levels(None)
    set_deadline_from_makespan(ctg, continuous, params["deadline_factor"])
    levels = params["levels"]
    if levels is None:
        platform = continuous
    else:
        platform = _mpeg_platform_with_levels(tuple(levels))
    outcome = schedule_online(ctg, platform)
    outcome.schedule.validate()
    energy = outcome.schedule.expected_energy(ctg.default_probabilities)
    return {"values": {"expected_energy": energy}}


def _reduce_discrete(cells: List[CellResult]) -> DiscreteResult:
    result = DiscreteResult()
    base_energy = cells[0].values["expected_energy"]
    for cell in cells:
        energy = cell.values["expected_energy"]
        result.rows.append(
            DiscreteRow(
                levels=cell.params["name"],
                expected_energy=energy,
                penalty_percent=100.0 * (energy / base_energy - 1.0),
            )
        )
    return result


def discrete_spec(deadline_factor: float = 1.6) -> ExperimentSpec:
    """The quantisation study as a spec: one cell per level set."""
    cells = tuple(
        Cell(
            key=name,
            params={
                "name": name,
                "levels": None if levels is None else list(levels),
                "deadline_factor": deadline_factor,
            },
        )
        for name, levels in DISCRETE_LEVEL_SETS
    )
    return ExperimentSpec(
        name="ext-discrete-dvfs",
        cells=cells,
        cell_function=discrete_cell,
        reducer=_reduce_discrete,
        context={"instance": instance_fingerprint(mpeg_ctg(), mpeg_platform())},
    )
