"""Experiment: the paper's Tables 4/5 and Figure 6 — random CTGs.

Ten TGFF-style graphs (five Category 1 with nested fork-join branches,
five Category 2 without) are replayed over equal-average fluctuating
decision traces (per-branch fluctuation ≈0.45, as the paper measures
on MPEG).  The non-adaptive online algorithm is profiled three ways:

* **lowest** — biased toward the lowest-energy minterm (Table 4);
* **highest** — biased toward the highest-energy minterm (Table 5);
* **ideal** — the accurate long-run average (Figure 6).

The adaptive framework (window 20) runs with thresholds 0.5 and 0.1;
as in the paper its initial probabilities equal the online profile of
the case under study.

Declared as an :class:`~repro.experiments.spec.ExperimentSpec`: one
cell per graph (each cell runs the online baseline plus every
threshold), so the ten graphs fan out over worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..adaptive import AdaptiveConfig
from ..analysis import format_table, percent_savings
from ..ctg import enumerate_scenarios, generate_ctg, paper_table4_configs
from ..platform import PlatformConfig, generate_platform
from ..profiling import StageProfiler
from ..scheduling import set_deadline_from_makespan
from ..sim import run_adaptive, run_non_adaptive, empirical_distribution
from ..workloads import biased_profile, fluctuating_trace
from .spec import Cell, CellResult, ExperimentSpec
from .table1 import config_from_params, generator_params

TABLE45_PE_COUNTS: Tuple[int, ...] = (3, 3, 4, 4, 4, 3, 3, 4, 4, 4)
TABLE45_DEADLINE_FACTOR = 1.6
TABLE45_WINDOW = 20
TABLE45_THRESHOLDS: Tuple[float, ...] = (0.5, 0.1)
TABLE45_BIAS = 0.9
TABLE45_TRACE_LENGTH = 1000

#: The three profiling modes of §IV's random-CTG study.
BIAS_MODES: Tuple[str, ...] = ("lowest", "highest", "ideal")


@dataclass
class BiasRow:
    """One graph under one profiling mode."""

    index: int
    triplet: str
    category: int
    online_energy: float
    adaptive_energy: Dict[float, float] = field(default_factory=dict)
    calls: Dict[float, int] = field(default_factory=dict)

    def savings(self, threshold: float) -> float:
        """Percent saving of adaptive over the biased online run."""
        return percent_savings(self.online_energy, self.adaptive_energy[threshold])


@dataclass
class BiasResult:
    """One table's worth of rows (one profiling mode)."""

    mode: str
    rows: List[BiasRow] = field(default_factory=list)
    thresholds: Tuple[float, ...] = TABLE45_THRESHOLDS

    def mean_savings(self, threshold: float, category: int = 0) -> float:
        """Average saving, optionally restricted to one CTG category."""
        rows = [r for r in self.rows if category in (0, r.category)]
        return sum(r.savings(threshold) for r in rows) / len(rows)

    def format(self, title: str, reference_note: str) -> str:
        """Render one Tables-4/5/Figure-6 table with its note."""
        table = format_table(
            ["CTG", "a/b/c", "Online"]
            + [f"E T={t}" for t in self.thresholds]
            + [f"#calls T={t}" for t in self.thresholds],
            [
                [r.index, r.triplet, round(r.online_energy)]
                + [round(r.adaptive_energy[t]) for t in self.thresholds]
                + [r.calls[t] for t in self.thresholds]
                for r in self.rows
            ],
            title=title,
        )
        summary_lines = []
        for t in self.thresholds:
            summary_lines.append(
                f"mean savings T={t}: {self.mean_savings(t):.0f}% "
                f"(Cat1 {self.mean_savings(t, 1):.0f}%, Cat2 {self.mean_savings(t, 2):.0f}%)"
            )
        return table + "\n" + "\n".join(summary_lines) + "\n" + reference_note


def _scenario_cost(platform, scenario) -> float:
    """Energy proxy of a scenario: total average-WCET of its tasks
    (energy tracks cycles under the unit-capacitance model)."""
    # sorted: float summation is order-sensitive and set iteration is
    # hash-seed-dependent; the cell value must be bit-stable
    return sum(platform.average_wcet(task) for task in sorted(scenario.active))


def bias_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """One random CTG: biased/ideal online baseline + adaptive runs."""
    mode = params["mode"]
    config = config_from_params(params["config"])
    pes = params["pes"]
    ctg = generate_ctg(config)
    platform = generate_platform(ctg.tasks(), PlatformConfig(pes=pes, seed=config.seed))
    set_deadline_from_makespan(ctg, platform, params["deadline_factor"])
    trace = fluctuating_trace(ctg, params["trace_length"], seed=config.seed)

    if mode == "ideal":
        profile = empirical_distribution(ctg, trace)
    else:
        scenarios = enumerate_scenarios(ctg)
        extreme = (min if mode == "lowest" else max)(
            scenarios, key=lambda s: _scenario_cost(platform, s)
        )
        profile = biased_profile(ctg, extreme.product.assignment, bias=params["bias"])

    online = run_non_adaptive(ctg, platform, trace, profile)
    stages = StageProfiler()
    if online.profile is not None:
        stages.merge(online.profile)
    adaptive_energy: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for threshold in params["thresholds"]:
        adaptive = run_adaptive(
            ctg,
            platform,
            trace,
            profile,
            AdaptiveConfig(window_size=params["window"], threshold=threshold),
        )
        adaptive_energy[str(threshold)] = adaptive.total_energy
        calls[str(threshold)] = adaptive.reschedule_calls
        if adaptive.profile is not None:
            stages.merge(adaptive.profile)
    return {
        "values": {
            "triplet": f"{config.nodes}/{pes}/{config.branch_nodes}",
            "category": config.category,
            "online_energy": online.total_energy,
            "adaptive_energy": adaptive_energy,
            "calls": calls,
        },
        "profile": stages.to_dict(),
    }


def _reduce_bias(cells: List[CellResult]) -> BiasResult:
    mode = cells[0].params["mode"]
    thresholds = tuple(cells[0].params["thresholds"])
    result = BiasResult(mode=mode, thresholds=thresholds)
    for cell in cells:
        values = cell.values
        row = BiasRow(
            index=cell.params["index"],
            triplet=values["triplet"],
            category=values["category"],
            online_energy=values["online_energy"],
        )
        for threshold in thresholds:
            row.adaptive_energy[threshold] = values["adaptive_energy"][str(threshold)]
            row.calls[threshold] = values["calls"][str(threshold)]
        result.rows.append(row)
    return result


def bias_spec(
    mode: str,
    thresholds: Sequence[float] = TABLE45_THRESHOLDS,
    deadline_factor: float = TABLE45_DEADLINE_FACTOR,
    bias: float = TABLE45_BIAS,
    trace_length: int = TABLE45_TRACE_LENGTH,
    name: Optional[str] = None,
) -> ExperimentSpec:
    """One profiling mode over the ten Tables-4/5 graphs as a spec.

    ``mode`` is ``"lowest"`` (Table 4), ``"highest"`` (Table 5) or
    ``"ideal"`` (Figure 6's accurate profile).
    """
    if mode not in BIAS_MODES:
        raise ValueError(f"unknown profiling mode {mode!r}")
    cells = tuple(
        Cell(
            key=f"ctg{index}",
            params={
                "index": index,
                "mode": mode,
                "config": generator_params(config),
                "pes": pes,
                "thresholds": [float(t) for t in thresholds],
                "deadline_factor": deadline_factor,
                "bias": bias,
                "trace_length": trace_length,
                "window": TABLE45_WINDOW,
            },
        )
        for index, (config, pes) in enumerate(
            zip(paper_table4_configs(), TABLE45_PE_COUNTS), start=1
        )
    )
    return ExperimentSpec(
        name=name or f"bias-{mode}",
        cells=cells,
        cell_function=bias_cell,
        reducer=_reduce_bias,
    )
