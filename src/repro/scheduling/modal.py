"""Modal DVFS — per-scenario speeds on one locked mapping/ordering.

The paper's stretching stage assigns **one** speed per task ("It
calculates only single speed for each task"), a compromise across all
minterms.  The natural extension — one speed per *resolved branch
context* — is implemented here on top of the same locked schedule:

1. For every scenario s, re-run the stretching heuristic on the locked
   mapping/ordering with the **degenerate** distribution of s and
   zero-probability path pruning: only the paths that can occur under
   s constrain the speeds, so each task gets the deepest stretch that
   scenario allows (``θ_s(τ)``).
2. At runtime a task starts before all branches are resolved; only the
   decisions of its *ancestor* branch forks are guaranteed known (they
   must finish before the task starts — the executor enforces the
   fork dependency).  The task therefore runs at
   ``max over scenarios compatible with the known ancestors' decisions
   of θ_s(τ)`` — the fastest of the still-possible modal speeds.

Feasibility: for the realised scenario s*, every task ran at a speed ≥
θ_{s*}(τ) (s* is always in the compatible set), and each per-scenario
stretch is deadline-feasible for its own scenario by the heuristic's
clamp; running faster can only move finishes earlier (the event graph
is monotone in speeds).  Hence every instance still meets the deadline
— property-tested in ``tests/test_modal.py`` and measured by the modal
ablation bench (energy strictly between the single-speed heuristic and
the per-scenario lower bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..check.tolerances import TIME_EPS
from ..ctg.graph import CTGError
from ..ctg.minterms import BranchProbabilities, CtgAnalysis, Scenario
from ..profiling import StageProfiler, as_profiler
from .replay import ReplayPlan
from .schedule import Schedule
from .stretching import stretch_schedule


@dataclass
class ModalSpeedTable:
    """Per-scenario speeds θ_s(τ) over one locked schedule.

    Attributes
    ----------
    scenarios:
        The scenario list (indexing the speed rows).
    speeds:
        ``speeds[i][task]`` = θ of the task under ``scenarios[i]``.
    ancestor_branches:
        For each task, the upstream branch forks whose decisions are
        guaranteed resolved before the task starts.
    """

    scenarios: Tuple[Scenario, ...]
    speeds: List[Dict[str, float]] = field(default_factory=list)
    ancestor_branches: Dict[str, FrozenSet[str]] = field(default_factory=dict)

    def speed_for(self, task: str, known: Mapping[str, str]) -> float:
        """Runtime speed: max θ over scenarios compatible with ``known``.

        ``known`` maps the task's ancestor branches to their decided
        outcomes (extra keys are ignored; only ancestors may be used —
        the caller restricts, this method re-restricts defensively).
        """
        ancestors = self.ancestor_branches.get(task, frozenset())
        best = 0.0
        for scenario, row in zip(self.scenarios, self.speeds):
            if task not in row:
                continue
            compatible = True
            for branch in ancestors:
                decided = known.get(branch)
                chosen = scenario.product.label_for(branch)
                if decided is not None and chosen is not None and decided != chosen:
                    compatible = False
                    break
            if compatible:
                best = max(best, row[task])
        return best if best > 0.0 else 1.0


def build_modal_table(
    schedule: Schedule,
    probabilities: Optional[BranchProbabilities] = None,
    analysis: Optional[CtgAnalysis] = None,
    profiler: Optional[StageProfiler] = None,
) -> ModalSpeedTable:
    """Compute θ_s(τ) for every scenario of a locked schedule.

    The schedule's own speeds are left untouched; each scenario's
    stretch runs on a throwaway copy sharing the mapping/ordering.
    ``profiler`` (optional) counts the implied-edge injections the
    clone step skips (``modal.pseudo_edge_skips``).
    """
    ctg = schedule.ctg
    if probabilities is None:
        probabilities = ctg.default_probabilities
    if analysis is None:
        analysis = CtgAnalysis.of(ctg)

    real = ctg.without_pseudo_edges()
    ancestors: Dict[str, FrozenSet[str]] = {
        task: frozenset(real.deciding_branches(task)) for task in ctg.tasks()
    }

    table = ModalSpeedTable(scenarios=analysis.scenarios, ancestor_branches=ancestors)
    for scenario in analysis.scenarios:
        degenerate: Dict[str, Dict[str, float]] = {}
        for branch in ctg.branch_nodes():
            chosen = scenario.product.label_for(branch)
            outcomes = ctg.outcomes_of(branch)
            if chosen is None:
                # branch never executes under s: keep the real mix so
                # prob() weights stay meaningful for unrelated paths
                degenerate[branch] = {
                    label: probabilities[branch][label] for label in outcomes
                }
            else:
                degenerate[branch] = {
                    label: 1.0 if label == chosen else 0.0 for label in outcomes
                }
        clone = _clone_with_nominal_speeds(schedule, profiler)
        stretch_schedule(
            clone,
            degenerate,
            prune_zero_probability=True,
        )
        table.speeds.append(
            {task: clone.placement(task).speed for task in scenario.active}
        )
    return table


def _clone_with_nominal_speeds(
    schedule: Schedule, profiler: Optional[StageProfiler] = None
) -> Schedule:
    """Copy a schedule's mapping/ordering with speeds reset to 1.0.

    The clone additionally materialises the *implied* or-node
    dependencies (paper Example 1: an or-node waits for every upstream
    branch fork that decides one of its inputs) as pseudo edges.
    Without pruning these are covered by the conditional arm's own
    paths, but the per-scenario stretch prunes exactly those paths —
    the implied edge must survive so the deselected-arm timing
    constraint still binds.
    """
    clone = Schedule(schedule.ctg.copy(), schedule.platform, schedule.exclusions)
    for task in schedule.placement_order():
        placement = schedule.placement(task)
        clone.place(task, placement.pe)
    for booking in schedule.comm_bookings:
        clone.book_comm(booking)
    clone.ctg.deadline = schedule.ctg.deadline
    prof = as_profiler(profiler)
    real = schedule.ctg.without_pseudo_edges()
    for task in real.tasks():
        if real.kind(task).value != "or":
            continue
        for branch in real.deciding_branches(task):
            try:
                clone.ctg.add_pseudo_edge(branch, task)
            except CTGError:
                # the fork already reaches the or-node through the arm,
                # so the edge would close a cycle — the ordering it
                # would enforce already holds
                prof.count("modal.pseudo_edge_skips")
    return clone


def modal_instance_energy(
    schedule: Schedule,
    table: ModalSpeedTable,
    decisions: Mapping[str, str],
) -> Tuple[float, float, bool]:
    """Execute one instance under modal speeds.

    Returns ``(energy, finish_time, deadline_met)``.  Tasks start by
    the schedule's :class:`~repro.scheduling.replay.ReplayPlan`, like
    the executor's replay, but each activated task's speed comes from
    the modal table using the decisions of its ancestor branch forks.
    """
    from ..sim.vectors import scenario_from_decisions

    ctg = schedule.ctg
    scenario = scenario_from_decisions(ctg.without_pseudo_edges(), decisions)
    active = scenario.active
    plan = ReplayPlan.of(schedule)
    exponent = schedule.platform.dvfs.exponent

    finishes: Dict[str, float] = {}
    energy = 0.0
    finish_time = 0.0
    for task in plan.order:
        if task not in active:
            continue
        known = {
            branch: decisions[branch]
            for branch in table.ancestor_branches.get(task, frozenset())
            if branch in decisions and branch in active
        }
        speed = schedule.platform.pe(schedule.pe_of(task)).clamp_speed(
            table.speed_for(task, known)
        )
        start = plan.start(task, finishes, decisions)
        placement = schedule.placement(task)
        finishes[task] = start + placement.wcet / speed
        finish_time = max(finish_time, finishes[task])
        energy += placement.nominal_energy * speed ** exponent
    for src, dst, data in ctg.edges(include_pseudo=False):
        if src in active and dst in active:
            if data.condition is not None and (
                decisions.get(data.condition.branch) != data.condition.label
            ):
                continue
            energy += schedule.platform.comm_energy(
                schedule.pe_of(src), schedule.pe_of(dst), data.comm_kbytes
            )
    deadline = ctg.deadline
    return energy, finish_time, deadline <= 0 or finish_time <= deadline + TIME_EPS
