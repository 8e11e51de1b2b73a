"""Scalar reference implementation of the Figure-2 stretching heuristic.

This is the original per-path-state walk of
:func:`repro.scheduling.stretching.stretch_schedule`, kept as a test
oracle: it re-derives every path with :func:`~repro.ctg.paths.enumerate_paths`
and evaluates ``CalculateSlack`` with Python loops over
:class:`_PathState` objects and scenario bitmasks, so it shares no
code with the production kernels beyond the schedule itself.  The
production path must agree with it up to floating-point summation
order (see ``tests/test_stretching_oracle.py``).

:func:`reference_stretch` is the entry point; it mirrors the argument
handling of ``stretch_schedule`` (deadline override, default
probabilities, scenario enumeration) without any path cache.
:func:`reference_online` runs the DLS oracle (``tests/oracles/dls.py``)
and then the reference stretch, the uncached twin of ``schedule_online``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.check.tolerances import CERTAIN_TOL, TIME_EPS
from repro.ctg.conditions import ConditionProduct
from repro.ctg.minterms import (
    BranchProbabilities,
    CtgAnalysis,
    Scenario,
    activation_probability,
    enumerate_scenarios,
)
from repro.ctg.paths import CTGPath, enumerate_paths, path_delay
from repro.profiling import StageProfiler, as_profiler
from repro.scheduling.online import OnlineResult
from repro.scheduling.schedule import Schedule, SchedulingError
from repro.scheduling.stretching import _NO_PATHS, StretchReport

from .dls import reference_dls


def reference_stretch(
    schedule: Schedule,
    probabilities: Optional[BranchProbabilities] = None,
    deadline: Optional[float] = None,
    probability_weighted: bool = True,
    analysis: Optional[CtgAnalysis] = None,
    max_passes: int = 1,
    share_exponent: float = 1.0,
    prune_zero_probability: bool = False,
    profiler: Optional[StageProfiler] = None,
) -> StretchReport:
    """Stretch ``schedule`` in place with the scalar reference walk.

    Same signature and semantics as
    :func:`repro.scheduling.stretching.stretch_schedule`; ``analysis``
    only supplies the scenario list (no path analytics are reused).
    """
    prof = as_profiler(profiler)
    ctg = schedule.ctg
    limit = ctg.deadline if deadline is None else deadline
    if limit <= 0:
        raise SchedulingError("stretching needs a positive deadline")
    if probabilities is None:
        probabilities = ctg.default_probabilities
    if analysis is None:
        real_ctg = ctg.without_pseudo_edges()
        scenarios: Sequence[Scenario] = enumerate_scenarios(real_ctg)
    else:
        scenarios = analysis.scenarios
    return _stretch_scalar(
        schedule,
        scenarios,
        probabilities,
        limit,
        probability_weighted,
        max_passes,
        share_exponent,
        prune_zero_probability,
        prof,
    )


@dataclass
class _PathState:
    """Mutable delay/slack bookkeeping of one path.

    ``delay`` tracks the path's total current delay (execution at the
    locked speeds plus communication).  ``stretchable`` tracks the
    nominal execution time of the tasks on the path that are *not yet
    locked* — the paper's update step "releas[es] the tasks that are
    being stretched from consideration", so the distributable ratio is
    taken against what can still absorb slack.  On a simple chain this
    makes the heuristic hand out exactly the available slack (every
    task ends at the same speed, matching the NLP optimum), which is
    what puts it within a few percent of the NLP baseline as the paper
    reports.

    ``prob_after`` caches the paper's ``prob(p, τ)`` per task on the
    path under the distribution of this stretching run (computed once
    up front — the inner loop queries it |V|·|paths| times).
    """

    path: CTGPath
    delay: float
    slack: float
    stretchable: float
    prob_after: Dict[str, float] = field(default_factory=dict)
    #: bitmask over the scenario list: which minterms this path can
    #: occur under (its edge conditions all chosen by the scenario)
    scenario_mask: int = 0

    @property
    def ratio(self) -> float:
        """The distributable slack ratio slk(p) / stretchable-delay(p)."""
        if self.stretchable <= 0:
            return 0.0
        return max(self.slack, 0.0) / self.stretchable

    def fill_prob_after(self, probabilities: BranchProbabilities) -> None:
        """Pre-compute prob(p, τ) for every task on the path."""
        hops = [
            (i, outcome)
            for i, outcome in enumerate(self.path.edge_conditions)
            if outcome is not None
        ]
        for position, node in enumerate(self.path.nodes):
            probability = 1.0
            for hop, outcome in hops:
                if hop >= position:
                    probability *= probabilities[outcome.branch][outcome.label]
            self.prob_after[node] = probability



def _stretch_scalar(
    schedule: Schedule,
    scenarios: Sequence[Scenario],
    probabilities: BranchProbabilities,
    limit: float,
    probability_weighted: bool,
    max_passes: int,
    share_exponent: float,
    prune_zero_probability: bool,
    prof: StageProfiler,
) -> StretchReport:
    ctg = schedule.ctg
    act_prob = activation_probability(None, probabilities, scenarios=scenarios)
    scenario_probs = [s.probability(probabilities) for s in scenarios]
    scenario_assignments = [dict(s.product.assignment) for s in scenarios]

    exec_times = schedule.execution_times()
    edge_delays = schedule.edge_delays()
    mask_cache: Dict[ConditionProduct, int] = {}
    paths = enumerate_paths(ctg, include_pseudo=True)
    prof.count("paths.enumerated", len(paths))
    if not paths:
        raise SchedulingError(_NO_PATHS)
    masks = [
        _scenario_mask(path.condition, scenario_assignments, mask_cache)
        for path in paths
    ]
    kept = list(range(len(paths)))
    if prune_zero_probability:
        kept = [
            j
            for j, mask in enumerate(masks)
            if _mask_probability(mask, scenario_probs) > 0.0
        ]
        if not kept:
            # see the prune_zero_probability note in stretch_schedule:
            # a distribution that prunes every path falls back to
            # unpruned (strict) stretching instead of erroring out.
            kept = list(range(len(paths)))
            prof.count("stretch.prune_fallback")
    states: List[_PathState] = []
    for j in kept:
        path = paths[j]
        delay = path_delay(path, exec_times, edge_delays)
        stretchable = sum(exec_times[node] for node in path.nodes)
        state = _PathState(
            path=path, delay=delay, slack=limit - delay, stretchable=stretchable
        )
        state.fill_prob_after(probabilities)
        state.scenario_mask = masks[j]
        states.append(state)
    worst = min(state.slack for state in states)
    if worst < -TIME_EPS:
        raise SchedulingError(
            f"nominal schedule infeasible: most critical path exceeds the "
            f"deadline by {-worst:.3f}"
        )

    spanning: Dict[str, List[_PathState]] = {task: [] for task in ctg.tasks()}
    for state in states:
        for node in state.path.nodes:
            spanning[node].append(state)

    report = StretchReport(path_count=len(states))
    order = schedule.placement_order()
    epsilon = 1e-9 * limit
    for _ in range(max(1, max_passes)):
        granted = 0.0
        for task in order:
            if not spanning[task]:
                # every path through this task was pruned: the task
                # cannot occur under the current distribution, so it
                # keeps nominal speed and no bookkeeping changes.
                report.slack_given.setdefault(task, 0.0)
                report.speeds[task] = schedule.placement(task).speed
                continue
            placement = schedule.placement(task)
            duration = placement.duration  # current, after earlier passes
            slack = _calculate_slack(
                task,
                duration,
                spanning[task],
                act_prob.get(task, 0.0) ** share_exponent,
                scenario_probs,
                probability_weighted,
            )
            # Steps 9-10: never let a spanning path cross the deadline.
            slack = min(slack, min(state.slack for state in spanning[task]))
            slack = max(slack, 0.0)
            report.slack_given[task] = report.slack_given.get(task, 0.0) + slack

            schedule.set_speed(task, placement.wcet / (duration + slack))
            report.speeds[task] = placement.speed
            consumed = placement.duration - duration  # after PE clamping
            granted += consumed
            for state in spanning[task]:
                state.delay += consumed
                state.slack -= consumed
                state.stretchable -= duration
        if granted <= epsilon:
            break
        # Re-arm the stretchable pool for the next sweep: every task is
        # unlocked again, its weight now being its *current* duration.
        for state in states:
            state.stretchable = sum(
                schedule.placement(node).duration for node in state.path.nodes
            )
    return report


def _scenario_mask(
    condition: ConditionProduct,
    scenario_assignments: Sequence[Mapping[str, str]],
    cache: Dict[ConditionProduct, int],
) -> int:
    """Bitmask of the scenarios under which a path can occur.

    A path belongs to a minterm when every branch outcome on the path
    is actually *chosen by* that scenario (a scenario that deactivates
    the branch cannot run the path).  Conditions repeat heavily across
    paths, hence the cache.
    """
    mask = cache.get(condition)
    if mask is not None:
        return mask
    items = list(condition.assignment.items())
    mask = 0
    for index, assignment in enumerate(scenario_assignments):
        if all(assignment.get(branch) == label for branch, label in items):
            mask |= 1 << index
    cache[condition] = mask
    return mask


def _calculate_slack(
    task: str,
    wcet: float,
    spanning_states: Sequence[_PathState],
    task_prob: float,
    scenario_probs: Sequence[float],
    probability_weighted: bool,
) -> float:
    """The paper's CalculateSlack(τ) (Figure 2, steps 1–8).

    ``slk1`` iterates the minterms (scenarios): for each minterm, the
    critical spanning path among those belonging to it with
    ``prob(p, τ) ≠ 1`` contributes its distributable ratio, weighted by
    the probability of the branch outcomes still undecided after τ —
    implemented as the scenario's probability normalised over the
    minterms that have uncertain spanning paths, which on branch-pure
    paths (no pseudo-edge mixing) equals the paper's prob(p_worst, τ)
    exactly (e.g. Figure 1: the weights for τ₁ are 0.4/0.3/0.3, for τ₅
    they are 0.5/0.5 = prob(b₁)/prob(b₂)).  ``slk2`` is the plain share
    of the critical *certain* path.  Both carry the prob(τ) activation
    weight, and the grant is their minimum so an uncertain critical
    path can never starve a certain one.

    With ``probability_weighted=False`` all probability weights drop to
    the ref-[9] flavour the paper criticises: every spanning path is
    treated alike and the share is the critical path's, regardless of
    how likely the task or the path is.

    The per-minterm critical paths are found in one sweep: walk the
    spanning paths in ascending ratio order and let each claim every
    not-yet-claimed scenario it belongs to — the first claimant of a
    scenario is by construction its lowest-ratio (most critical) path.
    """
    if not spanning_states:
        return 0.0
    if not probability_weighted:
        critical = min(spanning_states, key=lambda s: s.ratio)
        return wcet * critical.ratio

    uncertain: List[_PathState] = []
    certain: List[_PathState] = []
    for state in spanning_states:
        if state.prob_after[task] >= 1.0 - CERTAIN_TOL:
            certain.append(state)
        else:
            uncertain.append(state)

    slk1: Optional[float] = None
    if uncertain:
        uncertain.sort(key=lambda s: s.ratio)
        universe = 0
        for state in uncertain:
            universe |= state.scenario_mask
        total_prob = _mask_probability(universe, scenario_probs)
        if total_prob > 0.0:
            claimed = 0
            weighted_ratio = 0.0
            for state in uncertain:
                fresh = state.scenario_mask & ~claimed
                if not fresh:
                    continue
                weighted_ratio += _mask_probability(fresh, scenario_probs) * state.ratio
                claimed |= fresh
                if claimed == universe:
                    break
            slk1 = wcet * (weighted_ratio / total_prob) * task_prob

    slk2: Optional[float] = None
    if certain:
        critical = min(certain, key=lambda s: s.ratio)
        slk2 = wcet * critical.ratio * task_prob

    values = [v for v in (slk1, slk2) if v is not None]
    return min(values) if values else 0.0


def _mask_probability(mask: int, scenario_probs: Sequence[float]) -> float:
    """Total probability of the scenarios set in ``mask``."""
    total = 0.0
    index = 0
    while mask:
        if mask & 1:
            total += scenario_probs[index]
        mask >>= 1
        index += 1
    return total


def reference_online(
    ctg,
    platform,
    probabilities: Optional[BranchProbabilities] = None,
    analysis: Optional[CtgAnalysis] = None,
) -> OnlineResult:
    """The DLS oracle's mapping followed by :func:`reference_stretch`.

    The oracle twin of :func:`repro.scheduling.online.schedule_online`
    with the default knobs and the continuous speed policy.
    """
    if probabilities is None:
        probabilities = ctg.default_probabilities
    if analysis is None:
        analysis = CtgAnalysis.of(ctg)
    schedule = reference_dls(ctg, platform, probabilities, analysis=analysis)
    report = reference_stretch(schedule, probabilities, analysis=analysis)
    return OnlineResult(schedule=schedule, stretch=report)
