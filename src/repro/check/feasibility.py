"""Scenario-complete deadline feasibility of a stretched schedule.

The paper's Figure-2 guarantee is that the stretching heuristic never
lets *any* scenario of the conditional task graph miss the deadline
(steps 9–10 clamp each grant against every spanning path).  The
simulator exercises that guarantee dynamically, one decision vector at
a time; this checker proves it statically, **exhaustively over the
minterm set**: for every scenario it computes the symbolic longest-path
finish time of the scenario's activated subgraph under the schedule's
current (stretched) speeds and compares it against the deadline.

The per-scenario propagation applies the start-time rule the simulator
replays (:class:`repro.scheduling.replay.ReplayPlan`, compiled once per
check): only the scenario's activated tasks execute, a conditional
edge binds only when the scenario chose its outcome, pseudo edges bind
whenever their source is active, and an or-node waits for every
activated upstream branch fork that decides one of its inputs (paper
Example 1).

Because the worst-case propagation of :meth:`Schedule.worst_case_times`
maximises over a superset of these arrivals, each scenario's finish is
bounded by the worst-case makespan — so on an intact schedule this
check is implied by ``SCHED030``.  Its value is *diagnostic precision*
on corrupted or hand-edited schedules: it names the exact minterm that
breaks and by how much, instead of one global bound.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..ctg.minterms import Scenario, enumerate_scenarios
from ..platform.mpsoc import PlatformError
from ..scheduling.replay import ReplayPlan
from ..scheduling.schedule import Schedule
from .diagnostics import Diagnostic
from .tolerances import TIME_EPS


def scenario_finish_time(schedule: Schedule, scenario: Scenario) -> float:
    """Finish time of one scenario under the schedule's current speeds.

    Unplaced tasks are skipped (``SCHED001`` reports them); the result
    is then a lower bound, which keeps the feasibility findings sound.
    """
    return _finish_time(ReplayPlan.of(schedule), schedule, scenario)


def _finish_time(plan: ReplayPlan, schedule: Schedule, scenario: Scenario) -> float:
    decisions = scenario.product.assignment
    active = scenario.active
    finishes: Dict[str, float] = {}
    finish_time = 0.0
    for task in plan.order:
        if task not in active or task not in schedule.placements:
            continue
        start = plan.start(task, finishes, decisions)
        finishes[task] = start + schedule.placement(task).duration
        finish_time = max(finish_time, finishes[task])
    return finish_time


def check_scenario_feasibility(
    schedule: Schedule,
    scenarios: Optional[Sequence[Scenario]] = None,
    deadline: Optional[float] = None,
) -> List[Diagnostic]:
    """``SCHED031`` findings: one per minterm that misses the deadline.

    ``scenarios`` defaults to enumerating the schedule's own graph
    (pass ``CtgAnalysis.scenarios`` to reuse a cached enumeration);
    ``deadline`` defaults to the graph's.
    """
    limit = schedule.ctg.deadline if deadline is None else deadline
    if limit <= 0:
        return []  # CTG005/CTG006 report the missing deadline
    try:
        plan = ReplayPlan.of(schedule)
    except PlatformError:
        return []  # broken mapping; SCHED002/PLAT002 report the cause
    if scenarios is None:
        scenarios = enumerate_scenarios(schedule.ctg.without_pseudo_edges())
    findings: List[Diagnostic] = []
    for scenario in scenarios:
        finish = _finish_time(plan, schedule, scenario)
        if finish > limit + TIME_EPS:
            findings.append(
                Diagnostic(
                    "SCHED031",
                    f"scenario {scenario.product} finishes at {finish:.6f}, "
                    f"{finish - limit:.6f} past the deadline {limit:.6f} "
                    "under the stretched speeds",
                    subject=str(scenario.product),
                )
            )
    return findings
