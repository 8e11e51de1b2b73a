"""The paper's online scheduling + DVFS algorithm (§III.A), end to end.

One call runs both stages — the modified probability-aware DLS for
mapping/ordering, then the low-complexity slack-distribution stretching
heuristic for voltage selection — and returns a locked schedule.  This
is the routine the adaptive controller re-invokes whenever the windowed
branch probabilities drift past the threshold.

Because re-invocation is the common case, the call is built to be
cheap when repeated: pass the same ``analysis`` object every time and
the stretching stage reuses the cached path analytics whenever DLS
reproduces the previous mapping (see
:mod:`repro.scheduling.pathcache`); pass a
:class:`~repro.profiling.StageProfiler` to see exactly where the
re-scheduling time goes (``dls`` vs ``stretch`` stages, cache hit/miss
counters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from typing import Union

from ..ctg.graph import ConditionalTaskGraph
from ..ctg.minterms import BranchProbabilities, CtgAnalysis
from ..platform.mpsoc import Platform
from ..profiling import StageProfiler, as_profiler
from .dls import dls_schedule
from .policies import SpeedPolicy, resolve_speed_policy
from .schedule import Schedule
from .stretching import StretchReport, stretch_schedule


@dataclass
class OnlineResult:
    """Outcome of one online scheduling + DVFS invocation.

    ``profile`` carries the stage timings and cache counters of the
    invocation when a profiler was supplied (``None`` otherwise).
    """

    schedule: Schedule
    stretch: StretchReport
    profile: Optional[StageProfiler] = None


def schedule_online(
    ctg: ConditionalTaskGraph,
    platform: Platform,
    probabilities: Optional[BranchProbabilities] = None,
    deadline: Optional[float] = None,
    probability_weighted: bool = True,
    analysis: Optional[CtgAnalysis] = None,
    max_passes: int = 1,
    share_exponent: float = 1.0,
    profiler: Optional[StageProfiler] = None,
    check: bool = False,
    speed_policy: Union[None, str, SpeedPolicy] = None,
) -> OnlineResult:
    """Run the complete online algorithm.

    Parameters
    ----------
    ctg:
        The application graph (its ``deadline`` is used unless
        overridden).
    platform:
        The target MPSoC.
    probabilities:
        Branch distributions the schedule should be optimal for;
        defaults to the graph's profiled ones.
    deadline:
        Optional deadline override.
    probability_weighted:
        Forwarded to the stretching heuristic (the ablation switch).
    analysis:
        Pre-computed structural analysis of ``ctg``; pass it when
        calling repeatedly (the adaptive controller does) so scenario
        enumeration, mutual exclusion and Γ are derived only once —
        and so the stretching stage can cache path analytics across
        calls that produce the same mapping.
    max_passes, share_exponent:
        Forwarded to :func:`repro.scheduling.stretch_schedule` (the
        ablation knobs of the slack-distribution stage).
    profiler:
        Optional stage profiler; timings/counters accumulate into it
        and it is attached to the result as ``profile``.
    check:
        Debug hook: statically verify the produced schedule with
        :func:`repro.check.verify_schedule` (structure, per-minterm
        deadline feasibility, path-cache consistency) and raise
        :class:`repro.check.CheckError` on any error-severity finding.
        Off by default — the verification enumerates every scenario and
        would dominate the re-scheduling hot path.
    speed_policy:
        A :class:`~repro.scheduling.policies.SpeedPolicy` (or its
        registry name) selecting the speed-selection family.  ``None``
        means ``"continuous"``, the paper's stretching; ``"discrete"``
        quantises onto frequency tables, ``"preemptive"`` adds run-time
        slack reclamation (in the executor), ``"eaps"`` searches
        (frequency, cores) configurations and builds its own mapping.

    Returns
    -------
    OnlineResult
        The locked schedule plus stretching diagnostics.
    """
    prof = as_profiler(profiler)
    policy = resolve_speed_policy(speed_policy)
    with prof.stage("online"):
        if probabilities is None:
            probabilities = ctg.default_probabilities
        if analysis is None:
            analysis = CtgAnalysis.of(ctg)
        if policy.builds_schedule:
            schedule, stretch = policy.build(
                ctg,
                platform,
                probabilities,
                deadline=deadline,
                analysis=analysis,
                profiler=profiler,
            )
        else:
            with prof.stage("dls"):
                schedule = dls_schedule(
                    ctg, platform, probabilities, analysis=analysis, profiler=profiler
                )
            if deadline is not None:
                schedule.ctg.deadline = deadline
            stretch = policy.apply(
                schedule,
                probabilities=probabilities,
                deadline=deadline,
                probability_weighted=probability_weighted,
                analysis=analysis,
                max_passes=max_passes,
                share_exponent=share_exponent,
                profiler=profiler,
            )
    if check:
        # local import: repro.check.api imports this package back
        from ..check import assert_clean, verify_schedule

        with prof.stage("check"):
            assert_clean(
                verify_schedule(schedule, analysis), "schedule_online --check"
            )
        prof.count("check.passes")
    return OnlineResult(schedule=schedule, stretch=stretch, profile=profiler)


def full_speed_schedule(
    ctg: ConditionalTaskGraph,
    platform: Platform,
    probabilities: Optional[BranchProbabilities] = None,
    analysis: Optional[CtgAnalysis] = None,
    profiler: Optional[StageProfiler] = None,
) -> OnlineResult:
    """Plain DLS schedule with no voltage scaling (every speed 1.0).

    This is the graceful-degradation fallback: when a re-scheduling
    attempt itself fails (:class:`~repro.scheduling.schedule.SchedulingError`),
    the adaptive controller installs this schedule instead of crashing
    the loop — it maximises the deadline slack the framework can offer
    at the price of nominal energy.  The result mirrors
    :class:`OnlineResult` so callers can swap it in transparently; its
    stretch report records the all-ones speed assignment.
    """
    prof = as_profiler(profiler)
    with prof.stage("online.fallback"):
        if probabilities is None:
            probabilities = ctg.default_probabilities
        if analysis is None:
            analysis = CtgAnalysis.of(ctg)
        schedule = dls_schedule(
            ctg, platform, probabilities, analysis=analysis, profiler=profiler
        )
    report = StretchReport(speeds={task: 1.0 for task in schedule.placements})
    return OnlineResult(schedule=schedule, stretch=report, profile=profiler)


def minimal_makespan(ctg: ConditionalTaskGraph, platform: Platform) -> float:
    """Worst-case makespan of the nominal-speed DLS schedule.

    The paper sets experiment deadlines relative to "the optimum
    schedule length" (e.g. 2× for the cruise controller); this is the
    reproducible stand-in: the best schedule the framework itself can
    build at full speed.
    """
    schedule = dls_schedule(ctg, platform, ctg.default_probabilities)
    return schedule.makespan()


def set_deadline_from_makespan(
    ctg: ConditionalTaskGraph, platform: Platform, factor: float
) -> float:
    """Set ``ctg.deadline = factor × minimal makespan``; returns it."""
    if factor < 1.0:
        raise ValueError("deadline factor below 1.0 is necessarily infeasible")
    ctg.deadline = factor * minimal_makespan(ctg, platform)
    return ctg.deadline
