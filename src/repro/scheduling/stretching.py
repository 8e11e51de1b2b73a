"""Online task-stretching heuristic — the paper's Figure 2.

Stage 2 of the online algorithm: after the modified DLS has fixed the
mapping and ordering (recorded as pseudo edges in the schedule's CTG),
every task receives **one** speed, chosen by distributing path slack in
proportion to probability-weighted criticality:

1. enumerate all source→sink paths of the scheduled graph, with
   per-path ``delay`` (execution + cross-PE communication),
   ``slk = deadline − delay`` and ``stretchable`` (execution time of
   the not-yet-locked tasks — the denominator of the distributable
   ratio: the paper's update step "releas[es] the tasks that are being
   stretched from consideration", so on a simple chain every task ends
   at the same speed, matching the NLP optimum);
2. for each task τ in scheduler order, ``CalculateSlack(τ)``:

   * **slk1** — for every minterm with *uncertain* spanning paths
     (``prob(p, τ) ≠ 1``), the critical path's ratio weighted by the
     probability of the still-undecided branch outcomes (per-minterm
     critical paths found in one ratio-ordered sweep over the
     scenario membership — see :func:`_vector_slack`);
   * **slk2** — the critical *certain* path's plain share;
   * both scaled by wcet(τ) and prob(τ); the grant is
     ``min(slk1, slk2)`` clamped so every spanning path still meets
     the deadline (steps 9–10 — this is what makes the result a
     *hard* real-time schedule in every scenario);

3. stretch τ by its grant, lock its speed (PE envelope applied), and
   fold the consumed slack into every spanning path before the next
   task.

Both slack terms are weighted by the activation probability prob(τ), so
likely tasks collect more slack — the adaptive lever the paper pulls
when branch statistics drift.  The knobs: ``probability_weighted=False``
reproduces ref [9]'s uniform distribution, ``share_exponent`` softens
the linear weight toward the energy-optimal root, ``max_passes`` adds
redistribution sweeps, ``prune_zero_probability`` drops statistically
impossible paths — all measured by the slack-weighting ablation bench
and discussed in DESIGN.md §6.1.

The implementation is vectorized: scenario membership is a boolean
path×scenario matrix, scenario probabilities an array, and path
delays/slack vectors, so the per-minterm critical-path sweep of
``CalculateSlack`` becomes a handful of numpy operations.  The path
analytics come from the fingerprint-keyed cache in
:mod:`repro.scheduling.pathcache` when an ``analysis`` is supplied (the
adaptive controller's repeated re-scheduling hits that cache whenever
drift leaves the DLS outcome unchanged).  The original scalar
per-path-state walk lives in ``tests/oracles/stretching.py`` as the
executable specification the property tests compare against; the two
agree up to floating-point summation order (well below 1e-9 relative).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..ctg.minterms import BranchProbabilities, CtgAnalysis, Scenario, enumerate_scenarios
from ..check.tolerances import CERTAIN_TOL, TIME_EPS
from ..profiling import StageProfiler, as_profiler
from .pathcache import PathStructure, structure_for
from .schedule import Schedule, SchedulingError

#: message raised when the scheduled graph genuinely has no paths
_NO_PATHS = "schedule has no paths to stretch along"


@dataclass
class StretchReport:
    """Diagnostics of one stretching run.

    Attributes
    ----------
    slack_given:
        Raw slack granted to each task (before PE-envelope clamping).
    speeds:
        Final relative speed of each task.
    path_count:
        Number of paths the heuristic reasoned over.
    """

    slack_given: Dict[str, float] = field(default_factory=dict)
    speeds: Dict[str, float] = field(default_factory=dict)
    path_count: int = 0


def stretch_schedule(
    schedule: Schedule,
    probabilities: Optional[BranchProbabilities] = None,
    deadline: Optional[float] = None,
    probability_weighted: bool = True,
    analysis: Optional["CtgAnalysis"] = None,
    max_passes: int = 1,
    share_exponent: float = 1.0,
    prune_zero_probability: bool = False,
    profiler: Optional[StageProfiler] = None,
) -> StretchReport:
    """Assign DVFS speeds to a mapped/ordered schedule (in place).

    Parameters
    ----------
    schedule:
        Output of :func:`repro.scheduling.dls.dls_schedule`; modified in
        place (speeds set on its placements).
    probabilities:
        Branch distributions; defaults to the graph's profiled ones.
    deadline:
        Overrides the graph's deadline when given.
    probability_weighted:
        Weight slack by activation probability (the paper's approach).
        ``False`` drops the prob(τ) and prob(p, τ) weights — the
        uniform slack distribution the paper criticises ref [9] for.
    analysis:
        Pre-computed structural analysis (scenarios/Γ); saves
        re-deriving it on every adaptive re-scheduling call, and is the
        home of the path-analytics cache: schedules with an identical
        pseudo-edge/mapping fingerprint reuse the analytics cached on
        ``analysis.path_cache``.
    max_passes:
        Number of distribution sweeps.  The paper's procedure is one
        sweep (the default): each task receives its probability-
        weighted share once and is locked, which is precisely what
        lets a mispredicted distribution starve the tasks it considers
        unlikely (the Table 4 effect).  Additional sweeps re-offer the
        slack that probability weighting left on each path — closer to
        the NLP optimum for the *given* distribution but far less
        sensitive to it; the ablation bench compares the two regimes.
    share_exponent:
        Exponent applied to the activation probability in the slack
        grant; 1.0 is the paper's linear weighting ("both slack values
        are further weighted by the activation probability").  Under
        the E ∝ ρ^α DVFS law the *energy-optimal* share weight is the
        (α+1)-th root (the KKT point of the expected-energy NLP on a
        chain), i.e. ``1/3`` for the quadratic model — available here
        for the weighting ablation.
    prune_zero_probability:
        Treat paths whose branch conditions have probability 0 under
        the supplied distribution as non-existent: they impose no
        deadline constraint and receive no slack.  This is what makes
        the schedule *statistically* optimal for the profiled
        distribution — when a sliding window has seen only one side of
        a branch for L instances, the other side's subgraph stops
        constraining the speeds (its tasks stay at nominal speed).  If
        the pruned branch then fires before the profiler reacts, the
        instance may overrun the deadline; the simulator counts such
        misses and the experiment reports include them.  Default
        ``False``: strictly hard-real-time behaviour under any branch
        decision (measured to cost nothing on the paper's workloads —
        see the pruning ablation bench).  When the distribution prunes
        *every* path (degenerate but reachable through a saturated
        window), pruning is abandoned for the call and the schedule is
        stretched unpruned instead — only a graph with no paths at all
        raises :class:`SchedulingError`.
    profiler:
        Optional :class:`~repro.profiling.StageProfiler` collecting
        stage timings (``stretch``, ``stretch.structure``,
        ``stretch.refresh``, ``stretch.sweep``) and cache counters.

    Returns
    -------
    StretchReport
        Per-task slack/speed diagnostics.

    Raises
    ------
    SchedulingError
        If the nominal-speed schedule already misses the deadline, or
        the scheduled graph has no source→sink paths.
    """
    prof = as_profiler(profiler)
    with prof.stage("stretch"):
        ctg = schedule.ctg
        limit = ctg.deadline if deadline is None else deadline
        if limit <= 0:
            raise SchedulingError("stretching needs a positive deadline")
        if probabilities is None:
            probabilities = ctg.default_probabilities

        if analysis is None:
            real_ctg = ctg.without_pseudo_edges()
            scenarios: Sequence[Scenario] = enumerate_scenarios(real_ctg)
            cache = None
        else:
            scenarios = analysis.scenarios
            cache = analysis.path_cache

        structure = structure_for(schedule, scenarios, cache=cache, profiler=prof)
        return _stretch_vectorized(
            schedule,
            structure,
            probabilities,
            limit,
            probability_weighted,
            max_passes,
            share_exponent,
            prune_zero_probability,
            prof,
        )


def _stretch_vectorized(
    schedule: Schedule,
    structure: PathStructure,
    probabilities: BranchProbabilities,
    limit: float,
    probability_weighted: bool,
    max_passes: int,
    share_exponent: float,
    prune_zero_probability: bool,
    prof: StageProfiler,
) -> StretchReport:
    if structure.path_count == 0:
        raise SchedulingError(_NO_PATHS)
    tables = structure.tables(probabilities, prof)
    scenario_probs = tables.scenario_probs
    prob_after_flat = tables.prob_after_flat
    act_prob = tables.act_prob

    with prof.stage("stretch.sweep"):
        exec_values = structure.execution_vector(schedule)
        delay = structure.delay_vector(schedule, exec_values)
        stretchable = structure.stretchable_vector(exec_values)
        slack = limit - delay

        if prune_zero_probability:
            path_probs = structure.membership.astype(float) @ scenario_probs
            keep = path_probs > 0.0
            if not keep.any():
                # every path is statistically impossible under this
                # distribution — pruning them all would leave nothing to
                # stretch along, so fall back to unpruned stretching
                # (strict hard-real-time behaviour) for this call.
                keep = np.ones(structure.path_count, dtype=bool)
                prof.count("stretch.prune_fallback")
        else:
            keep = np.ones(structure.path_count, dtype=bool)

        worst = float(slack[keep].min())
        if worst < -TIME_EPS:
            raise SchedulingError(
                f"nominal schedule infeasible: most critical path exceeds the "
                f"deadline by {-worst:.3f}"
            )

        pruning = not keep.all()
        spanning: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for task in structure.task_list:
            idx = structure.spanning_idx[task]
            flat = structure.spanning_flat[task]
            if pruning and idx.size:
                kept = keep[idx]
                idx, flat = idx[kept], flat[kept]
            spanning[task] = (idx, flat)

        report = StretchReport(path_count=int(keep.sum()))
        order = schedule.placement_order()
        epsilon = 1e-9 * limit
        membership = structure.membership
        for _ in range(max(1, max_passes)):
            granted = 0.0
            for task in order:
                idx, flat = spanning[task]
                if idx.size == 0:
                    # every path through this task was pruned: the task
                    # cannot occur under the current distribution, so it
                    # keeps nominal speed and no bookkeeping changes.
                    report.slack_given.setdefault(task, 0.0)
                    report.speeds[task] = schedule.placement(task).speed
                    continue
                placement = schedule.placement(task)
                duration = placement.duration  # current, after earlier passes

                span_slack = slack[idx]
                span_stretchable = stretchable[idx]
                ratio = np.zeros(idx.size)
                positive = span_stretchable > 0
                np.divide(
                    np.maximum(span_slack, 0.0),
                    span_stretchable,
                    out=ratio,
                    where=positive,
                )

                grant = _vector_slack(
                    duration,
                    ratio,
                    idx,
                    prob_after_flat[flat],
                    membership,
                    scenario_probs,
                    act_prob.get(task, 0.0) ** share_exponent,
                    probability_weighted,
                )
                # Steps 9-10: never let a spanning path cross the deadline.
                grant = min(grant, float(span_slack.min()))
                grant = max(grant, 0.0)
                report.slack_given[task] = report.slack_given.get(task, 0.0) + grant

                schedule.set_speed(task, placement.wcet / (duration + grant))
                report.speeds[task] = placement.speed
                consumed = placement.duration - duration  # after PE clamping
                granted += consumed
                delay[idx] += consumed
                slack[idx] -= consumed
                stretchable[idx] -= duration
            if granted <= epsilon:
                break
            # Re-arm the stretchable pool for the next sweep: every task is
            # unlocked again, its weight now being its *current* duration.
            exec_values = structure.execution_vector(schedule)
            stretchable = structure.stretchable_vector(exec_values)
    return report


def _vector_slack(
    wcet: float,
    ratio: np.ndarray,
    span_idx: np.ndarray,
    prob_after: np.ndarray,
    membership: np.ndarray,
    scenario_probs: np.ndarray,
    task_prob: float,
    probability_weighted: bool,
) -> float:
    """CalculateSlack(τ) over the spanning-path vectors.

    The paper's steps 1–8: the per-minterm critical paths of
    ``slk1`` are found by a stable ratio sort of the uncertain paths —
    ``argmax`` down the sorted membership columns yields each
    scenario's first (most critical) claimant, and ``bincount``
    accumulates the scenario probabilities per claimant.
    """
    if ratio.size == 0:
        return 0.0
    if not probability_weighted:
        return wcet * float(ratio.min())

    uncertain = prob_after < 1.0 - CERTAIN_TOL

    slk1: Optional[float] = None
    if uncertain.any():
        order = np.argsort(ratio[uncertain], kind="stable")
        ratios_sorted = ratio[uncertain][order]
        rows = membership[span_idx[uncertain][order]]
        covered = rows.any(axis=0)
        total_prob = float(scenario_probs[covered].sum())
        if total_prob > 0.0:
            first_claimant = rows.argmax(axis=0)
            per_claimant = np.bincount(
                first_claimant[covered],
                weights=scenario_probs[covered],
                minlength=ratios_sorted.size,
            )
            weighted_ratio = float(per_claimant @ ratios_sorted)
            slk1 = wcet * (weighted_ratio / total_prob) * task_prob

    slk2: Optional[float] = None
    if not uncertain.all():
        slk2 = wcet * float(ratio[~uncertain].min()) * task_prob

    values = [v for v in (slk1, slk2) if v is not None]
    return min(values) if values else 0.0
