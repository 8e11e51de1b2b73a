"""Modified Dynamic Level Scheduling for conditional task graphs.

Stage 1 of the paper's online algorithm (§III.A), adopted from the
authors' ISCAS'07 work [17]: a list scheduler that maps and orders
computation *and* communication together, extended for CTGs with

* **probability-weighted static levels** — a branch fork node's level
  is the probability-weighted sum of its successors' levels instead of
  the maximum, so likely subgraphs dominate the priority;
* **mutual-exclusion-aware processor booking** — tasks that can never
  co-execute may share a time slot on the same PE;
* the **δ(τ, p) heterogeneity preference** — tasks gravitate to PEs
  faster than their average.

The dynamic level of a ready task τ on PE p is

    DL(τ, p) = SL(τ) − AT(τ, p) + δ(τ, p)                       (1)

with ``AT`` the earliest start honouring data arrival (including link
transfer and link contention) and PE occupancy.  The (τ, p) pair with
the largest DL is placed, pseudo edges serialise it against its same-PE
non-exclusive neighbours ("update the CTG"), and the ready list is
refreshed until empty.

The list scheduler is incremental.  Each (ready task, PE) candidate is
evaluated once and cached with its start time, the transfers it would
book and the links it read.  Placed tasks never move and exclusions are
static, so committing task X on PE p with transfers on links L changes
only the candidates of X itself, those on p and those that read a link
in L: exactly those cache entries are dropped, every other one is still
exact.  A task joins the ready set when its count of unplaced real
predecessors reaches zero; per-PE and per-link busy intervals are kept
sorted with :mod:`bisect`; and whether a pseudo edge is redundant is
read off ancestor bitsets instead of searching the graph.  The result —
placements, placement order, pseudo edges, link bookings and worst-case
times — is identical to the original rescan loop, which is kept as the
test oracle ``tests/oracles/dls.py``.

Setting ``probability_aware=False`` and ``mutex_overlap=False``
degrades the scheduler to a classic worst-case DLS — the mapping and
ordering stage used by Reference Algorithm 1.
"""

from __future__ import annotations

from bisect import insort
from operator import itemgetter
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from ..check.tolerances import EXACT_EPS
from ..ctg.graph import ConditionalTaskGraph
from ..ctg.minterms import (
    BranchProbabilities,
    CtgAnalysis,
    enumerate_scenarios,
    exclusion_table,
)
from ..platform.mpsoc import Platform
from ..profiling import StageProfiler, as_profiler
from .schedule import CommBooking, Schedule, SchedulingError

#: a busy interval on a PE or link: ``(start, finish, owner task)``
_Interval = Tuple[float, float, str]
#: a transfer a candidate would book: ``(src_task, start, duration, kbytes)``
_Transfer = Tuple[str, float, float, float]
#: a cached candidate evaluation: the selection key ``(DL, −start, task,
#: pe)``, the start, the transfers it would book and the links it read
_Candidate = Tuple[
    Tuple[float, float, str, str], float, List[_Transfer], Tuple[FrozenSet[str], ...]
]


def static_levels(
    ctg: ConditionalTaskGraph,
    platform: Platform,
    probabilities: BranchProbabilities,
    probability_aware: bool = True,
) -> Dict[str, float]:
    """The paper's SL(τ) over average WCETs.

    Non-branching nodes: ``SL = *WCET + max SL(successor)``.
    Branch fork nodes (when ``probability_aware``): ``SL = *WCET +
    Σ prob(c) · SL(successor via c)``, with unconditional successors
    entering through the max term alongside the weighted sum.
    """
    levels: Dict[str, float] = {}
    successors = ctg.graph.succ
    for task in reversed(ctg.topological_order()):
        base = platform.average_wcet(task)
        cond_sum = 0.0
        uncond_best = 0.0
        has_cond = False
        for dst, attrs in successors[task].items():
            data = attrs["data"]
            if data.pseudo:
                continue
            if data.condition is not None and probability_aware:
                has_cond = True
                prob = probabilities[data.condition.branch][data.condition.label]
                cond_sum += prob * levels[dst]
            else:
                uncond_best = max(uncond_best, levels[dst])
        tail = max(cond_sum, uncond_best) if has_cond else uncond_best
        levels[task] = base + tail
    return levels


def _first_fit(
    busy: Sequence[_Interval], exclusive: FrozenSet[str], ready: float, duration: float
) -> float:
    """Earliest start ≥ ``ready`` of a ``duration`` slot among the
    start-sorted intervals ``busy``; intervals owned by a task in
    ``exclusive`` are ignored (the two can never both happen)."""
    start = ready
    for interval_start, interval_finish, owner in busy:
        if owner in exclusive:
            continue
        if start + duration <= interval_start + EXACT_EPS:
            break
        if interval_finish > start:
            start = interval_finish
    return start


def _validate_mapping(
    ctg: ConditionalTaskGraph, platform: Platform, fixed_mapping: Mapping[str, str]
) -> None:
    """Every task must be mapped to a known PE that can run it."""
    known = set(platform.pe_names)
    for task in ctg.tasks():
        if task not in fixed_mapping:
            raise SchedulingError(f"fixed_mapping has no PE for task {task!r}")
        pe = fixed_mapping[task]
        if pe not in known:
            raise SchedulingError(
                f"fixed_mapping maps task {task!r} to unknown PE {pe!r}"
            )
        if not platform.supports(task, pe):
            raise SchedulingError(
                f"fixed_mapping maps task {task!r} to PE {pe!r}, "
                "which has no profile for it"
            )


class _DlsState:
    """Bookkeeping of the incremental list-scheduling loop.

    Built once per call: per-task real inputs ``(src, kbytes)`` in the
    graph's in-edge order, real successors, candidate PEs with their
    WCET and δ term, and the ancestor bitsets of the working graph.
    """

    def __init__(
        self,
        working: ConditionalTaskGraph,
        platform: Platform,
        schedule: Schedule,
        mutex_overlap: bool,
        fixed_mapping: Optional[Mapping[str, str]],
    ) -> None:
        self.working = working
        self.platform = platform
        self.schedule = schedule
        tasks = working.tasks()
        pes = platform.pe_names
        no_tasks: FrozenSet[str] = frozenset()
        exclusions = schedule.exclusions
        #: tasks each task may overlap with (none without mutex_overlap)
        self.exclusive: Dict[str, FrozenSet[str]] = {
            task: exclusions.get(task, no_tasks) if mutex_overlap else no_tasks
            for task in tasks
        }
        self.inputs: Dict[str, List[Tuple[str, float]]] = {}
        self.successors: Dict[str, List[str]] = {}
        #: unplaced real predecessors per task
        self.waiting: Dict[str, int] = {}
        #: (pe, wcet, δ) per task, in platform PE order
        self.options: Dict[str, List[Tuple[str, float, float]]] = {}
        graph = working.graph
        for task in tasks:
            inputs = [
                (src, attrs["data"].comm_kbytes)
                for src, attrs in graph.pred[task].items()
                if not attrs["data"].pseudo
            ]
            self.inputs[task] = inputs
            self.waiting[task] = len(inputs)
            self.successors[task] = [
                dst for dst, attrs in graph.succ[task].items() if not attrs["data"].pseudo
            ]
            avg = platform.average_wcet(task)
            options = []
            for pe in pes:
                if platform.supports(task, pe) and (
                    fixed_mapping is None or fixed_mapping[task] == pe
                ):
                    wcet = platform.wcet(task, pe)
                    options.append((pe, wcet, avg - wcet))
            self.options[task] = options
        #: worst-case (start, finish) of placed tasks at nominal speed
        self.times: Dict[str, Tuple[float, float]] = {}
        self.pe_of: Dict[str, str] = {}
        #: tasks per PE in placement order (the pseudo-edge scan order)
        self.pe_tasks: Dict[str, List[str]] = {pe: [] for pe in pes}
        self.pe_busy: Dict[str, List[_Interval]] = {pe: [] for pe in pes}
        self.link_busy: Dict[FrozenSet[str], List[_Interval]] = {}
        # ancestors[t] has bit i set when the task at topological index i
        # reaches t over real + pseudo edges
        order = list(nx.topological_sort(graph))
        self.bit: Dict[str, int] = {task: 1 << i for i, task in enumerate(order)}
        self.ancestors: Dict[str, int] = {}
        for task in order:
            mask = 0
            for pred in graph.pred[task]:
                mask |= self.ancestors[pred] | self.bit[pred]
            self.ancestors[task] = mask

    def evaluate(
        self, task: str, pe: str, wcet: float
    ) -> Tuple[float, List[_Transfer], Tuple[FrozenSet[str], ...]]:
        """Earliest start of ``task`` on ``pe``, the transfers it needs
        and the links it read.

        Each input's transfer takes the first link slot after its
        source finishes; inputs sharing a link also serialise against
        each other (``claimed``), not only against booked transfers.
        """
        times = self.times
        exclusive = self.exclusive
        ready = 0.0
        transfers: List[_Transfer] = []
        links: List[FrozenSet[str]] = []
        claimed: Dict[FrozenSet[str], List[_Interval]] = {}
        for src, kbytes in self.inputs[task]:
            src_pe = self.pe_of[src]
            finish = times[src][1]
            duration = self.platform.comm_time(src_pe, pe, kbytes)
            if duration > 0.0:
                key = frozenset((src_pe, pe))
                busy: Sequence[_Interval] = self.link_busy.get(key, ())
                pending = claimed.setdefault(key, [])
                if pending:
                    busy = sorted([*busy, *pending])
                start = _first_fit(busy, exclusive[src], finish, duration)
                pending.append((start, start + duration, src))
                transfers.append((src, start, duration, kbytes))
                links.append(key)
                ready = max(ready, start + duration)
            else:
                ready = max(ready, finish)
        start = _first_fit(self.pe_busy[pe], exclusive[task], ready, wcet)
        return start, transfers, tuple(links)

    def commit(
        self, task: str, pe: str, start: float, transfers: List[_Transfer]
    ) -> FrozenSet[FrozenSet[str]]:
        """Place ``task`` on ``pe`` at ``start``: record the placement,
        book its incoming transfers and serialise it against same-PE
        neighbours.  Returns the links the transfers were booked on."""
        schedule = self.schedule
        placement = schedule.place(task, pe)
        finish = start + placement.wcet
        self.times[task] = (start, finish)
        self.pe_of[task] = pe
        booked = set()
        for src, t_start, duration, kbytes in transfers:
            src_pe = self.pe_of[src]
            key = frozenset((src_pe, pe))
            insort(self.link_busy.setdefault(key, []), (t_start, t_start + duration, src))
            booked.add(key)
            schedule.book_comm(
                CommBooking(
                    src_task=src,
                    dst_task=task,
                    src_pe=src_pe,
                    dst_pe=pe,
                    start=t_start,
                    duration=duration,
                    kbytes=kbytes,
                )
            )
        # Pseudo edges: order `task` against every non-exclusive task
        # already on the PE.  Redundant edges (already reachable) are
        # skipped to keep the path set small.
        exclusive = self.exclusive[task]
        bit = self.bit
        ancestors = self.ancestors
        for other in self.pe_tasks[pe]:
            if other in exclusive:
                continue
            o_start, o_finish = self.times[other]
            if o_finish <= start + EXACT_EPS:
                if not ancestors[task] & bit[other]:
                    self._add_pseudo_edge(other, task)
            elif finish <= o_start + EXACT_EPS:
                if not ancestors[other] & bit[task]:
                    self._add_pseudo_edge(task, other)
            else:  # pragma: no cover - _first_fit prevents overlap
                raise SchedulingError(
                    f"internal: overlap between {task!r} and {other!r} on {pe!r}"
                )
        self.pe_tasks[pe].append(task)
        insort(self.pe_busy[pe], (start, finish, task))
        for succ in self.successors[task]:
            self.waiting[succ] -= 1
        return frozenset(booked)

    def _add_pseudo_edge(self, src: str, dst: str) -> None:
        """Add ``src → dst`` and extend the ancestors of ``dst`` and of
        everything it reaches by ``src`` and its ancestors."""
        self.working.add_pseudo_edge(src, dst)
        gained = self.ancestors[src] | self.bit[src]
        dst_bit = self.bit[dst]
        ancestors = self.ancestors
        for node, mask in ancestors.items():
            if node == dst or mask & dst_bit:
                ancestors[node] = mask | gained


def dls_schedule(
    ctg: ConditionalTaskGraph,
    platform: Platform,
    probabilities: Optional[BranchProbabilities] = None,
    probability_aware: bool = True,
    mutex_overlap: bool = True,
    fixed_mapping: Optional[Mapping[str, str]] = None,
    analysis: Optional[CtgAnalysis] = None,
    profiler: Optional[StageProfiler] = None,
) -> Schedule:
    """Map and order a CTG on a platform with the modified DLS.

    Parameters
    ----------
    ctg:
        The graph to schedule (left untouched; the schedule owns a
        working copy that accumulates pseudo edges).
    platform:
        Target platform (every task must be profiled on ≥ 1 PE).
    probabilities:
        Branch distributions; defaults to ``ctg.default_probabilities``.
    probability_aware:
        Use probability-weighted static levels (the modification of
        [17]); ``False`` gives classic worst-case levels.
    mutex_overlap:
        Allow mutually exclusive tasks to share PE/link time slots;
        ``False`` serialises everything (Reference Algorithm 1).
    fixed_mapping:
        Optional task→PE assignment.  When given, the list scheduler
        only *orders* tasks — each task's candidate PE set shrinks to
        its assigned PE (the setting of ref [10], which schedules on a
        pre-given mapping).  Every task must map to a PE that can run
        it, else :class:`SchedulingError` names the offending task.
    analysis:
        Pre-computed structural analysis (scenarios/exclusions); saves
        re-deriving it on every adaptive re-scheduling call.
    profiler:
        Optional :class:`~repro.profiling.StageProfiler`; records the
        ``dls.levels`` stage and the ``dls.tasks_placed`` and
        ``dls.candidates_evaluated`` counters.

    Returns
    -------
    Schedule
        All tasks placed at nominal speed, pseudo edges recorded.
    """
    prof = as_profiler(profiler)
    if fixed_mapping is not None:
        _validate_mapping(ctg, platform, fixed_mapping)
    if probabilities is None:
        probabilities = ctg.default_probabilities
    working = ctg.copy()
    if analysis is None:
        scenarios = enumerate_scenarios(working)
        exclusions = exclusion_table(working, scenarios)
    else:
        exclusions = analysis.exclusions
    schedule = Schedule(working, platform, exclusions)
    with prof.stage("dls.levels"):
        levels = static_levels(ctg, platform, probabilities, probability_aware)
    state = _DlsState(working, platform, schedule, mutex_overlap, fixed_mapping)

    ready = [task for task, count in state.waiting.items() if count == 0]
    cache: Dict[Tuple[str, str], _Candidate] = {}
    evaluated = 0
    for _step in range(len(state.waiting)):
        if not ready:
            raise SchedulingError("no ready task — graph is not a DAG?")
        for task in ready:
            level = levels[task]
            for pe, wcet, delta in state.options[task]:
                if (task, pe) in cache:
                    continue
                start, transfers, links = state.evaluate(task, pe, wcet)
                evaluated += 1
                # Maximise DL; break ties on earlier start then names
                # for determinism.
                rank = (level - start + delta, -start, task, pe)
                cache[task, pe] = (rank, start, transfers, links)
        (_dl, _neg, task, pe), start, transfers, _links = max(
            cache.values(), key=itemgetter(0)
        )
        booked = state.commit(task, pe, start, transfers)
        ready.remove(task)
        ready.extend(s for s in state.successors[task] if state.waiting[s] == 0)
        cache = {
            key: entry
            for key, entry in cache.items()
            if key[0] != task and key[1] != pe and booked.isdisjoint(entry[3])
        }
    prof.count("dls.tasks_placed", len(schedule.placements))
    prof.count("dls.candidates_evaluated", evaluated)
    return schedule
