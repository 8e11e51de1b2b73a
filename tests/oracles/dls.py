"""Rescan-loop reference implementation of the modified DLS scheduler.

This is the original list-scheduling loop of
:func:`repro.scheduling.dls.dls_schedule`, kept as a test oracle: on
every step it rebuilds the ready list by scanning each unscheduled
task's predecessors, evaluates every (ready task × PE) pair from
scratch through the networkx edge views, re-sorts the PE and link
intervals per evaluation and probes ``nx.has_path`` for every pseudo
edge.  It shares only :func:`~repro.scheduling.dls.static_levels` and
the :class:`~repro.scheduling.schedule.Schedule` record with the
production scheduler, which must produce the same placements,
placement order, pseudo edges, link bookings and worst-case times
(see ``tests/test_dls.py``).

:func:`reference_dls` is the entry point; it has the signature of
``dls_schedule``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import networkx as nx

from repro.check.tolerances import EXACT_EPS
from repro.ctg.graph import ConditionalTaskGraph
from repro.ctg.minterms import (
    BranchProbabilities,
    CtgAnalysis,
    enumerate_scenarios,
    exclusion_table,
)
from repro.platform.mpsoc import Platform
from repro.profiling import StageProfiler, as_profiler
from repro.scheduling.dls import static_levels
from repro.scheduling.schedule import CommBooking, Schedule, SchedulingError


@dataclass
class _LinkBooking:
    """Mutable view of transfers on one link during scheduling."""

    intervals: List[Tuple[float, float, str]]  # (start, finish, src_task)


class _DlsState:
    """Bookkeeping of the list-scheduling main loop."""

    def __init__(
        self,
        schedule: Schedule,
        mutex_overlap: bool,
    ) -> None:
        self.schedule = schedule
        self.mutex_overlap = mutex_overlap
        #: worst-case (start, finish) of placed tasks at nominal speed
        self.times: Dict[str, Tuple[float, float]] = {}
        self.link_bookings: Dict[frozenset, _LinkBooking] = {}
        #: tasks per PE in placement order (avoids the repeated
        #: order-index sort of Schedule.tasks_on in the candidate loop)
        self.pe_tasks: Dict[str, List[str]] = {}

    def are_exclusive(self, a: str, b: str) -> bool:
        """Mutual exclusion, gated by the mutex_overlap switch."""
        return self.mutex_overlap and self.schedule.are_exclusive(a, b)

    # -- processor booking ------------------------------------------------
    def earliest_pe_slot(self, task: str, pe: str, ready: float, duration: float) -> float:
        """Earliest start ≥ ready with no overlap against non-exclusive
        tasks already on ``pe`` (mutually exclusive tasks may overlap)."""
        busy = sorted(
            (self.times[other][0], self.times[other][1])
            for other in self.pe_tasks.get(pe, ())
            if not self.are_exclusive(task, other)
        )
        start = ready
        for interval_start, interval_finish in busy:
            if start + duration <= interval_start + EXACT_EPS:
                break
            start = max(start, interval_finish)
        return start

    # -- link booking ------------------------------------------------------
    def earliest_link_slot(
        self,
        src_task: str,
        src_pe: str,
        dst_pe: str,
        ready: float,
        duration: float,
        pending: Tuple[Tuple[float, float, str], ...] = (),
    ) -> float:
        """Earliest transfer start ≥ ready on the (src_pe, dst_pe) link.

        Transfers whose source tasks are mutually exclusive may overlap
        (they can never both happen); everything else serialises on the
        dedicated point-to-point link.  ``pending`` carries intervals
        tentatively claimed on this link by the candidate under
        evaluation but not yet committed — a task pulling several
        inputs over one link must serialise them against each other,
        not only against booked transfers.
        """
        if duration <= 0.0:
            return ready
        key = frozenset((src_pe, dst_pe))
        booking = self.link_bookings.get(key)
        intervals = booking.intervals if booking is not None else []
        if not intervals and not pending:
            return ready
        busy = sorted(
            (s, f)
            for s, f, other_src in [*intervals, *pending]
            if not self.are_exclusive(src_task, other_src)
        )
        start = ready
        for interval_start, interval_finish in busy:
            if start + duration <= interval_start + EXACT_EPS:
                break
            start = max(start, interval_finish)
        return start

    def book_link(
        self, src_task: str, dst_task: str, src_pe: str, dst_pe: str,
        start: float, duration: float, kbytes: float,
    ) -> None:
        """Commit a transfer to the link and the schedule record."""
        if duration <= 0.0:
            return
        key = frozenset((src_pe, dst_pe))
        self.link_bookings.setdefault(key, _LinkBooking([])).intervals.append(
            (start, start + duration, src_task)
        )
        self.schedule.book_comm(
            CommBooking(
                src_task=src_task,
                dst_task=dst_task,
                src_pe=src_pe,
                dst_pe=dst_pe,
                start=start,
                duration=duration,
                kbytes=kbytes,
            )
        )


def _arrival_time(
    state: _DlsState, ctg: ConditionalTaskGraph, platform: Platform, task: str, pe: str
) -> Tuple[float, List[Tuple[str, float, float, float]]]:
    """Data-ready time of ``task`` on ``pe`` plus the transfers it needs.

    Returns ``(ready, transfers)`` where each transfer is
    ``(src_task, start, duration, kbytes)`` — booked only if the
    placement is committed.
    """
    ready = 0.0
    transfers: List[Tuple[str, float, float, float]] = []
    pending: Dict[frozenset, List[Tuple[float, float, str]]] = {}
    for src, _dst, data in ctg.in_edges(task, include_pseudo=False):
        src_pe = state.schedule.pe_of(src)
        finish = state.times[src][1]
        duration = platform.comm_time(src_pe, pe, data.comm_kbytes)
        if duration > 0.0:
            claimed = pending.setdefault(frozenset((src_pe, pe)), [])
            start = state.earliest_link_slot(
                src, src_pe, pe, finish, duration, pending=tuple(claimed)
            )
            claimed.append((start, start + duration, src))
            transfers.append((src, start, duration, data.comm_kbytes))
            ready = max(ready, start + duration)
        else:
            ready = max(ready, finish)
    return ready, transfers


def reference_dls(
    ctg: ConditionalTaskGraph,
    platform: Platform,
    probabilities: Optional[BranchProbabilities] = None,
    probability_aware: bool = True,
    mutex_overlap: bool = True,
    fixed_mapping: Optional[Mapping[str, str]] = None,
    analysis: Optional[CtgAnalysis] = None,
    profiler: Optional[StageProfiler] = None,
) -> Schedule:
    """Map and order a CTG with the original rescan loop.

    Same parameters and result as
    :func:`repro.scheduling.dls.dls_schedule`; records the
    ``dls.levels`` stage and the ``dls.tasks_placed`` counter.
    """
    prof = as_profiler(profiler)
    if probabilities is None:
        probabilities = ctg.default_probabilities
    working = ctg.copy()
    if analysis is None:
        scenarios = enumerate_scenarios(working)
        exclusions = exclusion_table(working, scenarios)
    else:
        exclusions = analysis.exclusions
    schedule = Schedule(working, platform, exclusions)
    state = _DlsState(schedule, mutex_overlap)
    with prof.stage("dls.levels"):
        levels = static_levels(ctg, platform, probabilities, probability_aware)

    unscheduled = set(ctg.tasks())
    while unscheduled:
        ready = [
            task
            for task in sorted(unscheduled)
            if all(
                pred in schedule.placements
                for pred in working.predecessors(task, include_pseudo=False)
            )
        ]
        if not ready:
            raise SchedulingError("no ready task — graph is not a DAG?")
        best: Optional[Tuple[float, float, str, str]] = None
        best_transfers: List[Tuple[str, float, float, float]] = []
        best_start = 0.0
        for task in sorted(ready):
            avg = platform.average_wcet(task)
            for pe in platform.pe_names:
                if not platform.supports(task, pe):
                    continue
                if fixed_mapping is not None and fixed_mapping[task] != pe:
                    continue
                wcet = platform.wcet(task, pe)
                ready_at, transfers = _arrival_time(state, working, platform, task, pe)
                start = state.earliest_pe_slot(task, pe, ready_at, wcet)
                delta = avg - wcet
                dl = levels[task] - start + delta
                # Maximise DL; break ties on earlier start then names for
                # determinism.
                key = (dl, -start, task, pe)
                if best is None or key > (best[0], -best_start, best[2], best[3]):
                    best = (dl, start, task, pe)
                    best_start = start
                    best_transfers = transfers
        assert best is not None
        _dl, start, task, pe = best
        _commit(state, working, platform, task, pe, start, best_transfers)
        unscheduled.discard(task)
    prof.count("dls.tasks_placed", len(schedule.placements))
    return schedule


def _commit(
    state: _DlsState,
    working: ConditionalTaskGraph,
    platform: Platform,
    task: str,
    pe: str,
    start: float,
    transfers: List[Tuple[str, float, float, float]],
) -> None:
    """Place ``task`` on ``pe`` at ``start``: record placement, book its
    incoming transfers and serialise it against same-PE neighbours."""
    schedule = state.schedule
    placement = schedule.place(task, pe)
    finish = start + placement.wcet
    state.times[task] = (start, finish)
    for src, t_start, duration, kbytes in transfers:
        state.book_link(src, task, schedule.pe_of(src), pe, t_start, duration, kbytes)
    # Pseudo edges: order `task` against every non-exclusive task already
    # on the PE.  Redundant edges (already reachable) are skipped to keep
    # the path set small.
    graph = working.graph
    peers = state.pe_tasks.setdefault(pe, [])
    for other in peers:
        if other == task or state.are_exclusive(task, other):
            continue
        o_start, o_finish = state.times[other]
        if o_finish <= start + EXACT_EPS:
            if not nx.has_path(graph, other, task):
                working.add_pseudo_edge(other, task)
        elif finish <= o_start + EXACT_EPS:
            if not nx.has_path(graph, task, other):
                working.add_pseudo_edge(task, other)
        else:  # pragma: no cover - earliest_pe_slot prevents overlap
            raise SchedulingError(
                f"internal: overlap between {task!r} and {other!r} on {pe!r}"
            )
    peers.append(task)
