"""Cached, vectorised path analytics for the re-scheduling hot path.

The adaptive controller re-invokes the online algorithm every time the
windowed branch statistics drift (paper §III.B).  The expensive part of
each invocation is not the list scheduling but the *path analytics* of
the stretching stage: enumerating every source→sink path of the
scheduled graph, intersecting each path's condition with the scenario
(minterm) set, and tabulating the paper's ``prob(p, τ)`` per task and
path.  In the common adaptive case the drifted probabilities still lead
DLS to the *same* mapping and ordering — the scheduled graph is
structurally identical and all of that work is a pure re-derivation.

This module splits the analytics into two cacheable tiers:

**Structural tier** (:class:`PathStructure`) — everything that depends
only on the scheduled graph's shape and mapping:

* the path×scenario membership matrix (which minterms each path can
  occur under) as a boolean numpy array, and the same rows as int
  bitmasks;
* flattened gather/segment indices that turn per-path delay and
  stretchable-time sums into ``np.add.reduceat`` calls;
* per-task spanning-path index arrays;
* the conditional hops (flat outcome columns plus per-path counts)
  needed to rebuild ``prob(p, τ)`` tables.

:func:`build_structure` derives it in one depth-first walk over the
scheduled graph (real + pseudo edges).  Each partial path carries two
ints — the bitset of branch outcomes it picked and the bitmask of
scenarios it can occur under (an AND of one precomputed bitmask per
outcome) — so contradictory hops are skipped and membership needs no
per-scenario test; numpy turns the recorded paths into the flat
arrays.  No :class:`~repro.ctg.paths.CTGPath` objects are built; they
exist only for :func:`~repro.ctg.paths.enumerate_paths` users.  The
output is identical, array for array, to the three-pass builder kept
as ``reference_structure`` in ``tests/oracles/pathcache.py``, and the
paths come in ``enumerate_paths`` order.

The tier is keyed by :func:`schedule_fingerprint` — the scheduled
graph's pseudo-edge set plus the task→PE mapping.  Any change to either
(a different DLS outcome) produces a new fingerprint and therefore a
cache miss; probability drift alone does not.

**Probability tier** (:class:`ProbabilityTables`) — everything that
additionally depends on the branch distributions: the scenario
probability vector, the flattened ``prob(p, τ)`` table and the per-task
activation probabilities.  Keyed by :func:`freeze_probabilities` inside
each :class:`PathStructure` (a small LRU — adaptive runs rarely revisit
an old distribution, but the equivalence/bench harnesses do).

Structures live in ``CtgAnalysis.path_cache`` (a plain dict, so the
``ctg`` package needs no import from ``scheduling``); the cache is
bounded, evicting the oldest structure beyond :data:`MAX_STRUCTURES`.

Per-stretching-call values that depend on the *current speeds* (path
delay, slack, stretchable time) are never cached — they are recomputed
as vector gathers over the structural indices, which is exactly what
makes the cached call cheap.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, MutableMapping, Optional, Sequence, Tuple

import numpy as np

from ..ctg import paths as ctg_paths
from ..ctg.conditions import Outcome
from ..ctg.minterms import (
    BranchProbabilities,
    Scenario,
    activation_probability,
)
from ..profiling import StageProfiler, as_profiler
from .schedule import Schedule

#: Upper bound on structures kept per ``CtgAnalysis`` (one per distinct
#: DLS outcome; adaptive runs typically oscillate between a handful).
MAX_STRUCTURES = 16

#: Upper bound on probability-tier tables kept per structure.
MAX_PROBABILITY_TABLES = 8

Fingerprint = Tuple[frozenset, Tuple[Tuple[str, str], ...]]
ProbabilityKey = Tuple[Tuple[str, Tuple[Tuple[str, float], ...]], ...]


def schedule_fingerprint(schedule: Schedule) -> Fingerprint:
    """Identity of a schedule's *structure* for path-analytics caching.

    Two schedules share a fingerprint exactly when they have the same
    pseudo-edge set (serialisation order) and the same task→PE mapping
    — then they have identical path sets, scenario masks, spanning
    tables and communication delays, and differ at most in speeds and
    in the probabilities they were stretched for.
    """
    pseudo = frozenset(
        (src, dst)
        for src, dst, data in schedule.ctg.edges(include_pseudo=True)
        if data.pseudo
    )
    mapping = tuple(sorted((task, p.pe) for task, p in schedule.placements.items()))
    return (pseudo, mapping)


def freeze_probabilities(probabilities: BranchProbabilities) -> ProbabilityKey:
    """Hashable, order-independent snapshot of a branch distribution."""
    return tuple(
        (branch, tuple(sorted(probabilities[branch].items())))
        for branch in sorted(probabilities)
    )


@dataclass(frozen=True)
class ProbabilityTables:
    """Probability-dependent tables of one structure (one snapshot).

    Attributes
    ----------
    scenario_probs:
        Probability of each scenario (aligned with the structure's
        scenario tuple).
    prob_after_flat:
        The paper's ``prob(p, τ)`` for every (path, node-on-path) pair,
        flattened in path order; indexed through
        ``PathStructure.spanning_flat``.
    act_prob:
        Activation probability ``prob(τ)`` per task.
    """

    scenario_probs: np.ndarray
    prob_after_flat: np.ndarray
    act_prob: Dict[str, float]


@dataclass
class PathStructure:
    """Probability-independent path analytics of one scheduled graph.

    Built once per :func:`schedule_fingerprint`; see the module
    docstring for the tier split.  All per-path arrays follow the path
    enumeration order of :func:`~repro.ctg.paths.enumerate_paths`.
    """

    scenarios: Tuple[Scenario, ...]
    #: tasks in graph order; row/column space of the exec-time gathers
    task_list: Tuple[str, ...]
    #: real (non-pseudo) edges in canonical order; the per-call delay
    #: gather reads their communication delays (same-PE edges are 0)
    edge_list: Tuple[Tuple[str, str], ...]
    #: (P, S) bool — which scenarios each path can occur under
    membership: np.ndarray
    #: the same membership, one int bitmask per path (bit s = scenario s)
    path_masks: Tuple[int, ...] = field(repr=False)
    #: task index of every node, all paths concatenated (Σ|p| entries)
    node_gather: np.ndarray
    #: segment starts into :attr:`node_gather`, one per path
    node_starts: np.ndarray
    #: indices into the combined ``[exec | edge | 0.0]`` value vector
    #: reproducing the legacy delay sum (nodes first, then hops)
    delay_gather: np.ndarray
    delay_starts: np.ndarray
    #: task → indices of the paths spanning it (ascending)
    spanning_idx: Dict[str, np.ndarray]
    #: task → positions into ``prob_after_flat`` aligned with
    #: :attr:`spanning_idx`
    spanning_flat: Dict[str, np.ndarray]
    #: outcome-column index of every conditional hop, all paths
    #: concatenated in hop order
    cond_cols: np.ndarray
    #: conditional hops per path (segment lengths of :attr:`cond_cols`)
    cond_counts: np.ndarray
    #: node counts of every prob_after segment (np.repeat expansion);
    #: path p owns ``cond_counts[p] + 1`` consecutive segments
    segment_counts: np.ndarray
    #: outcome column order: (branch, label) per column
    outcome_columns: Tuple[Tuple[str, str], ...]
    #: probability-tier LRU, keyed by :func:`freeze_probabilities`
    _tables: "OrderedDict[ProbabilityKey, ProbabilityTables]" = field(
        default_factory=OrderedDict, repr=False
    )

    @property
    def path_count(self) -> int:
        """Number of enumerated paths."""
        return len(self.node_starts)

    def tables(
        self,
        probabilities: BranchProbabilities,
        profiler: Optional[StageProfiler] = None,
    ) -> ProbabilityTables:
        """Probability tables for one distribution snapshot (LRU-cached)."""
        prof = as_profiler(profiler)
        key = freeze_probabilities(probabilities)
        cached = self._tables.get(key)
        if cached is not None:
            self._tables.move_to_end(key)
            prof.count("prob_cache.hit")
            return cached
        prof.count("prob_cache.miss")
        with prof.stage("stretch.refresh"):
            tables = self._build_tables(probabilities)
        self._tables[key] = tables
        while len(self._tables) > MAX_PROBABILITY_TABLES:
            self._tables.popitem(last=False)
        return tables

    def _build_tables(self, probabilities: BranchProbabilities) -> ProbabilityTables:
        scenario_probs = np.array(
            [s.probability(probabilities) for s in self.scenarios], dtype=float
        )
        outcome_probs = np.array(
            [probabilities[branch][label] for branch, label in self.outcome_columns],
            dtype=float,
        )
        # Suffix products over each path's conditional hops: segment i of
        # a path holds prob(p, τ) for the nodes before/at hop i, i.e. the
        # product of the hop probabilities from i on (last segment: 1.0).
        # Conditional hop q of path p owns segment q + p, whose value is
        # the hop's probability times the next segment's.  Filling the
        # segments one depth (hops from the path's end) at a time repeats,
        # per path, the multiplications of a right-to-left scalar loop in
        # the same order, so the table is bit-identical to that loop's.
        counts = self.cond_counts
        position = np.arange(self.cond_cols.size, dtype=np.intp)
        path_of = np.repeat(np.arange(counts.size, dtype=np.intp), counts)
        depth = np.cumsum(counts)[path_of] - position
        segment = position + path_of
        hop_probs = outcome_probs[self.cond_cols]
        values = np.ones(position.size + counts.size, dtype=float)
        for d in range(1, int(counts.max(initial=0)) + 1):
            level = np.flatnonzero(depth == d)
            at = segment[level]
            values[at] = hop_probs[level] * values[at + 1]
        prob_after_flat = np.repeat(values, self.segment_counts)
        act_prob = activation_probability(None, probabilities, scenarios=self.scenarios)
        return ProbabilityTables(
            scenario_probs=scenario_probs,
            prob_after_flat=prob_after_flat,
            act_prob=act_prob,
        )

    # ------------------------------------------------------------------
    # Per-call (speed-dependent) vectors
    # ------------------------------------------------------------------
    def execution_vector(self, schedule: Schedule) -> np.ndarray:
        """Current per-task execution times, aligned with ``task_list``."""
        placements = schedule.placements
        return np.array(
            [placements[task].duration for task in self.task_list], dtype=float
        )

    def delay_vector(self, schedule: Schedule, exec_values: np.ndarray) -> np.ndarray:
        """Per-path delay (execution + cross-PE communication)."""
        delays = schedule.edge_delays()
        edge_values = np.empty(len(self.edge_list) + 1, dtype=float)
        for i, edge in enumerate(self.edge_list):
            edge_values[i] = delays.get(edge, 0.0)
        edge_values[-1] = 0.0  # pad slot for pseudo hops
        combined = np.concatenate([exec_values, edge_values])
        return np.add.reduceat(combined[self.delay_gather], self.delay_starts)

    def stretchable_vector(self, exec_values: np.ndarray) -> np.ndarray:
        """Per-path total execution time (the stretchable pool)."""
        return np.add.reduceat(exec_values[self.node_gather], self.node_starts)

    def membership_masks(self) -> Tuple[int, ...]:
        """Per-path scenario membership packed into int bitmasks.

        Bit ``s`` of mask ``p`` is set iff path ``p`` can occur under
        scenario ``s`` — the flat twin of the scalar test oracle's
        ``_PathState.scenario_mask`` (``tests/oracles/stretching.py``)
        and of :attr:`membership`, in arbitrary-width Python ints so any
        scenario count fits.  These are the masks the builder's walk
        carried, so nothing is converted here.
        """
        return self.path_masks


def build_structure(
    schedule: Schedule,
    scenarios: Sequence[Scenario],
    profiler: Optional[StageProfiler] = None,
) -> PathStructure:
    """Derive the structural tier for one scheduled graph.

    One depth-first walk over the scheduled graph (real + pseudo edges)
    records each path as a run of edge ids; numpy then decodes the runs
    into the flat index arrays.  Each partial path carries two ints:
    ``chosen``, a bitset of the branch outcomes its conditional hops
    picked, and ``mask``, the scenarios it can occur under (the AND of
    one precomputed scenario bitmask per outcome).  A hop whose outcome
    conflicts with ``chosen`` would make the path contradictory and is
    not taken; a consistent path whose ``mask`` is empty is kept with an
    all-False membership row.  Sources and successors are visited in
    reverse order, which reproduces the stack order of
    :func:`~repro.ctg.paths.enumerate_paths` — path ``j`` here is path
    ``j`` there.
    """
    prof = as_profiler(profiler)
    with prof.stage("stretch.structure"):
        ctg = schedule.ctg
        scenarios = tuple(scenarios)
        task_list = tuple(ctg.tasks())
        task_index = {task: i for i, task in enumerate(task_list)}
        n_tasks = len(task_list)
        edges = list(ctg.edges(include_pseudo=True))
        edge_list = tuple((src, dst) for src, dst, data in edges if not data.pseudo)

        # Edge id e < n_edges is the e-th edge; id n_edges + t starts a
        # path at task t.  Per id: the task it enters, its hop slot into
        # the combined [exec | edge | pad] delay vector, and its outcome
        # id (-1 when unconditional).
        n_edges = len(edges)
        edge_dst = np.empty(n_edges + n_tasks, dtype=np.intp)
        edge_dst[n_edges:] = np.arange(n_tasks)
        edge_slot = np.empty(n_edges, dtype=np.intp)
        edge_outcome = np.empty(n_edges, dtype=np.intp)
        # Out-adjacency as (edge id, successors of its dst, outcome id),
        # reversed so the walk takes successors the way the
        # enumerate_paths stack pops them.
        adjacency: List[List[Tuple[int, list, int]]] = [[] for _ in task_list]
        has_predecessor = [False] * n_tasks
        outcomes: Dict[Outcome, int] = {}
        real = 0
        for e, (src, dst, data) in enumerate(edges):
            if data.pseudo:
                edge_slot[e] = n_tasks + len(edge_list)  # 0.0 pad slot
            else:
                edge_slot[e] = n_tasks + real
                real += 1
            condition = data.condition
            outcome = -1 if condition is None else outcomes.setdefault(
                condition, len(outcomes)
            )
            edge_outcome[e] = outcome
            d = task_index[dst]
            edge_dst[e] = d
            adjacency[task_index[src]].append((e, adjacency[d], outcome))
            has_predecessor[d] = True
        for successors in adjacency:
            successors.reverse()

        # Per outcome: the scenarios it holds in, and the bits of the
        # other outcomes of its branch (picking one after it is a
        # contradiction).
        assignments = [s.product.assignment for s in scenarios]
        scenario_mask = [
            sum(1 << s for s, a in enumerate(assignments) if a.get(o.branch) == o.label)
            for o in outcomes
        ]
        conflict = [
            sum(1 << j for other, j in outcomes.items() if o.conflicts_with(other))
            for o in outcomes
        ]
        max_paths = ctg_paths.MAX_PATHS

        walk: List[int] = []  # edge ids of the current partial path
        flat: List[int] = []  # edge ids of every path, concatenated
        lengths: List[int] = []
        masks: List[int] = []

        def emit(mask: int) -> None:
            flat.extend(walk)
            lengths.append(len(walk))
            masks.append(mask)
            if len(masks) > max_paths:
                raise RuntimeError(f"path explosion: more than {max_paths} paths")

        def visit(successors: list, chosen: int, mask: int) -> None:
            for edge, onward, outcome in successors:
                if outcome < 0:
                    walk.append(edge)
                    if onward:
                        visit(onward, chosen, mask)
                    else:
                        emit(mask)
                elif not chosen & conflict[outcome]:
                    walk.append(edge)
                    narrowed = mask & scenario_mask[outcome]
                    if onward:
                        visit(onward, chosen | 1 << outcome, narrowed)
                    else:
                        emit(narrowed)
                else:
                    continue
                walk.pop()

        every_scenario = (1 << len(scenarios)) - 1
        # One frame per hop: a path can be as long as the task count.
        recursion_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(recursion_limit, n_tasks + 100))
        try:
            for source in reversed(range(n_tasks)):
                if not has_predecessor[source]:
                    walk.append(n_edges + source)
                    if adjacency[source]:
                        visit(adjacency[source], 0, every_scenario)
                    else:
                        emit(every_scenario)
                    walk.pop()
        finally:
            sys.setrecursionlimit(recursion_limit)
        n_paths = len(masks)
        prof.count("paths.enumerated", n_paths)

        ids = np.asarray(flat, dtype=np.intp)
        lengths_arr = np.asarray(lengths, dtype=np.intp)
        node_starts = np.zeros(n_paths, dtype=np.intp)
        np.cumsum(lengths_arr[:-1], out=node_starts[1:])
        node_gather = edge_dst[ids]
        path_of_flat = np.repeat(np.arange(n_paths, dtype=np.intp), lengths_arr)

        # Every id but a path's first is a hop.
        is_hop = np.ones(ids.size, dtype=bool)
        is_hop[node_starts] = False
        hop_ids = ids[is_hop]
        hop_path = path_of_flat[is_hop]
        hop_starts = node_starts - np.arange(n_paths, dtype=np.intp)
        hop_index = np.arange(hop_ids.size, dtype=np.intp) - hop_starts[hop_path]

        # Delay layout per path: node slots first, then hop slots — the
        # same summation order as the scalar test oracle.
        delay_starts = np.zeros(n_paths, dtype=np.intp)
        np.cumsum(2 * lengths_arr[:-1] - 1, out=delay_starts[1:])
        delay_gather = np.empty(ids.size + hop_ids.size, dtype=np.intp)
        delay_gather[
            np.arange(ids.size, dtype=np.intp) + (delay_starts - node_starts)[path_of_flat]
        ] = node_gather
        delay_gather[
            (delay_starts + lengths_arr)[hop_path] + hop_index
        ] = edge_slot[hop_ids]

        # Conditional hops: outcome columns numbered by first appearance
        # in path order, and the prob_after segments between them —
        # nodes up to the first conditional hop carry the full suffix
        # product, nodes after the last one 1.0.
        hop_outcome = edge_outcome[hop_ids]
        is_cond = hop_outcome >= 0
        cond_ids = hop_outcome[is_cond]
        cond_path = hop_path[is_cond]
        cond_hop = hop_index[is_cond]
        ids_seen, first_seen = np.unique(cond_ids, return_index=True)
        column_ids = ids_seen[np.argsort(first_seen)]
        column_of = np.zeros(len(outcomes), dtype=np.intp)
        column_of[column_ids] = np.arange(column_ids.size, dtype=np.intp)
        by_id = list(outcomes)
        outcome_columns = tuple(
            (by_id[o].branch, by_id[o].label) for o in column_ids.tolist()
        )
        cond_counts = np.bincount(cond_path, minlength=n_paths).astype(np.intp)
        cond_ends = np.cumsum(cond_counts)
        has_cond = cond_counts > 0
        previous = np.empty_like(cond_hop)
        previous[1:] = cond_hop[:-1]
        previous[(cond_ends - cond_counts)[has_cond]] = -1
        last = np.full(n_paths, -1, dtype=np.intp)
        last[has_cond] = cond_hop[cond_ends[has_cond] - 1]
        segment_counts = np.empty(cond_ids.size + n_paths, dtype=np.intp)
        segment_counts[np.arange(cond_ids.size) + cond_path] = cond_hop - previous
        segment_counts[cond_ends + np.arange(n_paths)] = lengths_arr - 1 - last

        # Membership rows unpacked from the scenario bitmasks.
        width = (len(scenarios) + 7) // 8
        packed = np.frombuffer(
            b"".join(mask.to_bytes(width, "little") for mask in masks), dtype=np.uint8
        ).reshape(n_paths, width)
        membership = np.unpackbits(
            packed, axis=1, count=len(scenarios), bitorder="little"
        ).astype(bool)

        # Spanning tables via one stable sort of the flat node gather:
        # flat positions ascend with path index, so each task's slice
        # lists its spanning paths in enumeration order (matching the
        # scalar test oracle's per-task path lists).
        order = np.argsort(node_gather, kind="stable")
        boundaries = np.searchsorted(
            node_gather[order], np.arange(n_tasks + 1, dtype=np.intp)
        )
        spanning_idx: Dict[str, np.ndarray] = {}
        spanning_flat: Dict[str, np.ndarray] = {}
        for t, task in enumerate(task_list):
            segment = order[boundaries[t] : boundaries[t + 1]]
            spanning_idx[task] = path_of_flat[segment]
            spanning_flat[task] = segment

        structure = PathStructure(
            scenarios=scenarios,
            task_list=task_list,
            edge_list=edge_list,
            membership=membership,
            path_masks=tuple(masks),
            node_gather=node_gather,
            node_starts=node_starts,
            delay_gather=delay_gather,
            delay_starts=delay_starts,
            spanning_idx=spanning_idx,
            spanning_flat=spanning_flat,
            cond_cols=column_of[cond_ids],
            cond_counts=cond_counts,
            segment_counts=segment_counts,
            outcome_columns=outcome_columns,
        )
    return structure


def structure_for(
    schedule: Schedule,
    scenarios: Sequence[Scenario],
    cache: Optional[MutableMapping[Hashable, PathStructure]] = None,
    profiler: Optional[StageProfiler] = None,
) -> PathStructure:
    """Fetch (or build) the structure for a schedule.

    ``cache`` is typically ``CtgAnalysis.path_cache``; pass ``None`` to
    force an uncached build (the structure is still fully usable, it is
    simply not retained).
    """
    prof = as_profiler(profiler)
    if cache is None:
        prof.count("path_cache.miss")
        return build_structure(schedule, scenarios, profiler)
    fingerprint = schedule_fingerprint(schedule)
    structure = cache.get(fingerprint)
    if structure is not None:
        prof.count("path_cache.hit")
        return structure
    prof.count("path_cache.miss")
    structure = build_structure(schedule, scenarios, profiler)
    cache[fingerprint] = structure
    while len(cache) > MAX_STRUCTURES:
        del cache[next(iter(cache))]
    return structure
