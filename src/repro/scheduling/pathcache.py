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

* the enumerated path set (real + pseudo edges);
* the path×scenario membership matrix (which minterms each path can
  occur under) as a boolean numpy array;
* flattened gather/segment indices that turn per-path delay and
  stretchable-time sums into ``np.add.reduceat`` calls;
* per-task spanning-path index arrays;
* the conditional-hop layout needed to rebuild ``prob(p, τ)`` tables.

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

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, MutableMapping, Optional, Sequence, Tuple

import numpy as np

from ..ctg.conditions import ConditionProduct
from ..ctg.minterms import (
    BranchProbabilities,
    Scenario,
    activation_probability,
)
from ..ctg.paths import CTGPath, enumerate_paths
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
    docstring for the tier split.  All index arrays refer to the path
    enumeration order of :attr:`paths`.
    """

    paths: Tuple[CTGPath, ...]
    scenarios: Tuple[Scenario, ...]
    #: tasks in graph order; row/column space of the exec-time gathers
    task_list: Tuple[str, ...]
    #: real (non-pseudo) edges in canonical order; the per-call delay
    #: gather reads their communication delays (same-PE edges are 0)
    edge_list: Tuple[Tuple[str, str], ...]
    #: (P, S) bool — which scenarios each path can occur under
    membership: np.ndarray
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
    #: per path, the outcome-column index of each conditional hop
    path_cond_cols: Tuple[Tuple[int, ...], ...]
    #: node counts of every prob_after segment (np.repeat expansion)
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
        return len(self.paths)

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
        outcome_probs = [
            probabilities[branch][label] for branch, label in self.outcome_columns
        ]
        # Suffix products over each path's conditional hops: segment i of
        # a path holds prob(p, τ) for the nodes before/at hop i, i.e. the
        # product of the hop probabilities from i on (last segment: 1.0).
        values: List[float] = []
        for cols in self.path_cond_cols:
            suffix = [1.0]
            acc = 1.0
            for col in reversed(cols):
                acc = outcome_probs[col] * acc
                suffix.append(acc)
            suffix.reverse()
            values.extend(suffix)
        prob_after_flat = np.repeat(np.asarray(values, dtype=float), self.segment_counts)
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
        and of :attr:`membership`, in
        arbitrary-width Python ints so any scenario count fits.  Built
        once per structure and cached (the membership matrix is
        immutable).
        """
        cached = getattr(self, "_membership_masks", None)
        if cached is None:
            weights = [1 << s for s in range(self.membership.shape[1])]
            cached = tuple(
                sum(w for w, hit in zip(weights, row) if hit)
                for row in self.membership
            )
            self._membership_masks = cached
        return cached


def build_structure(
    schedule: Schedule,
    scenarios: Sequence[Scenario],
    profiler: Optional[StageProfiler] = None,
) -> PathStructure:
    """Derive the structural tier for one scheduled graph."""
    prof = as_profiler(profiler)
    with prof.stage("stretch.structure"):
        ctg = schedule.ctg
        paths = enumerate_paths(ctg, include_pseudo=True)
        prof.count("paths.enumerated", len(paths))
        scenarios = tuple(scenarios)
        task_list = tuple(ctg.tasks())
        task_index = {task: i for i, task in enumerate(task_list)}
        edge_list = tuple(
            (src, dst) for src, dst, _data in ctg.edges(include_pseudo=False)
        )
        edge_index = {edge: i for i, edge in enumerate(edge_list)}
        n_tasks = len(task_list)
        pad_slot = n_tasks + len(edge_list)

        scenario_assignments = [dict(s.product.assignment) for s in scenarios]
        mask_cache: Dict[ConditionProduct, np.ndarray] = {}
        membership = np.zeros((len(paths), len(scenarios)), dtype=bool)

        outcome_columns: List[Tuple[str, str]] = []
        outcome_index: Dict[Tuple[str, str], int] = {}

        # Per-path node/hop index rows (plain listcomps — the flat
        # arrays are assembled with numpy below).
        node_rows: List[List[int]] = []
        hop_rows: List[List[int]] = []
        path_cond_cols: List[Tuple[int, ...]] = []
        segment_counts: List[int] = []

        for j, path in enumerate(paths):
            row = mask_cache.get(path.condition)
            if row is None:
                items = list(path.condition.assignment.items())
                row = np.array(
                    [
                        all(a.get(branch) == label for branch, label in items)
                        for a in scenario_assignments
                    ],
                    dtype=bool,
                )
                mask_cache[path.condition] = row
            membership[j] = row

            nodes = path.nodes
            node_rows.append([task_index[node] for node in nodes])
            hop_rows.append(
                [
                    n_tasks + slot if (slot := edge_index.get(edge)) is not None
                    else pad_slot
                    for edge in zip(nodes, nodes[1:])
                ]
            )

            cols: List[int] = []
            previous = -1
            for i, outcome in enumerate(path.edge_conditions):
                if outcome is None:
                    continue
                key = (outcome.branch, outcome.label)
                col = outcome_index.get(key)
                if col is None:
                    col = len(outcome_columns)
                    outcome_index[key] = col
                    outcome_columns.append(key)
                cols.append(col)
                # prob_after segments: nodes up to hop 0 carry the full
                # suffix product, nodes between hops i-1 and i carry the
                # product from hop i on, nodes after the last hop 1.0.
                segment_counts.append(i - previous)
                previous = i
            segment_counts.append(len(nodes) - 1 - previous)
            path_cond_cols.append(tuple(cols))

        lengths = np.fromiter(
            (len(row) for row in node_rows), dtype=np.intp, count=len(node_rows)
        )
        node_starts = np.zeros(len(node_rows), dtype=np.intp)
        np.cumsum(lengths[:-1], out=node_starts[1:])
        node_gather = np.fromiter(
            (idx for row in node_rows for idx in row),
            dtype=np.intp,
            count=int(lengths.sum()),
        )
        # Delay layout per path: node slots first, then hop slots — the
        # same summation order as the scalar test oracle.
        delay_starts = np.zeros(len(node_rows), dtype=np.intp)
        np.cumsum(2 * lengths[:-1] - 1, out=delay_starts[1:])
        delay_gather = np.fromiter(
            (
                idx
                for nodes_row, hops_row in zip(node_rows, hop_rows)
                for idx in (*nodes_row, *hops_row)
            ),
            dtype=np.intp,
            count=int((2 * lengths - 1).sum()),
        )

        # Spanning tables via one stable sort of the flat node gather:
        # flat positions ascend with path index, so each task's slice
        # lists its spanning paths in enumeration order (matching the
        # scalar test oracle's per-task path lists).
        order = np.argsort(node_gather, kind="stable")
        path_of_flat = np.repeat(np.arange(len(node_rows), dtype=np.intp), lengths)
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
            paths=paths,
            scenarios=scenarios,
            task_list=task_list,
            edge_list=edge_list,
            membership=membership,
            node_gather=node_gather,
            node_starts=node_starts,
            delay_gather=delay_gather,
            delay_starts=delay_starts,
            spanning_idx=spanning_idx,
            spanning_flat=spanning_flat,
            path_cond_cols=tuple(path_cond_cols),
            segment_counts=np.asarray(segment_counts, dtype=np.intp),
            outcome_columns=tuple(outcome_columns),
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
