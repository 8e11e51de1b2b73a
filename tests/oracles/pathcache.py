"""Three-pass reference builder of the stretching path structure.

This is the original body of
:func:`repro.scheduling.pathcache.build_structure`, kept as a test
oracle: it lists every path with
:func:`~repro.ctg.paths.enumerate_paths` (one ``CTGPath`` and one
conjoined ``ConditionProduct`` per path), tests each path's condition
against every scenario assignment, and gathers the per-path index rows
through ``np.fromiter``.  It also keeps the per-path Python loop that
turned ``path_cond_cols`` into the ``prob(p, τ)`` table.

The production builder — one bitmask DFS that emits the flat arrays
directly — must reproduce every field exactly (values, dtypes, shapes,
dict key order), and its probability refresh must reproduce
``prob_after_flat`` bit for bit; :func:`assert_same_structure` checks
both (see ``tests/test_pathcache.py`` and
``benchmarks/test_reschedule_hotpath.py``).

:func:`reference_structure` is the entry point; it has the signature
of ``build_structure`` and returns a :class:`ReferenceStructure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ctg.conditions import ConditionProduct
from repro.ctg.minterms import BranchProbabilities, Scenario
from repro.ctg.paths import CTGPath, enumerate_paths
from repro.profiling import StageProfiler, as_profiler
from repro.scheduling.schedule import Schedule


@dataclass(frozen=True)
class ReferenceStructure:
    """The structural tier as the three-pass builder produced it."""

    paths: Tuple[CTGPath, ...]
    scenarios: Tuple[Scenario, ...]
    task_list: Tuple[str, ...]
    edge_list: Tuple[Tuple[str, str], ...]
    membership: np.ndarray
    node_gather: np.ndarray
    node_starts: np.ndarray
    delay_gather: np.ndarray
    delay_starts: np.ndarray
    spanning_idx: Dict[str, np.ndarray]
    spanning_flat: Dict[str, np.ndarray]
    path_cond_cols: Tuple[Tuple[int, ...], ...]
    segment_counts: np.ndarray
    outcome_columns: Tuple[Tuple[str, str], ...]

    @property
    def path_count(self) -> int:
        return len(self.paths)

    def prob_after_flat(self, probabilities: BranchProbabilities) -> np.ndarray:
        """The ``prob(p, τ)`` table, built with the per-path suffix loop."""
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
        return np.repeat(np.asarray(values, dtype=float), self.segment_counts)


def reference_structure(
    schedule: Schedule,
    scenarios: Sequence[Scenario],
    profiler: Optional[StageProfiler] = None,
) -> ReferenceStructure:
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

        structure = ReferenceStructure(
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


def _assert_same_array(name: str, got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype, f"{name}: dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}"
    assert np.array_equal(got, want), f"{name}: values differ"


def _assert_same_table(name: str, got: dict, want: dict) -> None:
    assert list(got) == list(want), f"{name}: key order differs"
    for key in want:
        _assert_same_array(f"{name}[{key!r}]", got[key], want[key])


def assert_same_structure(
    structure, reference: ReferenceStructure, probabilities=None
) -> None:
    """Field-by-field identity of a production ``PathStructure`` with
    the oracle's; with ``probabilities``, also bit-identity of the
    refreshed ``prob_after_flat``."""
    assert structure.path_count == reference.path_count
    assert structure.scenarios == reference.scenarios
    assert structure.task_list == reference.task_list
    assert structure.edge_list == reference.edge_list
    assert structure.outcome_columns == reference.outcome_columns
    for name in (
        "membership",
        "node_gather",
        "node_starts",
        "delay_gather",
        "delay_starts",
        "segment_counts",
    ):
        _assert_same_array(name, getattr(structure, name), getattr(reference, name))
    _assert_same_table("spanning_idx", structure.spanning_idx, reference.spanning_idx)
    _assert_same_table(
        "spanning_flat", structure.spanning_flat, reference.spanning_flat
    )
    # the flat conditional columns, split per path, are path_cond_cols
    assert structure.cond_counts.dtype == np.intp
    assert structure.cond_cols.dtype == np.intp
    cols = structure.cond_cols.tolist()
    counts = structure.cond_counts.tolist()
    assert sum(counts) == len(cols)
    ends = np.cumsum(counts, dtype=int).tolist()
    split = tuple(tuple(cols[end - count : end]) for end, count in zip(ends, counts))
    assert split == reference.path_cond_cols, "path_cond_cols differ"
    masks = structure.membership_masks()
    assert len(masks) == reference.path_count
    for p, mask in enumerate(masks):
        row = reference.membership[p]
        assert mask == sum(1 << s for s in np.flatnonzero(row).tolist()), (
            f"membership mask of path {p} differs"
        )
    if probabilities is not None:
        got = structure.tables(probabilities).prob_after_flat
        want = reference.prob_after_flat(probabilities)
        _assert_same_array("prob_after_flat", got, want)
        assert got.tobytes() == want.tobytes(), "prob_after_flat not bit-identical"
