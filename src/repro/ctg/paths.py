"""Path enumeration and path probabilities for scheduled CTGs.

The stretching heuristic (paper Figure 2) works on *paths*: complete
source→sink chains of the CTG after scheduling (i.e. including the
pseudo edges that serialise same-PE execution).  For each path ``p``
and task ``τ`` on it, the paper defines ``prob(p, τ)`` — the joint
probability of all conditional branches lying on the path *after* node
``τ`` — and tracks ``delay(p)`` / ``slk(p)`` as tasks are stretched.

:class:`CTGPath` is a lightweight immutable record of the node chain
and its condition structure; the mutable delay/slack bookkeeping lives
in the stretching module, which owns the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .conditions import ConditionProduct, Outcome, TRUE
from .graph import ConditionalTaskGraph

BranchProbabilities = Mapping[str, Mapping[str, float]]

#: Safety valve against pathological graphs: enumerating more paths
#: than this raises ``RuntimeError("path explosion: ...")``.  Read at
#: call time by :func:`enumerate_paths` and by the array-native builder
#: in :mod:`repro.scheduling.pathcache`.
MAX_PATHS = 2_000_000


@dataclass(frozen=True)
class CTGPath:
    """One source→sink path of a (scheduled) conditional task graph.

    Attributes
    ----------
    nodes:
        The task chain, source first.
    condition:
        Conjunction of the conditions of the path's edges (infeasible,
        contradictory paths are dropped during enumeration so this is
        always a consistent product).
    edge_conditions:
        For every hop ``i`` (edge ``nodes[i] → nodes[i+1]``), the
        guarding outcome or ``None``.
    """

    nodes: Tuple[str, ...]
    condition: ConditionProduct
    edge_conditions: Tuple[Optional[Outcome], ...]

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, task: str) -> bool:
        return task in self.nodes

    def index(self, task: str) -> int:
        """Position of ``task`` on the path (raises ValueError if absent)."""
        return self.nodes.index(task)

    def conditions_after(self, task: str) -> Tuple[Outcome, ...]:
        """Conditional-edge outcomes on hops at or after ``task``.

        Paper semantics (Example after Figure 1): for the path
        τ₁-τ₃-τ₅-τ₆ and task τ₅, only the branch on edge (τ₅, τ₆)
        counts — hops whose *source* lies before ``task`` are excluded.
        """
        start = self.index(task)
        return tuple(
            outcome
            for hop, outcome in enumerate(self.edge_conditions)
            if hop >= start and outcome is not None
        )

    def prob_after(self, task: str, probabilities: BranchProbabilities) -> float:
        """The paper's ``prob(p, τ)`` — joint probability of the branches
        after ``task`` on this path (1.0 when none remain)."""
        probability = 1.0
        for outcome in self.conditions_after(task):
            probability *= probabilities[outcome.branch][outcome.label]
        return probability

    def is_certain_after(self, task: str) -> bool:
        """Whether no conditional branch lies after ``task`` on the path."""
        return not self.conditions_after(task)


def enumerate_paths(
    ctg: ConditionalTaskGraph,
    include_pseudo: bool = True,
    max_paths: Optional[int] = None,
) -> Tuple[CTGPath, ...]:
    """All feasible source→sink paths of ``ctg`` (BFS/DFS over the DAG).

    Contradictory paths — chains whose edge conditions pick two
    different outcomes of the same branch, which can arise through
    or-node joins — are infeasible at runtime and are dropped.

    Parameters
    ----------
    include_pseudo:
        Include scheduler serialisation edges, so paths capture
        processor contention (this is what the stretching stage needs).
    max_paths:
        Safety valve against pathological graphs; ``None`` reads
        :data:`MAX_PATHS`.
    """
    if max_paths is None:
        max_paths = MAX_PATHS
    paths: List[CTGPath] = []
    # One adjacency pass up front: the DFS below visits every partial
    # path, and going through the graph view per visit dominates the
    # enumeration cost on dense scheduled graphs.
    adjacency: Dict[str, List[Tuple[str, Optional[Outcome]]]] = {}
    for node in ctg.tasks():
        adjacency[node] = [
            (dst, data.condition)
            for _src, dst, data in ctg.out_edges(node, include_pseudo=include_pseudo)
        ]
    stack: List[Tuple[Tuple[str, ...], ConditionProduct, Tuple[Optional[Outcome], ...]]] = []
    for source in ctg.tasks():
        if not ctg.predecessors(source, include_pseudo=include_pseudo):
            stack.append(((source,), TRUE, ()))
    while stack:
        nodes, condition, hops = stack.pop()
        successors = adjacency[nodes[-1]]
        if not successors:
            paths.append(CTGPath(nodes=nodes, condition=condition, edge_conditions=hops))
            if len(paths) > max_paths:
                raise RuntimeError(f"path explosion: more than {max_paths} paths")
            continue
        for dst, edge_condition in successors:
            if edge_condition is None:
                stack.append((nodes + (dst,), condition, hops + (None,)))
            else:
                conjoined = condition.conjoin_outcome(edge_condition)
                if conjoined is not None:
                    stack.append((nodes + (dst,), conjoined, hops + (edge_condition,)))
    return tuple(paths)


def paths_through(paths: Iterable[CTGPath], task: str) -> Tuple[CTGPath, ...]:
    """Filter ``paths`` to those spanning ``task``."""
    return tuple(p for p in paths if task in p)


def paths_of_minterm(
    paths: Iterable[CTGPath], minterm: ConditionProduct
) -> Tuple[CTGPath, ...]:
    """Paths compatible with an activation context (condition product).

    A path belongs to minterm ``m`` when its own condition does not
    contradict ``m`` — e.g. every path belongs to the always-true
    minterm, while a path guarded by a₂ does not belong to minterm a₁.
    """
    return tuple(p for p in paths if p.condition.is_consistent_with(minterm))


def path_delay(
    path: CTGPath,
    execution_time: Mapping[str, float],
    edge_delay: Optional[Mapping[Tuple[str, str], float]] = None,
) -> float:
    """Delay of a path: execution times of its nodes plus hop delays.

    ``edge_delay`` maps (src, dst) to the communication delay of that
    hop under the current mapping (0 for same-PE and pseudo edges).
    """
    total = sum(execution_time[node] for node in path.nodes)
    if edge_delay is not None:
        for src, dst in zip(path.nodes, path.nodes[1:]):
            total += edge_delay.get((src, dst), 0.0)
    return total
