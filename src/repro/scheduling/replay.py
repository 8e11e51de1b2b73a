"""The start-time rule of one scheduled CTG, compiled once per schedule.

Every replay of a locked schedule — the executor's fault-free and
faulted walks and its trace spans, the static scenario-feasibility
check, the modal-speed replay and the struct-of-arrays capture of the
batch kernels — decides when an activated task may start by the same
rule:

* a real edge contributes ``finish(src) + comm delay`` when its source
  ran and, for a conditional edge, when the branch chose its outcome;
* a pseudo edge (same-PE serialisation) contributes ``finish(src)``
  whenever its source ran — a deactivated source leaves its slot free;
* an **or-node** additionally waits for every upstream branch fork that
  could decide one of its inputs — the paper's Example 1: τ₈ cannot
  start before τ₃ finishes even when a₁ deselects τ₄, because until τ₃
  resolves it is unknown whether τ₄'s data must be awaited.

:class:`ReplayPlan` holds the graph-side inputs of that rule (each
task's in-edges with their delays and guards, and its or-node
deciders) in the scheduled graph's topological order, so a replay never
walks networkx edge views.  Speeds are not part of the plan: callers
read each task's duration from the schedule at replay time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Set, Tuple

from ..ctg.graph import NodeKind
from .schedule import Schedule

#: one in-edge of a task: ``(src, delay, branch, label)`` — ``delay`` is
#: the cross-PE communication delay of a real edge and ``None`` for a
#: pseudo edge; ``branch``/``label`` name the guarding outcome of a
#: conditional edge and are ``None`` otherwise
Input = Tuple[str, Optional[float], Optional[str], Optional[str]]


@dataclass(frozen=True)
class ReplayPlan:
    """Start-time inputs of every task of one schedule (see module doc)."""

    #: tasks in the scheduled graph's topological order (real + pseudo)
    order: Tuple[str, ...]
    #: task → its in-edges, in the graph's in-edge iteration order
    inputs: Dict[str, Tuple[Input, ...]]
    #: or-node → the upstream branch forks that decide one of its inputs
    deciders: Dict[str, Tuple[str, ...]]

    @classmethod
    def of(cls, schedule: Schedule) -> "ReplayPlan":
        """Compile the plan of ``schedule`` under its current mapping.

        Edges touching an unplaced task get delay 0.0 instead of
        raising, so the plan of a corrupted schedule can still be built
        (the feasibility check replays such schedules).
        """
        ctg = schedule.ctg
        graph = ctg.graph
        delays = schedule.edge_delays()
        order = tuple(ctg.topological_order())
        inputs: Dict[str, Tuple[Input, ...]] = {}
        deciders: Dict[str, Tuple[str, ...]] = {}
        # branch forks guarding a real edge anywhere upstream of each
        # task — ConditionalTaskGraph.deciding_branches, by one pass in
        # topological order instead of one upward search per or-node
        guards: Dict[str, FrozenSet[str]] = {}
        for task in order:
            rows = []
            upstream: Set[str] = set()
            for src, attrs in graph.pred[task].items():
                data = attrs["data"]
                if data.pseudo:
                    rows.append((src, None, None, None))
                    continue
                upstream |= guards[src]
                delay = delays.get((src, task), 0.0)
                if data.condition is None:
                    rows.append((src, delay, None, None))
                else:
                    branch = data.condition.branch
                    upstream.add(branch)
                    rows.append((src, delay, branch, data.condition.label))
            inputs[task] = tuple(rows)
            guards[task] = frozenset(upstream)
            if ctg.kind(task) is NodeKind.OR:
                deciders[task] = tuple(sorted(upstream))
        return cls(order=order, inputs=inputs, deciders=deciders)

    def start(
        self,
        task: str,
        finishes: Mapping[str, float],
        decisions: Mapping[str, str],
        edge_factors: Optional[Mapping[Tuple[str, str], float]] = None,
    ) -> float:
        """Earliest start of ``task`` given its predecessors' finishes.

        A task counts as executed iff it is in ``finishes`` (callers add
        exactly the activated, placed tasks, in :attr:`order`).
        ``edge_factors`` scales the positive delays of real edges (link
        jitter of a faulted instance).
        """
        start = 0.0
        for src, delay, branch, label in self.inputs[task]:
            if src not in finishes:
                continue
            if delay is None:
                arrival = finishes[src]
            elif branch is not None and decisions.get(branch) != label:
                continue
            else:
                if edge_factors and delay > 0.0:
                    delay *= edge_factors.get((src, task), 1.0)
                arrival = finishes[src] + delay
            if arrival > start:
                start = arrival
        for branch in self.deciders.get(task, ()):
            if branch in finishes and finishes[branch] > start:
                start = finishes[branch]
        return start
