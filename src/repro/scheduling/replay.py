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

The plan also decides which tasks run (:meth:`ReplayPlan.activate`),
by the paper's and/or semantics over the real edges of the same rows:
a task with no real in-edge is active, an and-node when every real
in-edge is taken, an or-node when any is, and an edge is taken when its
source is active and its guard matches the decisions.
:func:`repro.ctg.minterms.resolve_activation`, which walks the networkx
graph, is the oracle it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Set, Tuple

from ..ctg.conditions import ConditionProduct, Outcome
from ..ctg.graph import NodeKind
from ..ctg.minterms import Scenario
from .schedule import Schedule

#: one in-edge of a task: ``(src, delay, branch, label)`` — ``delay`` is
#: the cross-PE communication delay of a real edge and ``None`` for a
#: pseudo edge; ``branch``/``label`` name the guarding outcome of a
#: conditional edge and are ``None`` otherwise
Input = Tuple[str, Optional[float], Optional[str], Optional[str]]

#: the activation rule of one task: ``(task, any_of, gates)`` — ``gates``
#: are its real in-edges as ``(src, branch, label)``; ``any_of`` is true
#: for an or-node with real in-edges (one taken edge activates it) and
#: false otherwise (every gate must be taken; none means a source task)
Gate = Tuple[str, bool, Tuple[Tuple[str, Optional[str], Optional[str]], ...]]


@dataclass(frozen=True)
class ReplayPlan:
    """Start-time inputs of every task of one schedule (see module doc)."""

    #: tasks in the scheduled graph's topological order (real + pseudo)
    order: Tuple[str, ...]
    #: task → its in-edges, in the graph's in-edge iteration order
    inputs: Dict[str, Tuple[Input, ...]]
    #: or-node → the upstream branch forks that decide one of its inputs
    deciders: Dict[str, Tuple[str, ...]]
    #: branch fork nodes, in ``ctg.branch_nodes()`` order
    branches: Tuple[str, ...]
    #: the activation rule of every task, in :attr:`order`
    gates: Tuple[Gate, ...]

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
        gates = []
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
            real = tuple(
                (src, branch, label)
                for src, delay, branch, label in rows
                if delay is not None
            )
            is_or = ctg.kind(task) is NodeKind.OR
            gates.append((task, is_or and bool(real), real))
            if is_or:
                deciders[task] = tuple(sorted(upstream))
        return cls(
            order=order,
            inputs=inputs,
            deciders=deciders,
            branches=tuple(ctg.branch_nodes()),
            gates=tuple(gates),
        )

    def activate(self, decisions: Mapping[str, str]) -> Scenario:
        """The scenario a full decision vector realises.

        Its product holds the executed branches only (a branch that
        never ran decides nothing).  Raises :class:`ValueError` naming
        an activated branch that ``decisions`` leaves undecided.  The
        walk counts an undecided guard as not taken; any activation
        that needed it sits behind an active, undecided branch, which
        the check after the walk rejects, so exactly the vectors
        :func:`~repro.sim.vectors.scenario_from_decisions` rejects raise.
        """
        active: Set[str] = set()
        for task, any_of, gates in self.gates:
            # an or-node runs iff some gate is taken; an and-node (and
            # a source task, which has no gates) iff none is untaken
            hit = False
            for src, branch, label in gates:
                taken = src in active and (
                    branch is None or decisions.get(branch) == label
                )
                if taken == any_of:
                    hit = True
                    break
            if hit == any_of:
                active.add(task)
        outcomes = []
        for branch in self.branches:
            if branch in active:
                label = decisions.get(branch)
                if label is None:
                    raise ValueError(
                        f"decision vector leaves branch {branch!r} undecided"
                    )
                outcomes.append(Outcome(branch, label))
        return Scenario(product=ConditionProduct(outcomes), active=frozenset(active))

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
