"""Branch decision vectors and their resolution against a CTG.

The paper encodes each CTG invocation's branch decisions as a vector
⟨x₁ … xₙ⟩, one position per branching node.  We represent a decision
vector as a plain mapping ``branch task → outcome label``; a *trace*
is a sequence of such vectors, one per CTG instance.

A trace generator decides every branch up front (as the input data
would); at runtime only the *executed* branches are observable, which
:func:`executed_decisions` extracts by resolving the activation.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from ..ctg.conditions import ConditionProduct, Outcome
from ..ctg.graph import ConditionalTaskGraph
from ..ctg.minterms import Scenario, resolve_activation

DecisionVector = Mapping[str, str]
Trace = Sequence[DecisionVector]


def scenario_from_decisions(
    ctg: ConditionalTaskGraph, decisions: DecisionVector
) -> Scenario:
    """Resolve a full decision vector into the scenario it realises.

    The returned scenario's condition product contains only the
    branches that actually executed (an inner branch deactivated by an
    outer decision contributes nothing, matching the paper's minterms).
    Raises :class:`ValueError` naming an executed branch that
    ``decisions`` leaves undecided.
    """
    active, unresolved = resolve_activation(ctg, decisions)
    executed = [b for b in ctg.branch_nodes() if b in active]
    if unresolved is None:
        # an executed branch no activation depended on: it has declared
        # outcomes only, or other edges decide every node it guards
        unresolved = next((b for b in executed if b not in decisions), None)
    if unresolved is not None:
        raise ValueError(
            f"decision vector leaves branch {unresolved!r} undecided"
        )
    product = ConditionProduct(
        Outcome(branch, decisions[branch]) for branch in executed
    )
    return Scenario(product=product, active=active)


def executed_decisions(
    ctg: ConditionalTaskGraph, decisions: DecisionVector
) -> Dict[str, str]:
    """Restrict a decision vector to the branches that actually ran.

    This is what the runtime profiler gets to observe: a branch whose
    fork task never executed produced no decision.
    """
    scenario = scenario_from_decisions(ctg, decisions)
    return {b: decisions[b] for b in ctg.branch_nodes() if b in scenario.active}


def validate_trace(ctg: ConditionalTaskGraph, trace: Trace) -> None:
    """Check that every vector decides every branch with a known label."""
    branches = {b: set(ctg.outcomes_of(b)) for b in ctg.branch_nodes()}
    for i, vector in enumerate(trace):
        for branch, labels in branches.items():
            label = vector.get(branch)
            if label is None:
                raise ValueError(f"vector {i} does not decide branch {branch!r}")
            if label not in labels:
                raise ValueError(
                    f"vector {i} picks unknown outcome {label!r} for {branch!r}"
                )


def empirical_distribution(
    ctg: ConditionalTaskGraph, trace: Trace
) -> Dict[str, Dict[str, float]]:
    """Average branch probabilities over a whole trace.

    Counts only *executed* decisions — exactly what offline profiling
    of a real run would observe — and falls back to the raw vector when
    a branch never executes in the trace.
    """
    counts: Dict[str, Dict[str, int]] = {
        b: {label: 0 for label in ctg.outcomes_of(b)} for b in ctg.branch_nodes()
    }
    for vector in trace:
        for branch, label in executed_decisions(ctg, vector).items():
            counts[branch][label] += 1
    result: Dict[str, Dict[str, float]] = {}
    for branch, table in counts.items():
        total = sum(table.values())
        if total == 0:
            for vector in trace:
                table[vector[branch]] += 1
            total = sum(table.values())
        result[branch] = {label: c / total for label, c in table.items()}
    return result
