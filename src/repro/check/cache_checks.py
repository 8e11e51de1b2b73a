"""Cross-consistency of the path-analytics cache with a live schedule.

PR 1 keyed the stretching stage's path analytics by a *fingerprint* of
the scheduled graph (pseudo-edge set + task→PE mapping) and cached them
on ``CtgAnalysis.path_cache``.  The whole construction rests on one
assumption: **a structure retrieved under a schedule's fingerprint
describes that schedule** — same task universe, same real edges, and
every cached path actually walkable in the scheduled graph.  A bug that
mutates a schedule after caching (or a hand-built fingerprint
collision) would silently stretch against stale paths and could produce
an infeasible schedule that ``SCHED03x`` only catches downstream.

This checker verifies the assumption directly for the structure the
live schedule would hit (``CACHE001``) and that the cached scenario
tuple is the analysis's own (``CACHE002``).  A cache miss is not a
finding — an empty cache is simply cold.
"""

from __future__ import annotations

from typing import List, Optional

from ..ctg.minterms import CtgAnalysis
from ..scheduling.pathcache import PathStructure, schedule_fingerprint
from ..scheduling.schedule import Schedule
from .diagnostics import Diagnostic


def check_pathcache(
    schedule: Schedule, analysis: Optional[CtgAnalysis]
) -> List[Diagnostic]:
    """``CACHE001``/``CACHE002`` findings for the live schedule's entry."""
    if analysis is None or not analysis.path_cache:
        return []
    structure = analysis.path_cache.get(schedule_fingerprint(schedule))
    if not isinstance(structure, PathStructure):
        return []  # cold cache (or foreign payload) — nothing to verify
    findings: List[Diagnostic] = []

    ctg = schedule.ctg
    tasks = tuple(ctg.tasks())
    if structure.task_list != tasks:
        findings.append(
            Diagnostic(
                "CACHE001",
                "cached structure indexes "
                f"{len(structure.task_list)} task(s) but the schedule has "
                f"{len(tasks)} (task universe changed after caching)",
                subject="task_list",
            )
        )
    real_edges = tuple(
        (src, dst) for src, dst, _data in ctg.edges(include_pseudo=False)
    )
    if structure.edge_list != real_edges:
        findings.append(
            Diagnostic(
                "CACHE001",
                "cached structure's real-edge list disagrees with the "
                "scheduled graph (edges changed after caching)",
                subject="edge_list",
            )
        )
    if structure.task_list == tasks:
        # node indices resolve against the task list, so the cached
        # paths are only walkable while the task universe matches
        graph = ctg.graph
        gather = structure.node_gather.tolist()
        starts = structure.node_starts.tolist()
        for index, (start, end) in enumerate(zip(starts, [*starts[1:], len(gather)])):
            nodes = [tasks[t] for t in gather[start:end]]
            broken_hop = next(
                (
                    (src, dst)
                    for src, dst in zip(nodes, nodes[1:])
                    if not graph.has_edge(src, dst)
                ),
                None,
            )
            if broken_hop is not None:
                findings.append(
                    Diagnostic(
                        "CACHE001",
                        f"cached path #{index} uses edge "
                        f"{broken_hop[0]}→{broken_hop[1]}, which is not in the "
                        "scheduled graph",
                        subject=f"path[{index}]",
                    )
                )
                break  # one broken path proves staleness; don't spam
    if structure.scenarios != analysis.scenarios:
        findings.append(
            Diagnostic(
                "CACHE002",
                "cached structure was built against a different scenario "
                "set than the supplied analysis",
                subject="scenarios",
            )
        )
    return findings
