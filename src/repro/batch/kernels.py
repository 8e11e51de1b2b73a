"""Batched numpy kernels over a :class:`~repro.batch.soa.BatchSchedule`.

Two kernel families, each the array twin of the executor's replay:

* :func:`scenario_finish_times` / :func:`instance_finish_times` —
  the start-time rule of the schedule's
  :class:`~repro.scheduling.replay.ReplayPlan` (the CSR arrays are
  filled from it), vectorized over scenarios or instances instead of
  one decision vector at a time;
* :func:`scenario_energies` / :func:`instance_energies` — the energy
  bookkeeping of the executor (including the ``wcet_factors``
  baseline arm of ``run_faulted``: energy scales linearly with the
  realised work ratio).

The plan's dict walk in :class:`~repro.sim.executor.InstanceExecutor`
stays the reference: these kernels are validated against it, never the
other way round.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .soa import BatchSchedule


# ----------------------------------------------------------------------
# Instance replay
# ----------------------------------------------------------------------
def scenario_finish_times(batch: BatchSchedule) -> np.ndarray:
    """Makespan of every scenario at the captured speeds, ``(S,)``.

    This is the Monte-Carlo fast path: instances sharing a scenario
    share its finish time.
    """
    durations = batch.durations
    n_scen = batch.n_scenarios
    finish = np.zeros((n_scen, batch.n_tasks))
    in_ptr, dec_ptr = batch.in_ptr, batch.dec_ptr
    for t in range(batch.n_tasks):
        start = np.zeros(n_scen)
        for e in range(in_ptr[t], in_ptr[t + 1]):
            cand = finish[:, batch.in_src[e]] + batch.in_delay[e]
            start = np.where(batch.edge_scenario[e], np.maximum(start, cand), start)
        for k in range(dec_ptr[t], dec_ptr[t + 1]):
            b = batch.dec_src[k]
            start = np.where(batch.active[:, b], np.maximum(start, finish[:, b]), start)
        finish[:, t] = start + durations[t]
    # inactive tasks were propagated too but never read through a live
    # edge; mask them out of the makespan exactly like the executor's
    # ``max(finishes.values(), default=0.0)``
    return np.where(batch.active, finish, 0.0).max(axis=1)


def instance_finish_times(
    batch: BatchSchedule,
    scenario_indices: np.ndarray,
    wcet_factors: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Finish time of ``N`` instances, each pinned to its scenario.

    The per-instance twin of :func:`scenario_finish_times`: state is
    ``(N, T)`` instead of ``(N, S, T)``, with every edge masked by its
    applicability under each instance's own scenario.  This is the
    kernel the Monte-Carlo sweep uses when execution times vary per
    instance (``wcet_factors``), where scenarios no longer share
    finish times.
    """
    scn = np.asarray(scenario_indices, dtype=np.intp)
    durations = batch.durations
    if wcet_factors is None:
        dur = np.broadcast_to(durations, (scn.size, batch.n_tasks))
    else:
        dur = np.asarray(wcet_factors, dtype=float) * durations[np.newaxis, :]
    n = scn.size
    finish = np.zeros((n, batch.n_tasks))
    in_ptr, dec_ptr = batch.in_ptr, batch.dec_ptr
    for t in range(batch.n_tasks):
        start = np.zeros(n)
        for e in range(in_ptr[t], in_ptr[t + 1]):
            mask = batch.edge_scenario[e, scn]
            cand = finish[:, batch.in_src[e]] + batch.in_delay[e]
            start = np.where(mask, np.maximum(start, cand), start)
        for k in range(dec_ptr[t], dec_ptr[t + 1]):
            b = batch.dec_src[k]
            mask = batch.active[scn, b]
            start = np.where(mask, np.maximum(start, finish[:, b]), start)
        finish[:, t] = start + dur[:, t]
    masked = np.where(batch.active[scn], finish, 0.0)
    return masked.max(axis=1)


def scenario_energies(batch: BatchSchedule) -> np.ndarray:
    """Per-scenario energy at the captured speeds, ``(S,)``.

    Active-task DVFS energies plus the precomputed per-scenario
    communication energy — :meth:`Schedule.scenario_energy
    <repro.scheduling.schedule.Schedule.scenario_energy>` as one
    matvec (summation order differs, agreement is within float
    accumulation error).
    """
    return batch.active @ batch.task_energies() + batch.comm_energy


def instance_energies(
    batch: BatchSchedule,
    scenario_indices: np.ndarray,
    wcet_factors: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-instance energy, ``(N,)``.

    With ``wcet_factors``, each active task's energy scales by its
    realised work ratio — the ``run_faulted`` baseline-arm convention
    (``baseline_energy = scenario_energy + Σ nominal·(ratio − 1)``).
    """
    scn = np.asarray(scenario_indices, dtype=np.intp)
    energies = batch.task_energies()
    if wcet_factors is None:
        per_scenario = batch.active @ energies + batch.comm_energy
        return per_scenario[scn]
    factors = np.asarray(wcet_factors, dtype=float)
    task_part = (batch.active[scn] * energies[np.newaxis, :] * factors).sum(axis=1)
    return task_part + batch.comm_energy[scn]
