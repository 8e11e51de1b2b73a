"""Array-native batched scheduling core.

Struct-of-arrays CTG/schedule snapshots (:mod:`~repro.batch.soa`),
batched replay and energy kernels (:mod:`~repro.batch.kernels`)
and the one-kernel Monte-Carlo sweep (:mod:`~repro.batch.montecarlo`).
The object-layer replay elsewhere in the package (the executor's walk
of a :class:`~repro.scheduling.replay.ReplayPlan`) remains the
reference; everything here is validated against it.
"""

from .kernels import (
    instance_energies,
    instance_finish_times,
    scenario_energies,
    scenario_finish_times,
)
from .montecarlo import MonteCarloResult, monte_carlo
from .soa import BatchSchedule

__all__ = [
    "BatchSchedule",
    "MonteCarloResult",
    "instance_energies",
    "instance_finish_times",
    "monte_carlo",
    "scenario_energies",
    "scenario_finish_times",
]
