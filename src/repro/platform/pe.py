"""Processing elements of the MPSoC model.

The paper's architecture (§II) is a set of heterogeneous PEs; each task
has a per-PE worst-case execution time and energy at the nominal supply
voltage, and each PE can scale its speed/frequency continuously (unit
load capacitance, voltage tracking frequency).  A PE here is therefore
mostly an identity plus its DVFS envelope: the range of relative speeds
it supports, and optionally a discrete level set (an extension beyond
the paper's continuous model, used by the quantisation ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Optional, Tuple

from ..check.tolerances import EXACT_EPS
from .frequency import CONTINUOUS, DiscreteDvfs, FrequencyModel


@dataclass(frozen=True)
class ProcessingElement:
    """One processing element.

    Attributes
    ----------
    name:
        Unique identifier, e.g. ``"pe0"``.
    min_speed:
        Lowest relative speed (fraction of nominal frequency) DVFS may
        select.  ``1.0`` disables scaling on this PE entirely.
    speed_levels:
        Optional discrete relative speed levels, sorted ascending, all
        within ``[min_speed, 1.0]``.  ``None`` models the paper's
        continuous scaling; when present, assigned speeds are rounded
        *up* to the next level so deadlines stay safe.  This is the
        strictly validated shorthand for attaching a
        :class:`~repro.platform.frequency.DiscreteDvfs`.
    frequency:
        Optional explicit :class:`~repro.platform.frequency
        .FrequencyModel`, overriding the one derived from
        ``speed_levels``.  Unlike ``speed_levels`` this path is *not*
        validated at construction — ``repro check`` diagnoses
        defective tables (``PLAT005``–``PLAT007``) instead.
    """

    name: str
    min_speed: float = 0.25
    speed_levels: Optional[Tuple[float, ...]] = None
    frequency: Optional[FrequencyModel] = None

    def __post_init__(self) -> None:
        if not isinstance(self.min_speed, Real):
            raise TypeError(f"min_speed must be a number, got {self.min_speed!r}")
        if self.speed_levels is not None and not all(
            isinstance(s, Real) for s in self.speed_levels
        ):
            raise TypeError(f"speed_levels must be numbers, got {self.speed_levels!r}")
        if not 0.0 < self.min_speed <= 1.0:
            raise ValueError(f"min_speed must be in (0, 1], got {self.min_speed}")
        if self.speed_levels is not None:
            levels = tuple(self.speed_levels)
            if not levels:
                raise ValueError("speed_levels must be non-empty when given")
            if any(not self.min_speed <= s <= 1.0 for s in levels):
                raise ValueError("speed levels must lie in [min_speed, 1.0]")
            if list(levels) != sorted(levels):
                raise ValueError("speed levels must be sorted ascending")
            if abs(levels[-1] - 1.0) > EXACT_EPS:
                raise ValueError("the nominal speed 1.0 must be a level")
        if self.frequency is not None:
            model = self.frequency
        elif self.speed_levels is not None:
            model = DiscreteDvfs(tuple(self.speed_levels))
        else:
            model = CONTINUOUS
        object.__setattr__(self, "_frequency_model", model)

    @property
    def frequency_model(self) -> FrequencyModel:
        """The effective frequency model (explicit, derived, or continuous)."""
        return self._frequency_model  # type: ignore[attr-defined]

    def max_speed(self) -> float:
        """Highest realisable speed — the top discrete level, else 1.0."""
        return self.frequency_model.max_level

    def clamp_speed(self, speed: float) -> float:
        """Clamp a requested relative speed into this PE's envelope.

        Continuous PEs clamp into ``[min_speed, 1.0]``; discrete PEs
        additionally round *up* to the next available level (never down,
        so a task can only finish earlier than planned).  Routed through
        the PE's :class:`~repro.platform.frequency.FrequencyModel`.
        """
        return self.frequency_model.clamp(speed, self.min_speed)
