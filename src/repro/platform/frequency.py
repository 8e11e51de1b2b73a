"""Frequency-model hierarchy: continuous vs. discrete DVFS.

The paper (§IV) assumes *continuous* voltage/frequency scaling — any
relative speed in ``[min_speed, 1.0]`` is realisable.  Real silicon
exposes a finite frequency table instead, and the discrete-selection
literature (Berten, Chang & Kuo, *Discrete Frequency Selection of
Frame-Based Stochastic Real-Time Tasks*) builds its whole analysis on
that table.  This module lifts the distinction into an explicit
hierarchy so every layer that touches speeds — ``clamp_speed`` on a PE,
``speed_for_time`` on the energy model, the discrete and preemptive
speed policies — routes through one object instead of re-implementing
the rounding rule:

* :class:`ContinuousDvfs` — the paper's model, bit-identical to the
  historical inline clamp;
* :class:`DiscreteDvfs` — a per-PE frequency table.  Assigned speeds
  are rounded *up* to the next level (never down, so deadlines stay
  safe).  The constructor is deliberately **lenient**: it stores the
  table exactly as given so that :func:`repro.check.platform_checks
  .check_platform` can diagnose defective tables (``PLAT005``–
  ``PLAT007``) instead of dying in a constructor, and so a top level
  below ``1.0`` is representable (that is what makes escalation
  quantisation loss a measurable quantity rather than a crash).

:data:`CONTINUOUS` is the shared continuous singleton.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..check.tolerances import EXACT_EPS


class FrequencyModel:
    """How a PE realises requested relative speeds.

    ``clamp`` is the full envelope rule (floor, ceiling, level
    rounding); ``quantize`` is the level rounding alone, for callers
    that manage the envelope themselves (e.g.
    :meth:`repro.platform.energy.DvfsModel.speed_for_time`).
    """

    #: discrete level set, ascending, or ``None`` for continuous scaling
    levels: Optional[Tuple[float, ...]] = None

    @property
    def is_discrete(self) -> bool:
        """Whether this model restricts speeds to a finite table."""
        return self.levels is not None

    @property
    def max_level(self) -> float:
        """The highest realisable relative speed (1.0 when continuous)."""
        return 1.0

    def clamp(self, speed: float, min_speed: float) -> float:
        """Clamp a requested speed into the ``[min_speed, 1.0]`` envelope."""
        raise NotImplementedError

    def quantize(self, speed: float) -> float:
        """Round a speed onto the realisable set (identity when continuous)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ContinuousDvfs(FrequencyModel):
    """The paper's continuous scaling: any speed in the envelope."""

    def clamp(self, speed: float, min_speed: float) -> float:
        """Historical inline clamp, kept bit-identical."""
        return min(1.0, max(min_speed, speed))

    def quantize(self, speed: float) -> float:
        """Continuous scaling realises every speed exactly."""
        return speed


@dataclass(frozen=True)
class DiscreteDvfs(FrequencyModel):
    """A finite per-PE frequency table.

    ``levels`` should be ascending, duplicate-free and inside the PE's
    ``[min_speed, 1.0]`` envelope — but the constructor does **not**
    enforce that (see the module docstring); call :meth:`validate` or
    run ``repro check`` to diagnose a defective table.
    """

    levels: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(float(s) for s in self.levels))

    @property
    def max_level(self) -> float:
        """Top table entry — escalation's ceiling (1.0 for an empty table)."""
        return max(self.levels, default=1.0)

    def clamp(self, speed: float, min_speed: float) -> float:
        """Envelope clamp plus round-up to the next table level."""
        return self.quantize(min(1.0, max(min_speed, speed)))

    def quantize(self, speed: float) -> float:
        """Round *up* to the next level (top level when already above all)."""
        if not self.levels:
            return speed
        for level in self.levels:
            if level >= speed - EXACT_EPS:
                return level
        return self.levels[-1]

    def validate(self, min_speed: float, max_speed: float = 1.0) -> List[str]:
        """Defects of this table, as human-readable strings.

        Mirrors the ``PLAT005``–``PLAT007`` diagnostics: empty table,
        unsorted/duplicate levels, level outside ``[min_speed,
        max_speed]``.  An empty list means the table is well-formed.
        """
        problems: List[str] = []
        if not self.levels:
            problems.append("frequency table is empty")
            return problems
        for previous, current in zip(self.levels, self.levels[1:]):
            if current <= previous:
                problems.append(
                    f"levels not strictly ascending at {previous!r} -> {current!r}"
                )
                break
        for level in self.levels:
            if not min_speed - EXACT_EPS <= level <= max_speed + EXACT_EPS:
                problems.append(
                    f"level {level!r} outside [{min_speed}, {max_speed}]"
                )
        return problems


#: Shared continuous singleton (the historical behaviour).
CONTINUOUS = ContinuousDvfs()
