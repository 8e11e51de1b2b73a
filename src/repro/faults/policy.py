"""Degradation policies: what the adaptive loop does about faults.

A :class:`DegradationPolicy` configures the graceful-degradation
behaviour of the faulted simulation path: ``run_faulted`` hands it,
with a fault injector, to the one trace loop of
:mod:`repro.sim.runner`, which applies it per instance through
``InstanceExecutor.run_faulted`` (:mod:`repro.sim.executor`):

* **escalation** — a per-task watchdog fires when a task is still
  executing ``overrun_margin`` (relative) past its scheduled duration,
  and a backup detector fires when a task starts more than
  ``overrun_margin`` × deadline behind its worst-case start (freezes
  and link jitter delay starts without extending durations); either
  way, the task's remainder and every task that has not started yet
  escalate to max speed (speed 1.0).
  This is the paper-consistent fallback: the DVFS slow-down is exactly
  the slack the stretching heuristic inserted, so undoing it buys back
  that slack at the nominal-energy price.
* **emergency re-scheduling** — when an instance misses its deadline
  despite escalation, the policy may trigger an out-of-band
  re-schedule of the adaptive controller (ignoring drift thresholds
  and cooldowns).  Dropped or failed invocations are retried after
  ``retry_backoff`` instances, doubling each retry, at most
  ``max_retries`` times per incident.
* **fallback schedule** — if the emergency re-schedule itself raises a
  scheduling error, a plain full-speed DLS schedule (no voltage
  scaling) is installed so the loop keeps running instead of crashing.

``DegradationPolicy.none()`` disables everything — faults are injected
and logged, but nothing reacts; this is the baseline arm the
recovery-rate and energy-cost metrics are measured against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping


@dataclass(frozen=True)
class DegradationPolicy:
    """Declarative degradation behaviour (JSON-serialisable)."""

    #: escalate not-yet-started tasks to max speed on detected overrun
    escalate_on_overrun: bool = True
    #: detection slack: the watchdog fires this fraction past a task's
    #: scheduled duration (and the lateness backup this fraction of the
    #: deadline past its worst-case start)
    overrun_margin: float = 0.05
    #: trigger an out-of-band re-schedule after an unrecovered miss
    emergency_reschedule: bool = True
    #: instances to wait before retrying a dropped/failed invocation
    retry_backoff: int = 1
    #: maximum retries per dropped/failed invocation incident
    max_retries: int = 3

    @classmethod
    def default(cls) -> "DegradationPolicy":
        """The policy CI's chaos smoke matrix holds the line on."""
        return cls()

    @classmethod
    def none(cls) -> "DegradationPolicy":
        """Observe-only policy: log faults, react to nothing."""
        return cls(escalate_on_overrun=False, emergency_reschedule=False)

    @classmethod
    def escalate_only(cls) -> "DegradationPolicy":
        """Max-speed escalation without emergency re-scheduling."""
        return cls(escalate_on_overrun=True, emergency_reschedule=False)

    @property
    def is_none(self) -> bool:
        """Whether the policy reacts to nothing."""
        return not (self.escalate_on_overrun or self.emergency_reschedule)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "escalate_on_overrun": self.escalate_on_overrun,
            "overrun_margin": self.overrun_margin,
            "emergency_reschedule": self.emergency_reschedule,
            "retry_backoff": self.retry_backoff,
            "max_retries": self.max_retries,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DegradationPolicy":
        """Rebuild a policy from :meth:`to_dict` output."""
        return cls(
            escalate_on_overrun=bool(payload.get("escalate_on_overrun", True)),
            overrun_margin=float(payload.get("overrun_margin", 0.05)),
            emergency_reschedule=bool(payload.get("emergency_reschedule", True)),
            retry_backoff=int(payload.get("retry_backoff", 1)),
            max_retries=int(payload.get("max_retries", 3)),
        )


#: Named policies selectable from the CLI (``repro chaos --policy``).
POLICIES: Dict[str, DegradationPolicy] = {
    "default": DegradationPolicy.default(),
    "none": DegradationPolicy.none(),
    "escalate-only": DegradationPolicy.escalate_only(),
}
