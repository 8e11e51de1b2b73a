"""Span/event tracing core of the observability layer.

A :class:`Tracer` records what the aggregate :class:`~repro.profiling.
StageProfiler` throws away: *when* things happened and how they nest.
Two record types cover the whole runtime:

* **spans** — named intervals with a category, a track (timeline), a
  parent (for nesting) and free-form attributes.  Scheduling stages
  record wall-clock spans through a ``StageProfiler(tracer=...)``; the
  instance executor records *simulated-time* spans (one per executed
  task at its chosen DVFS speed, one per cross-PE transfer) so a run's
  Perfetto timeline shows the schedule the MPSoC actually followed;
* **events** — named points in time (branch drift detected, re-schedule
  installed, fault injected, watchdog escalation, cache hit/miss).

Call sites that receive no tracer use the shared :data:`NULL_TRACER`,
whose methods are no-ops and whose ``enabled`` flag lets hot loops skip
attribute preparation entirely — the same null-object pattern as
:data:`repro.profiling.NULL_PROFILER`.

Clocks and tracks
-----------------
Wall-clock spans/events are timestamped on a per-tracer monotonic
origin (:meth:`Tracer.now`); simulated-time records carry explicit
timestamps in schedule time units, shifted by :attr:`Tracer.sim_offset`
(the trace runners set it to ``instance_index × period`` so successive
CTG instances line up end to end).  The *track* string names the
timeline a record belongs to: ``"runtime"`` (wall clock, the default),
``"pe:<name>"`` (one per processing element), ``"link:<a>-<b>"``
(cross-PE transfers), ``"engine"`` (one span per experiment cell).
Exporters map tracks to Chrome trace-event pids (see
:mod:`repro.obs.export`).

One tracer per run
------------------
A traced run records into exactly one tracer: the runners hand it to
the :class:`~repro.profiling.StageProfiler` they thread through every
layer (the instance executor reads it back as ``profiler.tracer``),
and the experiment engine adds its ``cell:<key>`` spans to the tracer
passed to ``run_spec``.  Tracers are never merged or serialised;
exporters (:mod:`repro.obs.export`) render them directly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional

#: Default track for wall-clock records (scheduling stages, controller
#: events); simulated-time records name their own PE/link tracks.
WALL_TRACK = "runtime"

#: Categories whose timestamps are simulated schedule time, not wall
#: clock.  Exporters scale the two differently.
SIM_CATEGORIES = ("sim.task", "sim.link", "sim.event")


@dataclass(frozen=True)
class Span:
    """One closed interval on a track.

    ``parent`` is the index (into the owning tracer's ``spans`` list)
    of the enclosing span on the same track, or ``-1`` at top level.
    """

    name: str
    category: str
    start: float
    end: float
    track: str = WALL_TRACK
    parent: int = -1
    attrs: Mapping[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in its clock's units (never negative)."""
        return max(0.0, self.end - self.start)


@dataclass(frozen=True)
class TraceEvent:
    """One named instant on a track."""

    name: str
    ts: float
    category: str = "event"
    track: str = WALL_TRACK
    attrs: Mapping[str, Any] = field(default_factory=dict)


class Tracer:
    """Low-overhead recorder of spans and events.

    Attributes
    ----------
    spans / events:
        The records, in close/emit order.
    enabled:
        ``True`` for real tracers; hot loops use it to skip attribute
        preparation for records that would be dropped anyway.
    sim_offset:
        Added to every simulated-time record's timestamps (see module
        docstring); the trace runners advance it per CTG instance.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.events: List[TraceEvent] = []
        self.sim_offset: float = 0.0
        self._origin = time.perf_counter()
        # one open-span stack per track, so nesting is per-timeline
        self._stacks: Dict[str, List[int]] = {}

    # -- clocks ----------------------------------------------------------
    def now(self) -> float:
        """Seconds since this tracer was created (monotonic)."""
        return time.perf_counter() - self._origin

    # -- recording -------------------------------------------------------
    @contextmanager
    def span(
        self, name: str, category: str = "stage", track: str = WALL_TRACK, **attrs: Any
    ) -> Iterator[None]:
        """Record a wall-clock span around a ``with`` block.

        Nesting follows the dynamic ``with`` structure per track.  The
        span's index is reserved when the block *opens* (parents appear
        before their children in ``spans``); a mid-flight snapshot sees
        an open span as zero-length at its start time.
        """
        start = self.now()
        stack = self._stacks.setdefault(track, [])
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        frozen = dict(attrs)
        self.spans.append(Span(name, category, start, start, track, parent, frozen))
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index] = Span(
                name, category, start, self.now(), track, parent, frozen
            )

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        category: str = "sim.task",
        track: str = WALL_TRACK,
        parent: int = -1,
        **attrs: Any,
    ) -> None:
        """Record a span with explicit timestamps (simulated time).

        Timestamps of :data:`SIM_CATEGORIES` records are shifted by
        :attr:`sim_offset`; other categories are taken verbatim.
        """
        if category in SIM_CATEGORIES:
            start += self.sim_offset
            end += self.sim_offset
        self.spans.append(Span(name, category, start, end, track, parent, dict(attrs)))

    def event(
        self,
        name: str,
        ts: Optional[float] = None,
        category: str = "event",
        track: str = WALL_TRACK,
        **attrs: Any,
    ) -> None:
        """Record a point event (wall clock unless ``ts`` is given).

        An explicit ``ts`` with a :data:`SIM_CATEGORIES` category is
        shifted by :attr:`sim_offset` like :meth:`add_span` timestamps.
        """
        if ts is None:
            ts = self.now()
        elif category in SIM_CATEGORIES:
            ts += self.sim_offset
        self.events.append(TraceEvent(name, ts, category, track, dict(attrs)))

    # -- views -----------------------------------------------------------
    def span_counts(self) -> Dict[str, int]:
        """Span occurrence counts keyed by ``category:name`` (sorted)."""
        counts: Dict[str, int] = {}
        for span in self.spans:
            key = f"{span.category}:{span.name}"
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    def event_counts(self) -> Dict[str, int]:
        """Event occurrence counts keyed by name (sorted)."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.name] = counts.get(event.name, 0) + 1
        return dict(sorted(counts.items()))

    def durations(self, name: str, category: str = "stage") -> List[float]:
        """Per-span durations of every span with this name/category."""
        return [
            s.duration for s in self.spans
            if s.name == name and s.category == category
        ]


class _NullTracer(Tracer):
    """Shared no-op sink for call sites given no tracer.

    ``enabled`` is ``False`` so hot loops can skip even argument
    construction; the record lists stay empty forever.
    """

    enabled = False

    @contextmanager
    def span(self, name, category="stage", track=WALL_TRACK, **attrs):  # noqa: ARG002
        yield

    def add_span(self, name, start, end, category="sim.task", track=WALL_TRACK, parent=-1, **attrs):  # noqa: ARG002
        pass

    def event(self, name, ts=None, category="event", track=WALL_TRACK, **attrs):  # noqa: ARG002
        pass


#: Shared do-nothing tracer; see :func:`as_tracer`.
NULL_TRACER = _NullTracer()


def as_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Normalise an optional tracer to a safe-to-call instance."""
    return NULL_TRACER if tracer is None else tracer
