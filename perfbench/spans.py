"""Layer-boundary spans, recorded from outside the program.

The traced run replaces a fixed set of ``repro`` entry points with thin
timing wrappers for the duration of a ``with instrument(tracer):``
block and restores them afterwards; nothing under ``src/`` knows it is
being traced.  Each wrapper records one :class:`Span` (name, layer,
start, end, parent span, workload operation id) in memory.  The
untraced run installs nothing, so its timings carry no tracing cost.

A patch point is a module attribute (or a class attribute) that the
program resolves at call time: ``repro.scheduling.online`` calls
``dls_schedule`` through its module global, so replacing that global
is enough to see every DLS call made by ``schedule_online``.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One timed call across a layer boundary."""

    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    op: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanTracer:
    """In-memory span recorder with a call stack for parent links.

    ``op`` is the id of the workload operation now running; every span
    closed while it is set carries it.  ``results`` keeps, per span
    name and in span order, a small summary the layer metrics need
    (paths built, bytes written, cells computed), taken from the
    wrapped call's return value.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = ""
        self._opened = 0
        self._stack: List[int] = []
        self.results: Dict[str, List[object]] = {}

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """Record a span around a ``with`` block (used for benchmark ops)."""
        sid = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, layer, start)

    def _open(self) -> int:
        sid = self._opened
        self._opened += 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, layer: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, layer, start, end, parent, self.op))

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        summarise: Optional[Callable[[object], object]] = None,
    ) -> Callable:
        """A wrapper timing every call of ``fn`` as span ``name``."""
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, name, layer, start)
            if summarise is not None:
                tracer.results.setdefault(name, []).append(summarise(result))
            return result

        return traced


def _path_count(structure) -> float:
    return float(structure.path_count)


def _stat_size(path) -> float:
    """Bytes of the entry ``CellCache.put`` just wrote (directory backend)."""
    return float(path.stat().st_size)


def _sweep_summary(result) -> Tuple[float, int]:
    """(bytes of the arrays a Monte-Carlo sweep materialised, instances).

    The bytes are computed from array sizes, not measured traffic.
    """
    arrays = (
        result.label_samples,
        result.scenario_indices,
        result.finish_times,
        result.energies,
        result.deadline_met,
        result.wcet_factors,
    )
    return float(sum(a.nbytes for a in arrays if a is not None)), result.n


def _engine_summary(report) -> Tuple[int, int, float, int]:
    """(cells, computed cells, their compute seconds, jobs) of a run."""
    computed = [cell for cell in report.cells if not cell.cached]
    return (
        len(report.cells),
        len(computed),
        sum(cell.seconds for cell in computed),
        report.stats.jobs,
    )


#: (module, class or None, attribute, span name, layer, result summary).
#: A function imported by name into several modules is patched at every
#: import site the workloads reach.
PATCH_POINTS: Tuple[Tuple[str, Optional[str], str, str, str, Optional[Callable]], ...] = (
    ("repro.ctg.minterms", "CtgAnalysis", "of", "ctg.analysis", "ctg", None),
    ("repro.scheduling.online", None, "dls_schedule", "scheduling.dls", "scheduling.dls", None),
    ("repro.adaptive.controller", None, "dls_schedule", "scheduling.dls", "scheduling.dls", None),
    ("repro.scheduling.policies", None, "stretch_schedule", "scheduling.stretching", "scheduling.stretching", None),
    ("repro.scheduling.stretching", None, "structure_for", "scheduling.stretching.lookup", "scheduling.stretching", None),
    ("repro.scheduling.pathcache", None, "build_structure", "scheduling.stretching.structure", "scheduling.stretching", _path_count),
    ("repro.scheduling.online", None, "schedule_online", "scheduling.online", "scheduling.online", None),
    ("repro.adaptive.controller", None, "schedule_online", "scheduling.online", "scheduling.online", None),
    ("repro.adaptive.controller", "AdaptiveController", "observe", "adaptive.observe", "adaptive", None),
    ("repro.sim.executor", "InstanceExecutor", "__init__", "sim.executor.build", "sim.executor", None),
    ("repro.sim.executor", "InstanceExecutor", "run", "sim.executor.run", "sim.executor", None),
    ("repro.batch.soa", "BatchSchedule", "from_ctg", "batch.soa_build", "batch", None),
    ("repro.batch.montecarlo", None, "monte_carlo", "batch.sweep", "batch", _sweep_summary),
    ("repro.batch", None, "monte_carlo", "batch.sweep", "batch", _sweep_summary),
    ("repro.experiments.engine", None, "run_spec", "experiments.engine.run_spec", "experiments.engine", _engine_summary),
    ("repro.experiments", None, "run_spec", "experiments.engine.run_spec", "experiments.engine", _engine_summary),
    ("repro.experiments.cache", "CellCache", "get", "experiments.cache.get", "experiments.cache", None),
    ("repro.experiments.cache", "CellCache", "put", "experiments.cache.put", "experiments.cache", _stat_size),
)


@contextmanager
def instrument(tracer: SpanTracer) -> Iterator[SpanTracer]:
    """Install a timing wrapper at every patch point; always restore."""
    restore: List[Tuple[object, str, object]] = []
    try:
        for module_name, class_name, attr, name, layer, summarise in PATCH_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                patched = classmethod(tracer.wrap(original.__func__, name, layer, summarise))
            else:
                patched = tracer.wrap(original, name, layer, summarise)
            setattr(owner, attr, patched)
            restore.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
@dataclass
class LayerTotals:
    """Per-layer aggregate of a span list."""

    calls: int = 0  #: outermost spans of the layer (nested same-layer spans excluded)
    busy: float = 0.0  #: seconds inside outermost spans of the layer
    self_time: float = 0.0  #: seconds in the layer not covered by another layer's span


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id → duration minus the durations of its direct children."""
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    return {span.id: span.duration - covered.get(span.id, 0.0) for span in spans}


def layer_totals(spans: List[Span]) -> Dict[str, LayerTotals]:
    """Calls, busy time and self time per layer.

    A span nested directly or indirectly in a span of its own layer
    (a stage inside a layer, such as path enumeration inside
    stretching) adds to the layer's self time but not to its calls or
    busy time.
    """
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    totals: Dict[str, LayerTotals] = {}
    for span in spans:
        entry = totals.setdefault(span.layer, LayerTotals())
        entry.self_time += own[span.id]
        parent = span.parent
        nested = False
        while parent is not None:
            ancestor = by_id[parent]
            if ancestor.layer == span.layer:
                nested = True
                break
            parent = ancestor.parent
        if not nested:
            entry.calls += 1
            entry.busy += span.duration
    return totals


def named(spans: List[Span], name: str) -> List[Span]:
    return [span for span in spans if span.name == name]
