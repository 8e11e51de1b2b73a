"""The parallel, cached, streaming experiment engine.

:func:`run_spec` executes one :class:`~repro.experiments.spec.
ExperimentSpec`:

1. every cell is fingerprinted and looked up in the (optional)
   content-addressed directory cache
   :class:`~repro.experiments.cache.CellCache`;
2. the missing cells are dispatched to a
   :class:`~repro.experiments.workers.WorkerPool` — inline for
   ``jobs == 1``, a ``ProcessPoolExecutor`` fan-out otherwise;
3. completions are **streamed through a bounded reorder buffer** back
   into declaration order: each result is written to the cache the
   moment it arrives (so a killed run loses at most the in-flight
   cells — the basis of ``--resume``), and at most ``reorder_window``
   out-of-order payloads are ever resident, not the whole cell list;
4. each cell's :class:`~repro.profiling.StageProfiler` snapshot is
   merged into a run-level aggregate, and the spec's reducer folds the
   declaration-ordered cell results into the experiment's table/figure
   dataclass.

Cells are pure functions of their parameters (see ``spec.py``), so the
reduced result is bit-identical at any ``jobs`` value, at any
reorder-window size, and on warm or cold caches;
only the wall-clock changes.  The engine's own accounting (cache
backend traffic, stream behaviour) lands on
:attr:`ExperimentReport.engine_profile` under the declared
``cache.backend.*`` / ``engine.stream.*`` counter vocabulary — kept
separate from the cells' aggregate profile precisely because it *does*
depend on cache temperature and completion order, which canonical
artifacts must not.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..obs.events import EventLedger, as_ledger
from ..obs.trace import Tracer, as_tracer
from ..profiling import StageProfiler
from .cache import CellCache, resolve_cache
from .spec import CellResult, ExperimentSpec
from .workers import (
    EngineError,
    WorkerPool,
    execute_cell as _execute_cell,
    require_parallelisable as _require_parallelisable,
    resolve_pool,
)

__all__ = [
    "EngineError",
    "EngineStats",
    "ExperimentReport",
    "run_spec",
    "stream_reorder",
]


@dataclass
class EngineStats:
    """Execution accounting of one :func:`run_spec` call."""

    cells: int = 0
    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    jobs: int = 1
    seconds: float = 0.0
    cache_enabled: bool = False
    backend: str = ""
    resumed: int = 0
    window: int = 1

    @property
    def hit_rate(self) -> float:
        """Fraction of cells served from cache (0.0 for an empty run)."""
        return self.hits / self.cells if self.cells else 0.0


@dataclass
class ExperimentReport:
    """Everything one engine run produced.

    Attributes
    ----------
    name:
        The spec's experiment name.
    result:
        The reducer's output — the experiment's table/figure dataclass.
    cells:
        Per-cell results in declaration order.
    profile:
        Aggregate of every cell's stage timings/counters (cached cells
        contribute their snapshot from compute time).
    engine_profile:
        The engine's *own* counters (``cache.backend.*``,
        ``engine.stream.*``) — deliberately not merged into ``profile``
        because they vary with cache temperature, worker count and
        completion order, which the jobs-invariant canonical outputs
        must never see.
    stats:
        Cache and parallelism accounting for this run.
    spec:
        The executed spec (for re-runs and rendering).
    """

    name: str
    result: Any
    cells: List[CellResult] = field(default_factory=list)
    profile: StageProfiler = field(default_factory=StageProfiler)
    engine_profile: StageProfiler = field(default_factory=StageProfiler)
    stats: EngineStats = field(default_factory=EngineStats)
    spec: Optional[ExperimentSpec] = None

    def format(self) -> str:
        """The experiment's own rendering plus one engine status line."""
        if self.spec is not None and self.spec.render is not None:
            text = self.spec.render(self.result)
        else:
            text = self.result.format()
        return f"{text}\n{self.engine_line()}"

    def engine_line(self) -> str:
        """One-line engine summary (cells, cache outcome, wall-clock)."""
        stats = self.stats
        cache = (
            f"{stats.hits}/{stats.cells} cached"
            if stats.cache_enabled
            else "cache off"
        )
        return (
            f"[engine: {stats.cells} cells, {cache}, "
            f"jobs={stats.jobs}, {stats.seconds:.2f}s]"
        )


def stream_reorder(
    pool: WorkerPool,
    work: Sequence[Tuple[int, Dict[str, Any]]],
    window: int,
    stream_stats: Dict[str, int],
    on_submit: Optional[Any] = None,
) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Stream pool completions back into submission order.

    ``work`` is a sequence of ``(tag, params)`` pairs; payloads are
    yielded as ``(tag, payload)`` in exactly that order, whatever order
    the pool completes them in.  At most ``window`` cells are in flight
    (submitted but not yet yielded), so the reorder buffer — and with
    it the engine's peak resident payload count — is bounded by the
    window, not by ``len(work)``.  ``stream_stats`` accumulates
    ``flushed`` (payloads yielded) and ``peak_resident`` (high-water
    mark of completed payloads held at once, the yielding one
    included); ``tests/test_streaming.py`` property-tests both against
    adversarial completion orders.  ``on_submit``, if given, is called
    with each tag right after its pool submission (the engine's
    ``cell.submitted`` ledger hook).
    """
    if window < 1:
        raise EngineError(f"reorder window must be >= 1, got {window}")
    buffer: Dict[int, Dict[str, Any]] = {}
    submitted = 0
    next_slot = 0
    while next_slot < len(work):
        while submitted < len(work) and submitted - next_slot < window:
            tag, params = work[submitted]
            pool.submit(submitted, params)
            if on_submit is not None:
                on_submit(tag)
            submitted += 1
        if next_slot not in buffer:
            slot, payload = pool.ready()
            buffer[slot] = payload
            stream_stats["peak_resident"] = max(
                stream_stats.get("peak_resident", 0), len(buffer)
            )
            continue
        payload = buffer.pop(next_slot)
        stream_stats["flushed"] = stream_stats.get("flushed", 0) + 1
        yield work[next_slot][0], payload
        next_slot += 1


def _default_window(jobs: int) -> int:
    """Serial runs flush strictly; fan-out gets 2× jobs of slack so a
    straggler never idles the pool while staying O(jobs), not O(cells)."""
    return 1 if jobs <= 1 else max(8, 2 * jobs)


def run_spec(
    spec: ExperimentSpec,
    jobs: Optional[int] = None,
    cache: Union[None, str, Path, CellCache] = None,
    tracer: Optional[Tracer] = None,
    resume: bool = False,
    reorder_window: Optional[int] = None,
    events: Union[None, str, Path, EventLedger] = None,
) -> ExperimentReport:
    """Execute a spec; see the module docstring for the pipeline.

    Parameters
    ----------
    spec:
        The declarative experiment.
    jobs:
        Worker processes for cache-missing cells; ``None`` means
        ``os.cpu_count()``.  ``1`` computes inline (no pool), which is
        also used when at most one cell misses.
    cache:
        ``None`` (no caching), a cache directory path, or a ready
        :class:`CellCache`.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`: the engine records
        one ``cell`` span per cell on the ``engine`` track, *in
        declaration order* with prefix-summed start times (cells may
        really have run concurrently or come from cache) — so the
        rendered timeline and the canonical metrics snapshot are
        identical at every ``jobs`` value, exactly like the reduced
        result.
    resume:
        Declare this run the continuation of an interrupted sweep:
        requires a cache, and reports the cells skipped via warm
        entries on ``stats.resumed`` / ``engine.stream.resumed``.
        Execution is unchanged — resumability *is* the cache contract
        (completed cells are durable before the run ends; corrupt
        mid-``put`` tails recompute).
    reorder_window:
        Bound on in-flight cells (and therefore on resident
        out-of-order payloads); ``None`` picks 1 for serial runs and
        ``max(8, 2 * jobs)`` otherwise.
    events:
        ``None`` (no ledger: the run emits into
        :data:`~repro.obs.events.NULL_LEDGER`), a path to an
        ``events.jsonl`` file (the engine opens and closes it), or a live
        :class:`~repro.obs.events.EventLedger` (shared by the caller,
        e.g. across a multi-experiment ``repro run``).  The run's
        lifecycle and per-cell stream progress are appended as they
        happen; canonical events depend only on the spec and the
        cells' deterministic outputs, so the canonicalised ledger is
        byte-identical across ``--jobs``, cache temperature and resume
        (see :mod:`repro.obs.events`).
    """
    ledger, owned = as_ledger(events)
    try:
        return _run_spec(
            spec,
            jobs=jobs,
            cache=cache,
            tracer=tracer,
            resume=resume,
            reorder_window=reorder_window,
            ledger=ledger,
        )
    finally:
        if owned:
            ledger.close()


def _run_spec(
    spec: ExperimentSpec,
    jobs: Optional[int],
    cache: Union[None, str, Path, CellCache],
    tracer: Optional[Tracer],
    resume: bool,
    reorder_window: Optional[int],
    ledger: EventLedger,
) -> ExperimentReport:
    started = time.perf_counter()
    effective_jobs = os.cpu_count() or 1 if jobs is None else int(jobs)
    if effective_jobs < 1:
        raise EngineError(f"jobs must be >= 1, got {effective_jobs}")
    store = resolve_cache(cache)
    if resume and store is None:
        raise EngineError("resume needs a cache to resume from")
    window = (
        _default_window(effective_jobs)
        if reorder_window is None
        else int(reorder_window)
    )
    if window < 1:
        raise EngineError(f"reorder window must be >= 1, got {window}")

    fingerprints = [spec.fingerprint_of(cell) for cell in spec.cells]
    results: List[Optional[CellResult]] = [None] * len(spec.cells)
    stats_before = (
        (store.stats.hits, store.stats.misses, store.stats.corrupt, store.stats.puts)
        if store
        else (0, 0, 0, 0)
    )

    ledger.emit(
        "sweep.started",
        experiment=spec.name,
        cells=len(spec.cells),
        jobs=effective_jobs,
        backend=store.describe() if store else "",
    )

    pending: List[int] = []
    for i, (cell, fp) in enumerate(zip(spec.cells, fingerprints)):
        entry = store.get(fp) if store else None
        if entry is None:
            pending.append(i)
            continue
        ledger.emit("cell.resumed" if resume else "cell.cached", key=cell.key)
        results[i] = CellResult(
            key=cell.key,
            params=dict(cell.params),
            values=entry["values"],
            profile=entry.get("profile") or {},
            # replayed timings are measurements from compute time on
            # the machine that computed them; cached=True is the flag
            # consumers must honour before presenting them as fresh
            timing=entry.get("timing") or {},
            seconds=float(entry.get("seconds", 0.0)),
            fingerprint=fp,
            cached=True,
        )

    stream_stats: Dict[str, int] = {"flushed": 0, "peak_resident": 0}
    if pending:
        work = [(i, dict(spec.cells[i].params)) for i in pending]
        pool_jobs = min(effective_jobs, len(pending)) if len(pending) > 1 else 1
        with resolve_pool(spec.cell_function, pool_jobs) as pool:
            for i, payload in stream_reorder(
                pool,
                work,
                window,
                stream_stats,
                on_submit=lambda tag: ledger.emit(
                    "cell.submitted", key=spec.cells[tag].key
                ),
            ):
                cell = spec.cells[i]
                ledger.emit("cell.flushed", key=cell.key)
                result = CellResult(
                    key=cell.key,
                    params=dict(cell.params),
                    values=payload["values"],
                    profile=payload.get("profile") or {},
                    timing=payload.get("timing") or {},
                    seconds=payload["seconds"],
                    fingerprint=fingerprints[i],
                    cached=False,
                )
                results[i] = result
                # durable the moment it exists: an interrupted sweep
                # keeps every flushed cell, which is what --resume skips
                if store is not None:
                    store.put(
                        fingerprints[i],
                        {
                            "experiment": spec.name,
                            "key": result.key,
                            "values": result.values,
                            "profile": result.profile,
                            "timing": result.timing,
                            "seconds": result.seconds,
                        },
                    )

    cell_results = [r for r in results if r is not None]
    aggregate = StageProfiler()
    for result in cell_results:
        aggregate.merge(StageProfiler.from_dict(result.profile))

    trc = as_tracer(tracer)
    if trc.enabled:
        cursor = 0.0
        for result in cell_results:
            trc.add_span(
                result.key,
                cursor,
                cursor + result.seconds,
                category="cell",
                track="engine",
                experiment=spec.name,
                cached=result.cached,
            )
            cursor += result.seconds

    reduced = spec.reducer(cell_results)
    # canonical tail: declaration order, deterministic fields only —
    # this is the part of the ledger CI byte-compares across jobs and
    # resume
    for result in cell_results:
        ledger.emit("cell.completed", key=result.key, fingerprint=result.fingerprint)
        counters = (result.profile or {}).get("counters") or {}
        recovery = {
            "injected": int(counters.get("fault.injected", 0)),
            "threatened": int(counters.get("fault.threatened", 0)),
            "escalations": int(counters.get("fault.escalations", 0)),
        }
        if any(recovery.values()):
            ledger.emit("cell.recovery", key=result.key, **recovery)
    ledger.emit(
        "sweep.finished",
        experiment=spec.name,
        cells=len(cell_results),
        seconds=round(time.perf_counter() - started, 6),
    )
    hits = len(spec.cells) - len(pending)
    stats = EngineStats(
        cells=len(spec.cells),
        hits=hits,
        misses=len(pending),
        corrupt=(store.stats.corrupt - stats_before[2]) if store else 0,
        jobs=effective_jobs,
        seconds=time.perf_counter() - started,
        cache_enabled=store is not None,
        backend=store.describe() if store else "",
        resumed=hits if resume else 0,
        window=window,
    )

    engine_profile = StageProfiler()
    engine_profile.count("engine.stream.flushed", stream_stats["flushed"])
    engine_profile.count("engine.stream.peak_resident", stream_stats["peak_resident"])
    if resume:
        engine_profile.count("engine.stream.resumed", stats.resumed)
    if store is not None:
        engine_profile.count("cache.backend.hit", store.stats.hits - stats_before[0])
        engine_profile.count(
            "cache.backend.miss", store.stats.misses - stats_before[1]
        )
        engine_profile.count(
            "cache.backend.corrupt", store.stats.corrupt - stats_before[2]
        )
        engine_profile.count("cache.backend.put", store.stats.puts - stats_before[3])

    return ExperimentReport(
        name=spec.name,
        result=reduced,
        cells=cell_results,
        profile=aggregate,
        engine_profile=engine_profile,
        stats=stats,
        spec=spec,
    )
