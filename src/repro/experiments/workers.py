"""Worker dispatch for the experiment engine.

Cells reach an execution substrate through the small :class:`WorkerPool`
interface, so the engine's streaming/reduction logic never knows which
one it talks to:

:class:`SerialPool`
    Inline execution in the calling process — ``jobs == 1`` and the
    single-miss fast path.

:class:`LocalProcessPool`
    A :class:`~concurrent.futures.ProcessPoolExecutor` fan-out over
    fork/spawn workers.  The parent owns the cell cache and writes
    entries as results stream back, so workers need no cache access.

A pool is a three-call surface: :meth:`WorkerPool.submit` tags a
cell's parameters, :meth:`WorkerPool.ready` blocks for *any* finished
cell and returns ``(tag, payload)``, :meth:`WorkerPool.close` tears the
substrate down.  Completion order is explicitly unspecified — the
engine's reorder buffer (see :mod:`repro.experiments.engine`) restores
declaration order, which is also what makes the engine
property-testable with adversarial completion orders (a scripted pool
substitutes for a real one through this interface).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Any, Callable, Dict, Tuple


class EngineError(RuntimeError):
    """The engine cannot execute a spec as requested.

    Defined here (the lowest layer that raises it) and re-exported by
    :mod:`repro.experiments.engine`, its historical home.
    """


def execute_cell(
    cell_function: Callable[[Dict[str, Any]], Dict[str, Any]],
    params: Dict[str, Any],
) -> Dict[str, Any]:
    """Run one cell function and normalise its payload (worker entry)."""
    started = time.perf_counter()
    payload = cell_function(dict(params))
    elapsed = time.perf_counter() - started
    if not isinstance(payload, dict) or "values" not in payload:
        raise EngineError(
            f"cell function {getattr(cell_function, '__name__', cell_function)!r} "
            "must return a dict with a 'values' key"
        )
    out = dict(payload)
    out.setdefault("profile", {})
    out.setdefault("timing", {})
    out["seconds"] = elapsed
    return out


def require_parallelisable(cell_function: Callable) -> None:
    """Fail early (and clearly) on cell functions workers cannot import."""
    qualname = getattr(cell_function, "__qualname__", "")
    if getattr(cell_function, "__name__", "") == "<lambda>" or "<locals>" in qualname:
        raise EngineError(
            f"cell function {qualname or cell_function!r} must be a "
            "module-level function to run on worker processes (workers "
            "import it by name)"
        )


class WorkerPool(ABC):
    """Execution substrate for cache-missing cells.

    Tags are opaque to the pool; the engine uses submission positions.
    ``ready`` may return completions in *any* order.
    """

    @abstractmethod
    def submit(self, tag: int, params: Dict[str, Any]) -> None:
        """Dispatch one cell's parameters under ``tag``."""

    @abstractmethod
    def ready(self) -> Tuple[int, Dict[str, Any]]:
        """Block until any submitted cell finishes; ``(tag, payload)``."""

    def close(self) -> None:
        """Tear down the substrate (idempotent)."""

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


class SerialPool(WorkerPool):
    """Inline execution: ``submit`` computes immediately, FIFO ``ready``."""

    def __init__(self, cell_function: Callable) -> None:
        self._cell_function = cell_function
        self._done: deque = deque()

    def submit(self, tag: int, params: Dict[str, Any]) -> None:
        self._done.append((tag, execute_cell(self._cell_function, params)))

    def ready(self) -> Tuple[int, Dict[str, Any]]:
        if not self._done:
            raise EngineError("ready() called on an empty serial pool")
        return self._done.popleft()




class LocalProcessPool(WorkerPool):
    """The ``ProcessPoolExecutor`` fan-out."""

    def __init__(self, cell_function: Callable, workers: int) -> None:
        require_parallelisable(cell_function)
        self._cell_function = cell_function
        self._executor = ProcessPoolExecutor(max_workers=workers)
        self._futures: Dict[Future, int] = {}

    def submit(self, tag: int, params: Dict[str, Any]) -> None:
        future = self._executor.submit(execute_cell, self._cell_function, params)
        self._futures[future] = tag

    def ready(self) -> Tuple[int, Dict[str, Any]]:
        if not self._futures:
            raise EngineError("ready() called with no outstanding cells")
        done, _pending = wait(self._futures, return_when=FIRST_COMPLETED)
        # earliest-submitted finished future first: deterministic under
        # simultaneous completion (dict preserves submission order)
        future = next(f for f in self._futures if f in done)
        tag = self._futures.pop(future)
        return tag, future.result()

    def close(self) -> None:
        self._executor.shutdown(wait=True)


def resolve_pool(cell_function: Callable, jobs: int) -> WorkerPool:
    """A ready pool for one engine run: serial for ``jobs <= 1``, the
    local process pool otherwise."""
    if jobs <= 1:
        return SerialPool(cell_function)
    return LocalProcessPool(cell_function, jobs)
