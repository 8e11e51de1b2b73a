"""Bench: the run-event ledger must be free when off and cheap when on.

The run-telemetry layer threads an :class:`EventLedger` through the
engine's streaming loop.  Two promises keep it honest:

* **off** — ``run_spec(events=None)`` emits into the shared no-op
  ``NULL_LEDGER`` (one empty method call per emission site), so the
  un-ledgered sweep below is pinned by the committed baseline in
  ``benchmarks/baselines/bench_quick.json`` via CI's
  machine-calibrated bench-regression job;
* **on** — a file-backed, write-through ledger (4 events per computed
  cell: submitted, flushed, completed, plus the sweep bookends) may
  cost at most :data:`MAX_LEDGER_OVERHEAD` relative to the un-ledgered
  sweep, and must not change the reduced result.

Setting ``REPRO_BENCH_QUICK=1`` shrinks the sweep for CI; the overhead
assertion is unchanged.
"""

import os
import tempfile
import time
from pathlib import Path

from repro.experiments import run_spec
from repro.experiments.spec import Cell, ExperimentSpec
from repro.obs import read_ledger

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
CELLS = 150 if QUICK else 400

#: upper bound on ledgered wall-clock relative to the un-ledgered run;
#: an emission is one dict build, one json.dumps and one flushed line
#: write, measured at a few percent on ~1 ms cells — 25% leaves room
#: for slow CI filesystems without tolerating anything per-cell-heavy
MAX_LEDGER_OVERHEAD = 1.25


def ledger_cell(params):
    """A ~1 ms deterministic pure-Python cell."""
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return {"values": {"acc": acc, "x": params["x"]}}


def _spec():
    return ExperimentSpec(
        name="ledger-bench",
        cells=tuple(Cell(key=f"c{i}", params={"x": i}) for i in range(CELLS)),
        cell_function=ledger_cell,
        reducer=lambda cells: sum(c.values["acc"] for c in cells),
    )


def _run(events=None):
    started = time.perf_counter()
    report = run_spec(_spec(), jobs=1, events=events)
    return report, time.perf_counter() - started


def run_ledger_bench():
    unledgered, off_seconds = _run(events=None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.jsonl"
        ledgered, on_seconds = _run(events=path)
        records = read_ledger(path)
    overhead = on_seconds / off_seconds
    lines = [
        f"event-ledger overhead — {CELLS}-cell serial sweep",
        f"  un-ledgered        : {off_seconds * 1e3:8.1f} ms",
        f"  write-through file : {on_seconds * 1e3:8.1f} ms",
        f"  overhead           : {overhead:8.2f}x  (bound {MAX_LEDGER_OVERHEAD}x)",
        f"  records written    : {len(records)}",
    ]
    return unledgered, ledgered, len(records), overhead, "\n".join(lines)


def test_engine_unledgered_hotpath(benchmark, archive):
    """The events=None engine path — the number the baseline compare pins."""

    report, _seconds = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert len(report.cells) == CELLS
    archive(
        "events_unledgered_hotpath",
        f"un-ledgered serial sweep — {CELLS} cells, result {report.result}",
    )


def test_ledger_write_overhead(benchmark, archive):
    unledgered, ledgered, records, overhead, report = benchmark.pedantic(
        run_ledger_bench, rounds=1, iterations=1
    )
    archive("events_ledger_overhead", report)
    benchmark.extra_info["overhead"] = round(overhead, 2)
    # the ledger must not change the run
    assert ledgered.result == unledgered.result
    # sweep bookends + header + 3 per-cell events (submitted/flushed/completed)
    assert records == 3 + 3 * CELLS
    assert overhead <= MAX_LEDGER_OVERHEAD, (
        f"file-backed ledger costs {overhead:.2f}x, bound is {MAX_LEDGER_OVERHEAD}x"
    )
