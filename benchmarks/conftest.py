"""Shared helpers for the benchmark suite.

Every bench regenerates one of the paper's tables or figures: it runs
the corresponding experiment harness exactly once under
``pytest-benchmark`` (``pedantic`` with one round — the experiments are
deterministic end-to-end runs, not micro-kernels), prints the rendered
table and archives it under ``benchmarks/results/``.
"""

import pathlib
import sys

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# benches compare against the scalar oracles in ``tests/oracles``
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


@pytest.fixture
def archive():
    """Persist a rendered table and echo it to the terminal."""

    def _archive(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return _archive


@pytest.fixture
def archive_svg():
    """Persist an SVG figure next to the text tables."""

    def _archive(name: str, svg: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.svg").write_text(svg + "\n")
        print(f"[figure written: results/{name}.svg]")

    return _archive
