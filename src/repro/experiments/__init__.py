"""Experiment harnesses — one per table/figure of the paper plus
ablations, all declared as :class:`~repro.experiments.spec.
ExperimentSpec` and executed by the parallel, cached engine in
:mod:`repro.experiments.engine`.  :func:`run_spec` is the one way to
run an experiment: ``run_spec(table3_spec(...), jobs=1).result`` is
what the CLI, the benchmark suite and the examples all do."""

from .ablations import SweepResult, WeightingResult, sweep_spec, weighting_spec
from .artifacts import (
    ARTIFACT_SCHEMA,
    ArtifactError,
    artifact_payload,
    canonical_artifact_payload,
    load_artifact,
    validate_artifact,
    write_artifact,
)
from .cache import ENTRY_VERSION, CacheStats, CellCache, resolve_cache
from .chaos import ChaosResult, ChaosRow, chaos_spec, fault_plan_catalogue
from .engine import (
    EngineError,
    EngineStats,
    ExperimentReport,
    run_spec,
    stream_reorder,
)
from .extensions import (
    DiscreteResult,
    OverheadResult,
    PredictorResult,
    RobustnessResult,
    discrete_spec,
    overhead_spec,
    predictor_spec,
    robustness_spec,
)
from .figure4 import Figure4Result, figure4_spec
from .montecarlo import MonteCarloSweepResult, montecarlo_spec
from .mpeg_energy import MpegResult, mpeg_spec
from .runtime import RuntimeResult, runtime_spec
from .spec import Cell, CellResult, ExperimentSpec, SpecError, derive_cell_seeds
from .table1 import Table1Result, table1_spec
from .workers import LocalProcessPool, SerialPool, WorkerPool, resolve_pool
from .table3 import Table3Result, table3_spec
from .table45 import BiasResult, bias_spec

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactError",
    "artifact_payload",
    "canonical_artifact_payload",
    "load_artifact",
    "validate_artifact",
    "write_artifact",
    "ChaosResult",
    "ChaosRow",
    "chaos_spec",
    "fault_plan_catalogue",
    "Cell",
    "CellResult",
    "ExperimentSpec",
    "SpecError",
    "derive_cell_seeds",
    "ENTRY_VERSION",
    "CacheStats",
    "CellCache",
    "resolve_cache",
    "EngineError",
    "EngineStats",
    "ExperimentReport",
    "run_spec",
    "stream_reorder",
    "LocalProcessPool",
    "SerialPool",
    "WorkerPool",
    "resolve_pool",
    "SweepResult",
    "WeightingResult",
    "sweep_spec",
    "weighting_spec",
    "DiscreteResult",
    "OverheadResult",
    "PredictorResult",
    "RobustnessResult",
    "discrete_spec",
    "overhead_spec",
    "predictor_spec",
    "robustness_spec",
    "Figure4Result",
    "figure4_spec",
    "MonteCarloSweepResult",
    "montecarlo_spec",
    "MpegResult",
    "mpeg_spec",
    "RuntimeResult",
    "runtime_spec",
    "Table1Result",
    "table1_spec",
    "Table3Result",
    "table3_spec",
    "BiasResult",
    "bias_spec",
]
