"""Experiment harnesses — one per table/figure of the paper plus
ablations, all declared as :class:`~repro.experiments.spec.
ExperimentSpec` and executed by the parallel, cached engine in
:mod:`repro.experiments.engine`.  Both the benchmark suite and the
examples drive these."""

from .ablations import (
    SweepResult,
    WeightingResult,
    run_weighting_ablation,
    run_window_threshold_sweep,
    sweep_spec,
    weighting_spec,
)
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
from .chaos import (
    ChaosResult,
    ChaosRow,
    chaos_spec,
    fault_plan_catalogue,
    run_chaos,
)
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
    run_discrete_dvfs,
    run_overhead_breakeven,
    run_predictor_comparison,
    run_seed_robustness,
)
from .figure4 import Figure4Result, figure4_spec, run_figure4
from .montecarlo import (
    MonteCarloSweepResult,
    montecarlo_spec,
    run_montecarlo,
)
from .mpeg_energy import MpegResult, mpeg_spec, run_mpeg_energy
from .runtime import RuntimeResult, run_runtime, runtime_spec
from .spec import Cell, CellResult, ExperimentSpec, SpecError, derive_cell_seeds
from .table1 import Table1Result, run_table1, table1_spec
from .workers import LocalProcessPool, SerialPool, WorkerPool, resolve_pool
from .table3 import Table3Result, run_table3, table3_spec
from .table45 import (
    BiasResult,
    bias_spec,
    run_bias_experiment,
    run_figure6,
    run_table4,
    run_table5,
)

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
    "run_chaos",
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
    "run_weighting_ablation",
    "run_window_threshold_sweep",
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
    "run_discrete_dvfs",
    "run_overhead_breakeven",
    "run_predictor_comparison",
    "run_seed_robustness",
    "Figure4Result",
    "figure4_spec",
    "run_figure4",
    "MonteCarloSweepResult",
    "montecarlo_spec",
    "run_montecarlo",
    "MpegResult",
    "mpeg_spec",
    "run_mpeg_energy",
    "RuntimeResult",
    "run_runtime",
    "runtime_spec",
    "Table1Result",
    "run_table1",
    "table1_spec",
    "Table3Result",
    "run_table3",
    "table3_spec",
    "BiasResult",
    "bias_spec",
    "run_bias_experiment",
    "run_figure6",
    "run_table4",
    "run_table5",
]
