"""Constrained adaptive beamforming with selective-update conjugate gradients.

The package bundles a gated conjugate-gradient beamformer whose forgetting
factor is solved per snapshot from an error-bound constraint, the adaptive
bound policies that drive the gate, classical constrained baselines, an
operation-count model and a reproducible Monte-Carlo harness.
"""

from .arrays import (
    ArrayGeometry,
    Scenario,
    Source,
    epoch_index,
    generate_snapshot,
    steering_vector,
    total_covariance,
)
from .baselines import ConstrainedCg, ConstrainedRls, FrostSg, mvdr_weights
from .bounds import FixedBound, PdbBound, PidbBound
from .harness import (
    AggregateResult,
    AlgoSpec,
    ConfigError,
    ExperimentConfig,
    RunDivergedError,
    algo,
    build_scenario,
    emit_complexity_table,
    emit_csv,
    load_config_file,
    preset,
    presets,
    run_experiment,
)
from .metrics import (
    COMPLEXITY_ALGORITHMS,
    complexity_counts,
    sinr_linear,
)
from .smcg import DegenerateLambdaError, SmCgStack, SmCgState, lambda1_root

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "Scenario",
    "Source",
    "epoch_index",
    "generate_snapshot",
    "steering_vector",
    "total_covariance",
    "ConstrainedCg",
    "ConstrainedRls",
    "FrostSg",
    "mvdr_weights",
    "FixedBound",
    "PdbBound",
    "PidbBound",
    "AggregateResult",
    "AlgoSpec",
    "ConfigError",
    "ExperimentConfig",
    "RunDivergedError",
    "algo",
    "build_scenario",
    "emit_complexity_table",
    "emit_csv",
    "load_config_file",
    "preset",
    "presets",
    "run_experiment",
    "COMPLEXITY_ALGORITHMS",
    "complexity_counts",
    "sinr_linear",
    "DegenerateLambdaError",
    "SmCgStack",
    "SmCgState",
    "lambda1_root",
    "__version__",
]
