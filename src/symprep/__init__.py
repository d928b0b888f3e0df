"""symprep: low-depth quantum state preparation for reflection-symmetric
probability distributions via matrix-product-state disentanglers."""

__version__ = "0.1.0"

from .numerics import NumericsError, SvdResult, complete_isometry, is_orthonormal, svd
from .numerics import is_finite_number, is_int
from .dist import (
    DistError,
    DistSpec,
    Grid,
    TargetDistribution,
    amplitudes,
    left_half,
    sample_pdf,
)
from .mps import (
    DENSE_LIMIT,
    Mps,
    MpsError,
    apply_gate_run,
    is_left_canonical,
    mps_from_statevector,
    mps_to_json,
    to_statevector,
    truncate,
)
from .disentangler import (
    DisentanglerError,
    DisentanglerStack,
    MpdLayer,
    build_layer,
    build_stack,
)
from .circuit import (
    Circuit,
    CircuitError,
    GateOp,
    GateStats,
    accounting,
    add_reflection_wrapper,
    export_circuit,
    import_circuit,
    prep_circuit,
    residual,
    simulate,
)
from .metrics import (
    MetricsError,
    MetricsReport,
    classical_fidelity,
    kl_divergence,
    meyer_wallach_direct,
    meyer_wallach_purity,
)
from .pipeline import (
    ConfigError,
    PipelineError,
    RunConfig,
    RunResult,
    SweepConfig,
    config_from_dict,
    parse_config,
    run,
    run_full,
    sweep,
    sweep_full,
)

__all__ = [
    "__version__",
    "NumericsError", "SvdResult", "svd", "complete_isometry", "is_orthonormal",
    "is_int", "is_finite_number",
    "DistError", "DistSpec", "Grid", "TargetDistribution",
    "sample_pdf", "left_half", "amplitudes",
    "DENSE_LIMIT", "Mps", "MpsError", "mps_from_statevector", "to_statevector",
    "truncate", "apply_gate_run", "is_left_canonical",
    "mps_to_json",
    "DisentanglerError", "MpdLayer", "DisentanglerStack",
    "build_layer", "build_stack",
    "CircuitError", "GateOp", "Circuit", "GateStats",
    "prep_circuit", "add_reflection_wrapper", "simulate", "residual", "accounting",
    "export_circuit", "import_circuit",
    "MetricsError", "MetricsReport", "kl_divergence", "classical_fidelity",
    "meyer_wallach_direct", "meyer_wallach_purity",
    "ConfigError", "PipelineError", "RunConfig", "SweepConfig", "RunResult",
    "parse_config", "config_from_dict", "run", "run_full", "sweep", "sweep_full",
]
