"""Certified kernel-split reduction for parameterised equilibrium systems.

Workflow: build a ParametricSystem, split it at a singular equilibrium with
build_split_system, certify a validity region with certify_ls_region, then
study the reduced map through ReducedMap / series_coefficients /
trace_branches. Certification has one engine, the generic split-variable
imft module: it certifies implicit maps at regular points directly, and the
kernel split (ls_bounds module) is that engine with exact base blocks.
"""

__version__ = "0.1.0"

from .errors import (
    ArityError,
    ConfigError,
    DimensionMismatch,
    DomainError,
    InexactKernel,
    LscertError,
    NewtonDiverged,
    NonFinite,
    NonSingularJacobian,
    NotEquilibrium,
    ParseError,
    SingularDyf,
    SingularNewtonSystem,
    SingularReducedJacobian,
    UnknownIdentifier,
    UnknownModel,
    UnsupportedDimensions,
)
from .imft import (
    CertifiedRegion,
    FrontierPoint,
    ImftQuantities,
    RegionEntry,
    SplitFunction,
    SupremumEstimator,
    WitnessResult,
    certify_region,
    check_conditions,
    compute_M,
    estimate_L,
    imft_quantities,
    split_function,
    witness_check,
)
from .ls_bounds import (
    SplitSystem,
    build_split_system,
    certify_ls_region,
    check_ls_conditions,
    compute_ls_M,
    estimate_ls_L,
    ls_quantities,
)
from .reduction import (
    BranchPoint,
    ReducedMap,
    ReducedPoint,
    SeriesCoefficients,
    TraceResult,
    classify_series,
    in_certified_region,
    region_note,
    series_coefficients,
    solve_phi,
    trace_branches,
)
from .subspace import (
    SubspaceDecomposition,
    compute_decomposition,
    projection_onto_range,
    split_state,
)
from .system import (
    EvaluationPoint,
    ParametricSystem,
    builtin_model,
    evaluation_point,
    from_callable,
    is_bifurcation_candidate,
    newton_full,
    refine_equilibrium,
    system_from_expressions,
)
from .config import RunConfig, build_estimator, build_system, load_config, parse_config

__all__ = [
    "__version__",
    # errors
    "LscertError", "DimensionMismatch", "NonFinite", "NonSingularJacobian",
    "UnknownModel", "NotEquilibrium", "ParseError", "ArityError",
    "UnknownIdentifier", "DomainError", "SingularDyf", "SingularReducedJacobian",
    "NewtonDiverged", "SingularNewtonSystem", "UnsupportedDimensions", "ConfigError",
    "InexactKernel",
    # systems and decomposition
    "ParametricSystem", "EvaluationPoint", "evaluation_point", "from_callable",
    "builtin_model", "system_from_expressions", "newton_full", "refine_equilibrium",
    "is_bifurcation_candidate",
    "SubspaceDecomposition", "compute_decomposition", "projection_onto_range", "split_state",
    # generic split certification
    "SplitFunction", "split_function", "SupremumEstimator", "ImftQuantities",
    "compute_M", "estimate_L", "imft_quantities", "check_conditions", "certify_region",
    "witness_check", "WitnessResult",
    "CertifiedRegion", "RegionEntry", "FrontierPoint",
    # kernel-split certification
    "SplitSystem", "build_split_system", "compute_ls_M",
    "estimate_ls_L", "ls_quantities", "certify_ls_region", "check_ls_conditions",
    # reduction
    "ReducedMap", "ReducedPoint", "solve_phi", "SeriesCoefficients",
    "series_coefficients", "classify_series", "BranchPoint", "TraceResult",
    "trace_branches", "in_certified_region", "region_note",
    # config
    "RunConfig", "load_config", "parse_config", "build_system", "build_estimator",
]
