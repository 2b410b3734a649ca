"""Certified kernel-split reduction for parameterised equilibrium systems.

Workflow: build a ParametricSystem, split it at a singular equilibrium with
build_split_system, certify a validity region with certify_ls_region, then
study the reduced map through ReducedMap / series_coefficients /
trace_branches. Certification has one engine, the generic split-variable
imft module: it certifies implicit maps at regular points directly, and the
kernel split (ls_bounds module) is that engine with exact base blocks.

Importing the package loads no submodule. A public name, or a submodule
such as lscert.ls_bounds, is imported on first access, so loading a config
and building a model never loads the certification engine.
"""

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "errors": (
        "LscertError", "DimensionMismatch", "NonFinite", "NonSingularJacobian",
        "UnknownModel", "NotEquilibrium", "ParseError", "ArityError",
        "UnknownIdentifier", "DomainError", "SingularDyf", "SingularReducedJacobian",
        "NewtonDiverged", "SingularNewtonSystem", "UnsupportedDimensions", "ConfigError",
        "InexactKernel"),
    "system": (
        "ParametricSystem", "EvaluationPoint", "evaluation_point", "from_callable",
        "builtin_model", "system_from_expressions", "newton_full", "refine_equilibrium",
        "is_bifurcation_candidate"),
    "subspace": (
        "SubspaceDecomposition", "compute_decomposition", "projection_onto_range",
        "split_state"),
    # generic split certification
    "imft": (
        "SplitFunction", "split_function", "SupremumEstimator", "ImftQuantities",
        "compute_M", "estimate_L", "imft_quantities", "check_conditions", "certify_region",
        "witness_check", "WitnessResult", "CertifiedRegion", "RegionEntry", "FrontierPoint"),
    # kernel-split certification
    "ls_bounds": (
        "SplitSystem", "build_split_system", "compute_ls_M", "estimate_ls_L",
        "ls_quantities", "certify_ls_region", "check_ls_conditions"),
    "reduction": (
        "ReducedMap", "ReducedPoint", "solve_phi", "SeriesCoefficients",
        "series_coefficients", "classify_series", "BranchPoint", "TraceResult",
        "trace_branches", "in_certified_region", "region_note"),
    "config": ("RunConfig", "load_config", "parse_config", "build_system", "build_estimator"),
}
_SUBMODULES = (*_EXPORTS, "cli", "expr", "norms", "report", "sampling")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    # __import__ takes the interpreter's own import path, which -X importtime times
    if name in _HOME:
        value = getattr(__import__(_HOME[name], globals(), level=1), name)
    elif name in _SUBMODULES:
        value = __import__(name, globals(), level=1)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
