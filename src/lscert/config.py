"""Run configuration: strict JSON schema with field-path errors.

Unknown keys are rejected rather than ignored so that a typo cannot silently
fall back to a default. Every validation error names the offending field by
its dotted path (e.g. "estimator.samples_per_dim").

Analytic-override expressions for the deviation bounds are plain DSL strings
over the radius names: `rpar` / `rperp` for the kernel-split commands and
`rx` / `ry` for the generic split command. They are compiled once and
evaluated kink-safely (no derivatives are taken of overrides).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from . import expr as _expr
from .errors import ConfigError, LscertError
from .norms import NORM_KINDS
from .sampling import DEFAULT_SAMPLES_PER_DIM
from .subspace import DEFAULT_RANK_TOL
from .system import (
    DEFAULT_EQUILIBRIUM_TOL,
    ParametricSystem,
    builtin_model,
    system_from_expressions,
)

if TYPE_CHECKING:  # the engine is imported where an estimator is built
    from .imft import SupremumEstimator


# --- leaf validators ---------------------------------------------------------


def _as_dict(v: Any, path: str) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(path, f"expected an object, got {type(v).__name__}")
    return v


def _check_keys(d: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...]) -> None:
    for key in d:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}" if path else key,
                              f"unknown key (known keys: {', '.join(required + optional)})")
    for key in required:
        if key not in d:
            raise ConfigError(path or key, f"missing required key {key!r}")


def _as_str(v: Any, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(v, str):
        raise ConfigError(path, f"expected a string, got {type(v).__name__}")
    if choices is not None and v not in choices:
        raise ConfigError(path, f"expected one of {', '.join(choices)}, got {v!r}")
    return v


def _as_number(v: Any, path: str, minimum: float | None = None,
               strict_min: float | None = None) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(v).__name__}")
    out = float(v)
    if not np.isfinite(out):
        raise ConfigError(path, f"expected a finite number, got {out}")
    if minimum is not None and out < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {out}")
    if strict_min is not None and out <= strict_min:
        raise ConfigError(path, f"must be > {strict_min}, got {out}")
    return out


def _as_int(v: Any, path: str, minimum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(path, f"expected an integer, got {type(v).__name__}")
    if minimum is not None and v < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {v}")
    return v


def _as_number_list(v: Any, path: str, min_len: int = 1,
                    minimum: float | None = None) -> tuple[float, ...]:
    if not isinstance(v, list):
        raise ConfigError(path, f"expected an array, got {type(v).__name__}")
    if len(v) < min_len:
        raise ConfigError(path, f"expected at least {min_len} element(s), got {len(v)}")
    return tuple(_as_number(item, f"{path}[{i}]", minimum=minimum) for i, item in enumerate(v))


def _as_int_list(v: Any, path: str, minimum: int = 0) -> tuple[int, ...]:
    if not isinstance(v, list):
        raise ConfigError(path, f"expected an array, got {type(v).__name__}")
    return tuple(_as_int(item, f"{path}[{i}]", minimum=minimum) for i, item in enumerate(v))


# --- sections ----------------------------------------------------------------


@dataclass(frozen=True)
class ModelConfig:
    kind: str  # "builtin" | "expr"
    name: str = ""
    params: dict = field(default_factory=dict)
    source: str = ""
    n: int = 0
    m: int = 0


@dataclass(frozen=True)
class BasePointConfig:
    x0: tuple[float, ...] = ()
    lambda0: tuple[float, ...] = ()
    y0: tuple[float, ...] = ()  # generic split command only


@dataclass(frozen=True)
class EstimatorConfig:
    mode: str = "sampled"
    samples_per_dim: int = DEFAULT_SAMPLES_PER_DIM
    safety_factor: float = 1.0
    L_par: str | None = None
    L_perp: str | None = None
    L_x: str | None = None
    L_y: str | None = None


@dataclass(frozen=True)
class CertifySection:
    r_par_grid: tuple[float, ...]
    r_perp_grid: tuple[float, ...]


@dataclass(frozen=True)
class ImftSection:
    x_indices: tuple[int, ...]
    y_indices: tuple[int, ...]
    r_x_grid: tuple[float, ...]
    r_y_grid: tuple[float, ...]


@dataclass(frozen=True)
class ReduceSection:
    alpha_min: float
    alpha_max: float
    alpha_samples: int
    lambda_values: tuple[float, ...]


@dataclass(frozen=True)
class TraceSection:
    lambda_min: float
    lambda_max: float
    lambda_step: float
    alpha_min: float
    alpha_max: float
    alpha_samples: int = 401


@dataclass(frozen=True)
class NewtonSection:
    tol: float = 1e-12
    max_iters: int = 50
    max_backtracks: int = 30


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    base_point: BasePointConfig | None = None
    norm: str = "spectral"
    rank_tol: float = DEFAULT_RANK_TOL
    equilibrium_tol: float = DEFAULT_EQUILIBRIUM_TOL
    estimator: EstimatorConfig = EstimatorConfig()
    certify: CertifySection | None = None
    imft: ImftSection | None = None
    reduce: ReduceSection | None = None
    trace: TraceSection | None = None
    newton: NewtonSection = NewtonSection()
    parallel_weights: tuple[float, ...] | None = None
    raw: dict = field(default_factory=dict, repr=False)


def _parse_model(v: Any) -> ModelConfig:
    d = _as_dict(v, "model")
    kind = _as_str(d.get("kind"), "model.kind", choices=("builtin", "expr")) \
        if "kind" in d else _raise_missing("model.kind")
    if kind == "builtin":
        _check_keys(d, "model", ("kind", "name"), ("params",))
        params = _as_dict(d.get("params", {}), "model.params")
        return ModelConfig(kind="builtin", name=_as_str(d["name"], "model.name"), params=params)
    _check_keys(d, "model", ("kind", "source", "n", "m"), ())
    return ModelConfig(
        kind="expr",
        source=_as_str(d["source"], "model.source"),
        n=_as_int(d["n"], "model.n", minimum=1),
        m=_as_int(d["m"], "model.m", minimum=0),
    )


def _raise_missing(path: str):
    raise ConfigError(path, "missing required key")


def _parse_base_point(v: Any) -> BasePointConfig:
    d = _as_dict(v, "base_point")
    _check_keys(d, "base_point", (), ("x0", "lambda0", "y0"))
    return BasePointConfig(
        x0=_as_number_list(d["x0"], "base_point.x0") if "x0" in d else (),
        lambda0=_as_number_list(d["lambda0"], "base_point.lambda0", min_len=0)
        if "lambda0" in d else (),
        y0=_as_number_list(d["y0"], "base_point.y0") if "y0" in d else (),
    )


def _parse_estimator(v: Any) -> EstimatorConfig:
    d = _as_dict(v, "estimator")
    _check_keys(d, "estimator", (),
                ("mode", "samples_per_dim", "safety_factor", "L_par", "L_perp", "L_x", "L_y"))
    out = EstimatorConfig(
        mode=_as_str(d.get("mode", "sampled"), "estimator.mode", choices=("sampled", "analytic")),
        samples_per_dim=_as_int(d.get("samples_per_dim", DEFAULT_SAMPLES_PER_DIM),
                                "estimator.samples_per_dim", minimum=2),
        safety_factor=_as_number(d.get("safety_factor", 1.0), "estimator.safety_factor",
                                 minimum=1.0),
        L_par=_as_str(d["L_par"], "estimator.L_par") if "L_par" in d else None,
        L_perp=_as_str(d["L_perp"], "estimator.L_perp") if "L_perp" in d else None,
        L_x=_as_str(d["L_x"], "estimator.L_x") if "L_x" in d else None,
        L_y=_as_str(d["L_y"], "estimator.L_y") if "L_y" in d else None,
    )
    if out.mode == "analytic" and all(
            s is None for s in (out.L_par, out.L_perp, out.L_x, out.L_y)):
        raise ConfigError("estimator.mode",
                          "analytic mode requires at least one override expression")
    return out


def _parse_certify(v: Any) -> CertifySection:
    d = _as_dict(v, "certify")
    _check_keys(d, "certify", ("r_par_grid", "r_perp_grid"), ())
    return CertifySection(
        r_par_grid=_as_number_list(d["r_par_grid"], "certify.r_par_grid", minimum=0.0),
        r_perp_grid=_as_number_list(d["r_perp_grid"], "certify.r_perp_grid", minimum=0.0),
    )


def _parse_imft(v: Any) -> ImftSection:
    d = _as_dict(v, "imft")
    _check_keys(d, "imft", ("x_indices", "y_indices", "r_x_grid", "r_y_grid"), ())
    x_idx = _as_int_list(d["x_indices"], "imft.x_indices", minimum=0)
    y_idx = _as_int_list(d["y_indices"], "imft.y_indices", minimum=0)
    if not y_idx:
        raise ConfigError("imft.y_indices", "must not be empty")
    overlap = set(x_idx) & set(y_idx)
    if overlap:
        raise ConfigError("imft.y_indices", f"indices {sorted(overlap)} also appear in x_indices")
    if len(set(x_idx)) != len(x_idx) or len(set(y_idx)) != len(y_idx):
        raise ConfigError("imft.x_indices", "indices must be distinct")
    return ImftSection(
        x_indices=x_idx,
        y_indices=y_idx,
        r_x_grid=_as_number_list(d["r_x_grid"], "imft.r_x_grid", minimum=0.0),
        r_y_grid=_as_number_list(d["r_y_grid"], "imft.r_y_grid", minimum=0.0),
    )


def _parse_reduce(v: Any) -> ReduceSection:
    d = _as_dict(v, "reduce")
    _check_keys(d, "reduce", ("alpha_min", "alpha_max", "lambda_values"), ("alpha_samples",))
    lo = _as_number(d["alpha_min"], "reduce.alpha_min")
    hi = _as_number(d["alpha_max"], "reduce.alpha_max")
    if not lo < hi:
        raise ConfigError("reduce.alpha_max", f"must exceed alpha_min = {lo}, got {hi}")
    return ReduceSection(
        alpha_min=lo, alpha_max=hi,
        alpha_samples=_as_int(d.get("alpha_samples", 21), "reduce.alpha_samples", minimum=2),
        lambda_values=_as_number_list(d["lambda_values"], "reduce.lambda_values"),
    )


def _parse_trace(v: Any) -> TraceSection:
    d = _as_dict(v, "trace")
    _check_keys(d, "trace", ("lambda_min", "lambda_max", "lambda_step", "alpha_min", "alpha_max"),
                ("alpha_samples",))
    lmin = _as_number(d["lambda_min"], "trace.lambda_min")
    lmax = _as_number(d["lambda_max"], "trace.lambda_max")
    if not lmin <= lmax:
        raise ConfigError("trace.lambda_max", f"must be >= lambda_min = {lmin}, got {lmax}")
    alo = _as_number(d["alpha_min"], "trace.alpha_min")
    ahi = _as_number(d["alpha_max"], "trace.alpha_max")
    if not alo < ahi:
        raise ConfigError("trace.alpha_max", f"must exceed alpha_min = {alo}, got {ahi}")
    return TraceSection(
        lambda_min=lmin, lambda_max=lmax,
        lambda_step=_as_number(d["lambda_step"], "trace.lambda_step", strict_min=0.0),
        alpha_min=alo, alpha_max=ahi,
        alpha_samples=_as_int(d.get("alpha_samples", 401), "trace.alpha_samples", minimum=3),
    )


def _parse_newton(v: Any) -> NewtonSection:
    d = _as_dict(v, "newton")
    _check_keys(d, "newton", (), ("tol", "max_iters", "max_backtracks"))
    return NewtonSection(
        tol=_as_number(d.get("tol", 1e-12), "newton.tol", strict_min=0.0),
        max_iters=_as_int(d.get("max_iters", 50), "newton.max_iters", minimum=1),
        max_backtracks=_as_int(d.get("max_backtracks", 30), "newton.max_backtracks", minimum=1),
    )


_TOP_KEYS = ("model", "base_point", "norm", "rank_tol", "equilibrium_tol", "estimator",
             "certify", "imft", "reduce", "trace", "newton", "parallel_weights")


def parse_config(data: dict) -> RunConfig:
    """Validate a decoded JSON object into a RunConfig."""
    _as_dict(data, "<root>")
    _check_keys(data, "", ("model",), _TOP_KEYS[1:])
    return RunConfig(
        model=_parse_model(data["model"]),
        base_point=_parse_base_point(data["base_point"]) if "base_point" in data else None,
        norm=_as_str(data.get("norm", "spectral"), "norm", choices=NORM_KINDS),
        rank_tol=_as_number(data.get("rank_tol", DEFAULT_RANK_TOL), "rank_tol", strict_min=0.0),
        equilibrium_tol=_as_number(data.get("equilibrium_tol", DEFAULT_EQUILIBRIUM_TOL),
                                   "equilibrium_tol", strict_min=0.0),
        estimator=_parse_estimator(data["estimator"]) if "estimator" in data else EstimatorConfig(),
        certify=_parse_certify(data["certify"]) if "certify" in data else None,
        imft=_parse_imft(data["imft"]) if "imft" in data else None,
        reduce=_parse_reduce(data["reduce"]) if "reduce" in data else None,
        trace=_parse_trace(data["trace"]) if "trace" in data else None,
        newton=_parse_newton(data["newton"]) if "newton" in data else NewtonSection(),
        parallel_weights=_as_number_list(data["parallel_weights"], "parallel_weights",
                                         minimum=0.0) if "parallel_weights" in data else None,
        raw=data,
    )


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON in {path}: {exc}") from exc
    return parse_config(data)


# --- builders ----------------------------------------------------------------


def build_system(model: ModelConfig, components: int | None = None) -> ParametricSystem:
    """The model's system; `components` sets an expression model's component count
    (default n), while a builtin has its own."""
    try:
        if model.kind == "builtin":
            return builtin_model(model.name, model.params)
        return system_from_expressions(model.source, model.n, model.m, components)
    except LscertError:
        raise
    except ValueError as exc:
        raise ConfigError("model", str(exc)) from exc


def _compile_override(source: str, path: str, names: tuple[str, ...]):
    """Compile a radius-override expression into a float function."""
    try:
        asts = _expr.parse_components(source, 1, state_names=(), param_names=names)
    except LscertError as exc:
        raise ConfigError(path, f"invalid override expression: {exc}") from exc
    values = _expr.compile_values(asts, ((), names))

    def fn(*radii: float) -> float:
        return float(values(np.empty((1, 0)), np.array([radii], dtype=float))[0, 0])

    return fn


def build_estimator(est: EstimatorConfig, radius_names: tuple[str, str]) -> SupremumEstimator:
    """Turn the config section into an estimator for one command family.

    radius_names selects which override keys apply: ("rpar", "rperp") reads
    L_par/L_perp, ("rx", "ry") reads L_x/L_y. A config is free to carry both
    families; only the matching pair is compiled here.
    """
    if radius_names == ("rpar", "rperp"):
        src_x, src_y = est.L_par, est.L_perp
        key_x, key_y = "estimator.L_par", "estimator.L_perp"
    else:
        src_x, src_y = est.L_x, est.L_y
        key_x, key_y = "estimator.L_x", "estimator.L_y"
    override_x = _compile_override(src_x, key_x, radius_names[:1]) if src_x is not None else None
    override_y = _compile_override(src_y, key_y, radius_names) if src_y is not None else None
    mode = est.mode
    if mode == "analytic" and override_x is None and override_y is None:
        raise ConfigError(key_x, "analytic mode has no override for this command "
                                 f"(expected {key_x} and/or {key_y})")
    from .imft import SupremumEstimator
    return SupremumEstimator(
        mode=mode,
        samples_per_dim=est.samples_per_dim,
        safety_factor=est.safety_factor,
        override_L_x=override_x,
        override_L_y=override_y,
    )
