"""Command line: certify, reduce and trace from a JSON config.

Four subcommands share one config schema (see config.py):

* ls-certify    kernel-split certification at a singular equilibrium
* imft-certify  generic split-variable certification at a regular point
* reduce        tabulate the reduced map g on an (alpha, lambda) grid
* trace         march lambda and follow the zero branches of g

Exit codes: 0 when the command succeeded (for the certify commands: at least
one radius pair certified), 2 when a certify run completed but nothing was
certified, 1 on any error. Reports go to --out as JSON (stdout when --out is
omitted); --csv adds a flat export next to it. A reduce or trace point whose
Newton solve fails is left empty, with one note per lambda on stderr.

reduce and trace import the reduction module when they run, so the certify
commands never load it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import ls_bounds, report
from .config import (
    ConfigError,
    ImftSection,
    ModelConfig,
    RunConfig,
    build_estimator,
    build_system,
    load_config,
)
from .errors import ArityError, DimensionMismatch, LscertError, ParseError, UnknownIdentifier
from .imft import SplitFunction, certify_grid, imft_quantities, index_split
from .system import evaluation_point

if TYPE_CHECKING:
    from . import reduction

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CERTIFIED = 2


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_report(args, doc: dict, region, csv_names) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    _write_text(args.out, text)
    if args.csv is not None:
        _write_text(args.csv, report.region_csv(region, csv_names))


def _require(section, name: str):
    if section is None:
        raise ConfigError(name, "section is required by this command")
    return section


def _base_point(cfg: RunConfig):
    bp = _require(cfg.base_point, "base_point")
    if not bp.x0:
        raise ConfigError("base_point.x0", "missing required key")
    return bp


def _split_system_from(cfg: RunConfig) -> ls_bounds.SplitSystem:
    bp = _base_point(cfg)
    sys_ = build_system(cfg.model)
    if len(bp.x0) != sys_.n:
        raise ConfigError("base_point.x0", f"expected {sys_.n} component(s), got {len(bp.x0)}")
    if len(bp.lambda0) != sys_.m:
        raise ConfigError("base_point.lambda0",
                          f"expected {sys_.m} component(s), got {len(bp.lambda0)}")
    point = evaluation_point(sys_, bp.x0, bp.lambda0)
    return ls_bounds.build_split_system(sys_, point, cfg.rank_tol, cfg.equilibrium_tol)


def _weights(cfg: RunConfig, expected: int, what: str = "") -> np.ndarray | None:
    """The parallel weights, checked to be one per x coordinate (`what` names the count)."""
    if cfg.parallel_weights is None:
        return None
    if len(cfg.parallel_weights) != expected:
        raise ConfigError("parallel_weights",
                          f"expected {what}{expected} weight(s), got {len(cfg.parallel_weights)}")
    return np.asarray(cfg.parallel_weights, dtype=float)


def _cmd_ls_certify(args) -> int:
    cfg = load_config(args.config)
    section = _require(cfg.certify, "certify")
    ss = _split_system_from(cfg)
    estimator = build_estimator(cfg.estimator, ("rpar", "rperp"))
    weights = _weights(cfg, ss.q + ss.m, "q + m = ")
    region, quantities = ls_bounds.certify_ls_region(
        ss, section.r_par_grid, section.r_perp_grid, estimator, cfg.norm, weights)
    meta = report.make_meta("ls-certify", cfg.raw, cfg.norm, estimator.mode, region.rigorous,
                            quantities.base_residual)
    doc = report.certification_report(
        meta,
        report.decomposition_dict(ss.decomp),
        report.quantities_dict(
            quantities.M_par, quantities.M_perp, quantities.L_par, quantities.L_perp,
            section.r_par_grid, section.r_perp_grid, cfg.norm,
            quantities.L_par_rigorous, quantities.L_perp_rigorous),
        report.region_rows(region),
        report.frontier_rows(region),
    )
    _emit_report(args, doc, region, ("r_par", "r_perp"))
    if args.out is not None:
        total = len(region.entries)
        good = sum(1 for e in region.entries if e.certified)
        best = region.max_certified_r_par()
        print(f"certified {good} of {total} radius pairs"
              + (f"; max certified r_par = {best:.6g}" if best is not None else "")
              + f"; rigorous = {str(region.rigorous).lower()}")
    return EXIT_OK if region.any_certified else EXIT_NOT_CERTIFIED


def _combined_split(model: ModelConfig, section: ImftSection, bp) -> SplitFunction:
    """The index split of the model over the combined (state ++ parameter) vector.

    An expression model has one component per y coordinate; a builtin has
    its own n, which y_indices must match.
    """
    try:
        sys_ = build_system(model, components=len(section.y_indices))
    except (ParseError, ArityError, UnknownIdentifier) as exc:
        raise ConfigError("model.source", str(exc)) from exc
    try:
        f = index_split(sys_, section.x_indices, section.y_indices)
    except DimensionMismatch as exc:
        # the component count is checked first, then the partition
        key = "y_indices" if sys_.k != len(section.y_indices) else "x_indices"
        raise ConfigError(f"imft.{key}", str(exc)) from exc
    if len(bp.x0) != len(section.x_indices):
        raise ConfigError("base_point.x0",
                          f"expected {len(section.x_indices)} component(s), got {len(bp.x0)}")
    if len(bp.y0) != len(section.y_indices):
        raise ConfigError("base_point.y0",
                          f"expected {len(section.y_indices)} component(s), got {len(bp.y0)}")
    return f


def _cmd_imft_certify(args) -> int:
    cfg = load_config(args.config)
    section = _require(cfg.imft, "imft")
    bp = _require(cfg.base_point, "base_point")
    if not bp.y0:
        raise ConfigError("base_point.y0", "missing required key")
    f = _combined_split(cfg.model, section, bp)
    x0 = np.asarray(bp.x0, dtype=float)
    y0 = np.asarray(bp.y0, dtype=float)
    estimator = build_estimator(cfg.estimator, ("rx", "ry"))
    quantities = imft_quantities(f, x0, y0, estimator, cfg.norm, _weights(cfg, f.n_x))
    region = certify_grid(quantities, section.r_x_grid, section.r_y_grid)
    meta = report.make_meta("imft-certify", cfg.raw, cfg.norm, estimator.mode, region.rigorous)
    doc = report.certification_report(
        meta,
        None,
        report.quantities_dict(
            quantities.M_x, quantities.M_y, quantities.L_x, quantities.L_y,
            section.r_x_grid, section.r_y_grid, cfg.norm,
            quantities.L_x_rigorous, quantities.L_y_rigorous,
            names=("r_x", "r_y"), m_names=("M_x", "M_y"), l_names=("L_x", "L_y")),
        report.region_rows(region, ("r_x", "r_y")),
        report.frontier_rows(region, ("r_x", "r_y")),
    )
    _emit_report(args, doc, region, ("r_x", "r_y"))
    if args.out is not None:
        total = len(region.entries)
        good = sum(1 for e in region.entries if e.certified)
        print(f"certified {good} of {total} radius pairs; "
              f"rigorous = {str(region.rigorous).lower()}")
    return EXIT_OK if region.any_certified else EXIT_NOT_CERTIFIED


def _print_series(rm: reduction.ReducedMap) -> None:
    from . import reduction
    c = reduction.series_coefficients(rm)
    print("reduced map series at base point:")
    print(f"  g_alpha             = {c.g_alpha!r}")
    print(f"  g_lambda            = {c.g_lambda!r}")
    print(f"  g_alpha_alpha       = {c.g_alpha_alpha!r}")
    print(f"  g_alpha_alpha_alpha = {c.g_alpha_alpha_alpha!r}")
    print(f"  g_alpha_lambda      = {c.g_alpha_lambda!r}")
    print(f"classification: {reduction.classify_series(c)}")


def _frontier_for_warnings(cfg: RunConfig, ss: ls_bounds.SplitSystem):
    """Certified frontier for out-of-region warnings, when config allows it."""
    if cfg.certify is None:
        return None
    estimator = build_estimator(cfg.estimator, ("rpar", "rperp"))
    region, _ = ls_bounds.certify_ls_region(
        ss, cfg.certify.r_par_grid, cfg.certify.r_perp_grid,
        estimator, cfg.norm, _weights(cfg, ss.q + ss.m, "q + m = "))
    return region.frontier


def _cmd_reduce(args) -> int:
    from . import reduction
    cfg = load_config(args.config)
    section = _require(cfg.reduce, "reduce")
    ss = _split_system_from(cfg)
    nt = cfg.newton
    rm = reduction.ReducedMap(ss, nt.tol, nt.max_iters, nt.max_backtracks)
    _print_series(rm)
    frontier = _frontier_for_warnings(cfg, ss)
    alphas = np.linspace(section.alpha_min, section.alpha_max, section.alpha_samples)
    lams = np.repeat(np.asarray(section.lambda_values, dtype=float), len(alphas))
    batch = rm.evaluate_many(np.tile(alphas, len(section.lambda_values))[:, None], lams[:, None])
    rows, failed = [], {}
    for i, (alpha, lam) in enumerate(zip(batch.alpha[:, 0], lams)):
        point, warning = batch.point(i), None
        if point is None:
            failed.setdefault(i // len(alphas), []).append((float(alpha), batch.errors[i]))
        elif frontier is not None:
            warning = reduction.region_note(
                ss, frontier, point.alpha, point.lam, point.beta, cfg.norm)
        rows.append((alpha, lam, point, warning))
    for li, failures in failed.items():
        print(f"note: {reduction.failure_note(section.lambda_values[li], failures)}",
              file=sys.stderr)
    if args.out is not None:
        _write_text(args.out, report.reduce_csv(rows, ss.q, ss.m, ss.n_perp))
        print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_trace(args) -> int:
    from . import reduction
    cfg = load_config(args.config)
    section = _require(cfg.trace, "trace")
    ss = _split_system_from(cfg)
    nt = cfg.newton
    rm = reduction.ReducedMap(ss, nt.tol, nt.max_iters, nt.max_backtracks)
    _print_series(rm)
    count = int(np.floor((section.lambda_max - section.lambda_min) / section.lambda_step + 1e-9)) + 1
    lambda_values = [section.lambda_min + i * section.lambda_step for i in range(count)]
    result = reduction.trace_branches(
        rm, lambda_values, (section.alpha_min, section.alpha_max),
        alpha_samples=section.alpha_samples)
    for note in result.notes:
        print(f"note: {note}", file=sys.stderr)
    print(f"traced {result.n_branches} branch(es) over {count} parameter value(s)")
    if args.out is not None:
        _write_text(args.out, report.trace_csv(result, ss.decomp.n))
        total = sum(len(b) for b in result.branches)
        print(f"wrote {total} points to {args.out}")
    return EXIT_OK


def _add_common(sub: argparse.ArgumentParser, with_csv: bool) -> None:
    sub.add_argument("--config", required=True, help="path to the JSON run config")
    sub.add_argument("--out", default=None,
                     help="output file (JSON report for certify commands, CSV otherwise); "
                          "certify reports print to stdout when omitted")
    if with_csv:
        sub.add_argument("--csv", default=None, help="also write the region table as CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lscert",
        description="certified reduction of parameterised equilibrium systems")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("ls-certify",
                            help="certify the kernel-split reduction at a singular equilibrium")
    _add_common(p, with_csv=True)
    p.set_defaults(func=_cmd_ls_certify)

    p = commands.add_parser("imft-certify",
                            help="certify a generic split-variable implicit map")
    _add_common(p, with_csv=True)
    p.set_defaults(func=_cmd_imft_certify)

    p = commands.add_parser("reduce",
                            help="tabulate the reduced map on an (alpha, lambda) grid")
    _add_common(p, with_csv=False)
    p.set_defaults(func=_cmd_reduce)

    p = commands.add_parser("trace", help="follow zero branches of the reduced map")
    _add_common(p, with_csv=False)
    p.set_defaults(func=_cmd_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LscertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main_ls_certify(argv=None) -> int:
    return main(["ls-certify"] + (sys.argv[1:] if argv is None else list(argv)))


def main_imft_certify(argv=None) -> int:
    return main(["imft-certify"] + (sys.argv[1:] if argv is None else list(argv)))
