"""Report serialization: one JSON shape plus flat CSV exports.

The JSON report is {meta, decomposition, quantities, region, frontier}.
Everything outside `meta` is a pure function of the validated config, so two
runs with the same config produce byte-identical non-meta sections; `meta`
carries the timestamp and config echo and is the part golden comparisons
must ignore. Floats go through repr in JSON (shortest lossless form) and
through %.17g in CSV.
"""

from __future__ import annotations

import csv
import datetime
import io

import numpy as np

BOUNDARY_NOTE = ("deviation suprema are taken over closed balls; "
                 "closed-ball boundary points are admissible sample points")


def fmt17(value: float) -> str:
    return format(float(value), ".17g")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def make_meta(command: str, config_echo: dict, norm_kind: str, estimator_mode: str,
              rigorous: bool, base_residual: float = 0.0) -> dict:
    """The meta section; base_residual is the term the domain margin subtracts."""
    from . import __version__
    return {
        "tool": "lscert",
        "version": __version__,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "command": command,
        "norm": norm_kind,
        "estimator_mode": estimator_mode,
        "rigorous": bool(rigorous),
        "base_residual": float(base_residual),
        "boundary_note": BOUNDARY_NOTE,
        "config": _jsonable(config_echo),
    }


def decomposition_dict(decomp) -> dict:
    return _jsonable({
        "n": decomp.n,
        "q": decomp.q,
        "rank_tol": decomp.rank_tol,
        "singular_values": decomp.singular_values,
        "V": decomp.V,
        "Vperp": decomp.Vperp,
        "W": decomp.W,
        "Wperp": decomp.Wperp,
    })


def quantities_dict(m_x: float, m_y: float, l_x, l_y, r_x_grid, r_y_grid,
                    norm_kind: str, rigorous_x: bool, rigorous_y: bool,
                    names: tuple[str, str] = ("r_par", "r_perp"),
                    m_names: tuple[str, str] = ("M_par", "M_perp"),
                    l_names: tuple[str, str] = ("L_par", "L_perp")) -> dict:
    """Base norms plus the deviation bounds tabulated on the radius grid."""
    table = [
        {names[0]: rx, names[1]: ry, l_names[0]: l_x(rx), l_names[1]: l_y(rx, ry)}
        for ry in sorted(set(float(r) for r in r_y_grid))
        for rx in sorted(set(float(r) for r in r_x_grid))
    ]
    return _jsonable({
        m_names[0]: m_x,
        m_names[1]: m_y,
        "norm": norm_kind,
        f"{l_names[0]}_rigorous": rigorous_x,
        f"{l_names[1]}_rigorous": rigorous_y,
        "deviation_bounds": table,
    })


def region_rows(region, names: tuple[str, str] = ("r_par", "r_perp")) -> list[dict]:
    return [
        {names[0]: e.r_x, names[1]: e.r_y, "certified": e.certified,
         "margin_domain": e.margin_domain, "margin_contraction": e.margin_contraction}
        for e in region.entries
    ]


def frontier_rows(region, names: tuple[str, str] = ("r_par", "r_perp")) -> list[dict]:
    return [
        {names[1]: f.r_y, f"{names[0]}_max": f.r_x_max}
        for f in region.frontier
    ]


def certification_report(meta: dict, decomposition: dict | None, quantities: dict,
                         region_list: list[dict], frontier_list: list[dict]) -> dict:
    return {
        "meta": meta,
        "decomposition": decomposition,
        "quantities": quantities,
        "region": _jsonable(region_list),
        "frontier": _jsonable(frontier_list),
    }


# --- CSV ---------------------------------------------------------------------


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt17(value)
    return str(value)


def csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)  # RFC 4180: CRLF line ends, quoting only when needed
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    return buf.getvalue()


def region_csv(region, names: tuple[str, str] = ("r_par", "r_perp")) -> str:
    header = [names[0], names[1], "certified", "margin_domain", "margin_contraction"]
    rows = [
        [e.r_x, e.r_y, e.certified, e.margin_domain, e.margin_contraction]
        for e in region.entries
    ]
    return csv_text(header, rows)


def trace_csv(trace, n_state: int) -> str:
    header = ["branch_id", "lambda", "alpha"] + [f"x_{i + 1}" for i in range(n_state)] \
        + ["residual_full"]
    rows = []
    for branch_id, branch in enumerate(trace.branches):
        for p in branch:
            rows.append([branch_id, p.lam, p.alpha] + list(p.x) + [p.residual_full])
    return csv_text(header, rows)


def reduce_csv(entries, q: int, m: int, n_perp: int) -> str:
    """Rows of (alpha, lambda, ReducedPoint or None, warning); None leaves g and phi empty."""
    header = [f"alpha_{i + 1}" for i in range(q)] + [f"lambda_{j + 1}" for j in range(m)] \
        + [f"g_{i + 1}" for i in range(q)] + [f"phi_{k + 1}" for k in range(n_perp)] \
        + ["warning"]
    rows = []
    for alpha, lam, point, warning in entries:
        solved = [None] * (q + n_perp) if point is None else list(point.g) + list(point.beta)
        rows.append(list(np.atleast_1d(np.asarray(alpha, dtype=float)))
                    + list(np.atleast_1d(np.asarray(lam, dtype=float)))
                    + solved + [warning or ""])
    return csv_text(header, rows)
