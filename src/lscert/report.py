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


def certificate_report(command: str, config_echo: dict, estimator_mode: str, q, region,
                       r_x_grid, r_y_grid, names: tuple[str, str] = ("r_par", "r_perp"),
                       decomposition=None) -> dict:
    """The report of one certify run: its quantities q (ImftQuantities) and region.

    Every key follows the radius names, each "r_" and a suffix: ("r_par",
    "r_perp") gives M_par, L_perp and r_par_max, ("r_x", "r_y") gives M_x,
    L_y and r_x_max. The deviation bounds are tabulated on the grids' sorted
    distinct radii, and the decomposition section is None unless a
    SubspaceDecomposition is given.
    """
    from . import __version__
    x_name, y_name = names
    m_x, m_y, l_x, l_y = (f"{kind}_{name[2:]}" for kind in "ML" for name in names)
    table = [
        {x_name: rx, y_name: ry, l_x: q.L_x(rx), l_y: q.L_y(rx, ry)}
        for ry in sorted(set(float(r) for r in r_y_grid))
        for rx in sorted(set(float(r) for r in r_x_grid))
    ]
    return _jsonable({
        "meta": {
            "tool": "lscert",
            "version": __version__,
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "command": command,
            "norm": q.norm_kind,
            "estimator_mode": estimator_mode,
            "rigorous": region.rigorous,
            "base_residual": float(q.base_residual),
            "boundary_note": BOUNDARY_NOTE,
            "config": config_echo,
        },
        "decomposition": None if decomposition is None else {
            key: getattr(decomposition, key)
            for key in ("n", "q", "rank_tol", "singular_values", "V", "Vperp", "W", "Wperp")},
        "quantities": {
            m_x: q.M_x,
            m_y: q.M_y,
            "norm": q.norm_kind,
            f"{l_x}_rigorous": q.L_x_rigorous,
            f"{l_y}_rigorous": q.L_y_rigorous,
            "deviation_bounds": table,
        },
        "region": [
            {x_name: e.r_x, y_name: e.r_y, "certified": e.certified,
             "margin_domain": e.margin_domain, "margin_contraction": e.margin_contraction}
            for e in region.entries
        ],
        "frontier": [{y_name: f.r_y, f"{x_name}_max": f.r_x_max} for f in region.frontier],
    })


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
