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


def _other_cell(value) -> str:
    return "%.17g" % value if isinstance(value, np.floating) else str(value)


# how csv_text writes a cell, by its type: None is empty, a float (numpy's
# too) goes through %.17g, and anything else (an int or a string) through str
_CELL = {
    type(None): lambda value: "",
    bool: lambda value: "true" if value else "false",
    float: "%.17g".__mod__,
}


def csv_text(header: list[str], rows: list[list]) -> str:
    """The CSV of the header and rows; tolist arrays first: a Python float is the fast cell."""
    buf = io.StringIO()
    writer = csv.writer(buf)  # RFC 4180: CRLF line ends, quoting only when needed
    writer.writerow(header)
    writer.writerows([_CELL.get(type(v), _other_cell)(v) for v in row] for row in rows)
    return buf.getvalue()


def trace_csv(trace, n_state: int) -> str:
    header = ["branch_id", "lambda", "alpha"] + [f"x_{i + 1}" for i in range(n_state)] \
        + ["residual_full"]
    rows = [[branch_id, p.lam, p.alpha, *p.x.tolist(), p.residual_full]
            for branch_id, branch in enumerate(trace.branches) for p in branch]
    return csv_text(header, rows)


def reduce_csv(alpha, lam, g, phi, failed, warnings) -> str:
    """The reduce table: a row per point of alpha (N, q) and lam (N, m) with its g (N, q),
    phi (N, n-q) and warning; the g and phi cells of the failed rows are empty."""
    q, m, n_perp = alpha.shape[1], lam.shape[1], phi.shape[1]
    header = [f"alpha_{i + 1}" for i in range(q)] + [f"lambda_{j + 1}" for j in range(m)] \
        + [f"g_{i + 1}" for i in range(q)] + [f"phi_{k + 1}" for k in range(n_perp)] \
        + ["warning"]
    rows = np.hstack([alpha, lam, g, phi]).tolist()
    for i in failed:
        rows[i][q + m:] = [None] * (q + n_perp)
    for row, warning in zip(rows, warnings):
        row.append(warning)
    return csv_text(header, rows)
