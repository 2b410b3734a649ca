"""Correctness checks applied to the output of every benchmark op.

Every seed:
  * certify reports: both margins are recomputed from the report's M and L
    values with the strict formula, and each verdict must equal
    "both recomputed margins > 0"; the exit code must match the verdicts;
  * trace CSV: every lifted residual is at most RESIDUAL_TOL, and the roots at
    each lambda match an independent scalar solve of s = tanh(lambda * s),
    whose roots are alpha = 0 and alpha = +-sqrt(2) s.

Seed 0 additionally compares with the outputs pinned in `reference/`:
verdicts and frontier identical, M and L within L_REL_TOL; trace branch ids,
per-lambda root counts and roots within ROOT_TOL_SCALE.

Each check returns None when the output is correct, else a one-line reason.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict

# M and L may move in the last bits when a later change reorders arithmetic
L_REL_TOL = 1e-9
L_ABS_TOL = 1e-12
MARGIN_TOL = 1e-12
RESIDUAL_TOL = 1e-8
# trace_branches bisects roots to its default root_tol of 1e-10
ROOT_TOL_SCALE = 1e-9
ORACLE_TOL = 1e-8

CERTIFY_NAMES = {
    "ls-certify": (("r_par", "r_perp"), ("M_par", "M_perp"), ("L_par", "L_perp")),
    "imft-certify": (("r_x", "r_y"), ("M_x", "M_y"), ("L_x", "L_y")),
}


# --- extraction (shared with record_reference.py) -----------------------------


def certify_summary(command: str, report_path: str) -> dict:
    """The parts of a certify report the benchmark pins."""
    (rx, ry), (mx, my), (lx, ly) = CERTIFY_NAMES[command]
    with open(report_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    quantities = doc["quantities"]
    return {
        "M": [quantities[mx], quantities[my]],
        "L": [[row[rx], row[ry], row[lx], row[ly]] for row in quantities["deviation_bounds"]],
        "region": [[row[rx], row[ry], row["certified"], row["margin_domain"],
                    row["margin_contraction"]] for row in doc["region"]],
        "frontier": [[row[ry], row[f"{rx}_max"]] for row in doc["frontier"]],
    }


def trace_rows(csv_path: str) -> list[list[float]]:
    """Rows of a trace CSV as [branch_id, lambda, alpha, x_1, ..., residual]."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [[int(r[0])] + [float(v) for v in r[1:]] for r in rows[1:]]


# --- certify -----------------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= L_ABS_TOL + L_REL_TOL * abs(b)


def check_certify(command: str, report_path: str, exit_code: int, reference: dict | None) -> str | None:
    got = certify_summary(command, report_path)
    m_x, m_y = got["M"]
    bounds = {(r[0], r[1]): (r[2], r[3]) for r in got["L"]}
    any_certified = False
    for r_x, r_y, certified, md, mc in got["region"]:
        if (r_x, r_y) not in bounds:
            return f"no deviation bounds reported for radius pair ({r_x}, {r_y})"
        l_x, l_y = bounds[(r_x, r_y)]
        budget = math.inf if m_y == 0.0 else r_y / m_y
        domain = budget - m_x * r_x - (l_x * r_x + l_y * r_y)
        contraction = 1.0 - m_y * l_y
        if certified != (domain > 0.0 and contraction > 0.0):
            return (f"verdict {certified} at ({r_x}, {r_y}) contradicts recomputed margins "
                    f"({domain!r}, {contraction!r})")
        for name, mine, theirs in (("domain", domain, md), ("contraction", contraction, mc)):
            if abs(mine - theirs) > MARGIN_TOL * (1.0 + abs(mine)):
                return f"{name} margin at ({r_x}, {r_y}) is {theirs!r}, recomputed {mine!r}"
        any_certified = any_certified or certified
    expected_code = 0 if any_certified else 2
    if exit_code != expected_code:
        return f"exit code {exit_code}, expected {expected_code}"
    if reference is None:
        return None
    if [row[:3] for row in got["region"]] != [row[:3] for row in reference["region"]]:
        return "verdicts differ from the reference"
    if got["frontier"] != reference["frontier"]:
        return f"frontier {got['frontier']} differs from the reference {reference['frontier']}"
    if not all(_close(a, b) for a, b in zip(got["M"], reference["M"])):
        return f"M {got['M']} differs from the reference {reference['M']}"
    if len(got["L"]) != len(reference["L"]):
        return "deviation-bound table size differs from the reference"
    for mine, ref in zip(got["L"], reference["L"]):
        if mine[:2] != ref[:2] or not (_close(mine[2], ref[2]) and _close(mine[3], ref[3])):
            return f"deviation bounds {mine} differ from the reference {ref}"
    return None


# --- trace -------------------------------------------------------------------


def tanh2_fixed_point(lam: float) -> float:
    """Positive root of s = tanh(lam * s) for lam > 1, by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - math.tanh(lam * mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_trace(csv_path: str, exit_code: int, config: dict, reference: list | None) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    rows = trace_rows(csv_path)
    if not rows:
        return "trace wrote no points"
    worst = max(r[-1] for r in rows)
    if not worst <= RESIDUAL_TOL:
        return f"lifted residual {worst:.3e} exceeds {RESIDUAL_TOL:g}"
    section = config["trace"]
    # the trivial root alpha = 0 is always there; the pair +-sqrt(2) s appears
    # for lambda > 1, and counts as resolvable once it is two grid steps out
    grid_step = (section["alpha_max"] - section["alpha_min"]) / (section["alpha_samples"] - 1)
    by_lambda = defaultdict(list)
    for r in rows:
        by_lambda[r[1]].append(r)
    for lam, pts in by_lambda.items():
        s = tanh2_fixed_point(lam) if lam > 1.0 else 0.0
        expected = [0.0] if s == 0.0 else [-math.sqrt(2.0) * s, 0.0, math.sqrt(2.0) * s]
        resolvable = s == 0.0 or math.sqrt(2.0) * s > 2.0 * grid_step
        if len(pts) != len(expected) and (resolvable or len(pts) != 1):
            return f"{len(pts)} root(s) at lambda={lam!r}, expected {len(expected)}"
        for p in pts:
            alpha, x = p[2], p[3:-1]
            target = min(expected, key=lambda a: abs(a - alpha))
            if abs(alpha - target) > ORACLE_TOL or \
                    any(abs(v - target / math.sqrt(2.0)) > ORACLE_TOL for v in x):
                return f"root alpha={alpha!r}, x={x} at lambda={lam!r} is off the fixed point"
    if reference is None:
        return None
    if len(rows) != len(reference):
        return f"{len(rows)} points, reference has {len(reference)}"
    if len({r[0] for r in rows}) != len({r[0] for r in reference}):
        return "branch count differs from the reference"
    for mine, ref in zip(rows, reference):
        if mine[0] != ref[0] or mine[1] != ref[1]:
            return f"point {mine[:3]} does not line up with the reference {ref[:3]}"
        if any(abs(a - b) > ROOT_TOL_SCALE for a, b in zip(mine[2:-1], ref[2:-1])):
            return f"root {mine[2:-1]} differs from the reference {ref[2:-1]}"
    return None
