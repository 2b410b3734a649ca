"""Reduced bifurcation map on the kernel coordinates.

With the state split x = V alpha + Vperp beta, the range equations
W^T Phi = 0 are solved for beta = phi(alpha, lambda) by damped Newton, and
the reduced map

    g(alpha, lambda) = Wperp^T Phi(V alpha + Vperp phi(alpha, lambda), lambda)

carries the remaining q equations. Zeros of g correspond one-to-one with
equilibria of the full system inside the certified region; outside it the
correspondence is best effort and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NewtonDiverged, SingularNewtonSystem, UnsupportedDimensions
from .ls_bounds import FrontierPoint, SplitSystem
from .norms import vector_norm
from .system import damped_newton

DEGENERATE_TOL = 1e-12
DEFAULT_RESIDUAL_TOL = 1e-8
DEFAULT_ROOT_TOL = 1e-10
DEFAULT_ALPHA_SAMPLES = 401

_EPS = float(np.finfo(float).eps)


def solve_phi(
    ss: SplitSystem,
    alpha,
    lam,
    beta_init: np.ndarray | None = None,
    tol: float = 1e-12,
    max_iters: int = 50,
    max_backtracks: int = 30,
) -> np.ndarray:
    """Solve W^T Phi(V alpha + Vperp beta, lambda) = 0 for beta.

    Damped Newton with halving backtracks, seeded at beta_init (default the
    base beta0). Raises SingularNewtonSystem when a linear solve fails and
    NewtonDiverged when the iteration budget runs out above tolerance; both
    messages name alpha and lambda.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    try:
        return damped_newton(lambda beta: ss.evaluator(alpha, beta, lam),
                             lambda beta: ss.jac_perp(alpha, beta, lam),
                             ss.beta0 if beta_init is None else beta_init,
                             tol, max_iters, max_backtracks)
    except (SingularNewtonSystem, NewtonDiverged) as exc:
        raise type(exc)(f"range block: {exc} at alpha={alpha}, lambda={lam}") from exc


@dataclass(frozen=True)
class ReducedPoint:
    """One evaluation of the reduced map with its lifted full state."""

    alpha: np.ndarray
    lam: np.ndarray
    beta: np.ndarray
    x: np.ndarray
    g: np.ndarray
    residual_full: float


@dataclass
class ReducedMap:
    """Evaluator for g with natural-continuation warm starts.

    Successive calls reuse the previous beta as the Newton seed, which keeps
    solves cheap along parameter sweeps; reset_warm_start returns to beta0.
    """

    ss: SplitSystem
    newton_tol: float = 1e-12
    max_iters: int = 50
    max_backtracks: int = 30
    _warm_beta: np.ndarray | None = field(default=None, init=False, repr=False)

    def reset_warm_start(self) -> None:
        self._warm_beta = None

    def phi(self, alpha, lam, beta_init: np.ndarray | None = None) -> np.ndarray:
        seed = beta_init if beta_init is not None else self._warm_beta
        beta = solve_phi(self.ss, alpha, lam, seed, self.newton_tol,
                         self.max_iters, self.max_backtracks)
        self._warm_beta = beta
        return beta

    def g(self, alpha, lam, beta_init: np.ndarray | None = None) -> np.ndarray:
        return self.evaluate(alpha, lam, beta_init).g

    def evaluate(self, alpha, lam, beta_init: np.ndarray | None = None) -> ReducedPoint:
        alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        beta = self.phi(alpha, lam, beta_init)
        x = self.ss.state(alpha, beta)
        full = self.ss.sys.phi(x, lam)
        g = self.ss.decomp.Wperp.T @ full
        return ReducedPoint(alpha=alpha, lam=lam, beta=beta, x=x, g=g,
                            residual_full=float(np.linalg.norm(full)))


@dataclass(frozen=True)
class SeriesCoefficients:
    """Low-order derivatives of scalar g at the base point (q = m = 1)."""

    g_alpha: float
    g_lambda: float
    g_alpha_alpha: float
    g_alpha_alpha_alpha: float
    g_alpha_lambda: float


def series_coefficients(rm: ReducedMap) -> SeriesCoefficients:
    """Central-difference derivatives of g at (alpha0, lambda0).

    Step sizes follow the usual eps^(1/(k+2)) balance between truncation and
    roundoff for a k-th derivative. Only the scalar case is supported; the
    classification logic has no canonical form to match otherwise.
    """
    ss = rm.ss
    if ss.q != 1 or ss.m != 1:
        raise UnsupportedDimensions(
            f"series expansion needs q = 1 kernel and m = 1 parameter, got q={ss.q}, m={ss.m}")
    a0 = float(ss.alpha0[0])
    l0 = float(ss.base.lambda0[0])

    def g(da: float, dl: float = 0.0) -> float:
        rm.reset_warm_start()
        return float(rm.g(a0 + da, l0 + dl)[0])

    h1 = _EPS ** (1.0 / 3.0) * max(1.0, abs(a0))
    h2 = _EPS ** (1.0 / 4.0) * max(1.0, abs(a0))
    h3 = _EPS ** (1.0 / 5.0) * max(1.0, abs(a0))
    k1 = _EPS ** (1.0 / 3.0) * max(1.0, abs(l0))
    k2 = _EPS ** (1.0 / 4.0) * max(1.0, abs(l0))

    g_alpha = (g(h1) - g(-h1)) / (2.0 * h1)
    g_lambda = (g(0.0, k1) - g(0.0, -k1)) / (2.0 * k1)
    g_aa = (g(h2) - 2.0 * g(0.0) + g(-h2)) / h2 ** 2
    g_aaa = (g(2.0 * h3) - 2.0 * g(h3) + 2.0 * g(-h3) - g(-2.0 * h3)) / (2.0 * h3 ** 3)
    g_al = (g(h2, k2) - g(h2, -k2) - g(-h2, k2) + g(-h2, -k2)) / (4.0 * h2 * k2)
    return SeriesCoefficients(
        g_alpha=g_alpha, g_lambda=g_lambda, g_alpha_alpha=g_aa,
        g_alpha_alpha_alpha=g_aaa, g_alpha_lambda=g_al,
    )


def classify_series(
    c: SeriesCoefficients,
    zero_tol: float = 1e-6,
    nondegenerate_tol: float = 1e-3,
) -> str:
    """Name the local normal form suggested by the series coefficients.

    zero_tol absorbs finite-difference noise on coefficients that should
    vanish; nondegenerate_tol is the floor for coefficients that must not.
    """
    if abs(c.g_alpha) > zero_tol:
        return "regular"
    if abs(c.g_alpha_alpha) > nondegenerate_tol:
        return "fold"
    if abs(c.g_alpha_alpha) <= zero_tol and \
            abs(c.g_alpha_alpha_alpha) > nondegenerate_tol and \
            abs(c.g_alpha_lambda) > nondegenerate_tol:
        if c.g_alpha_alpha_alpha * c.g_alpha_lambda < 0.0:
            return "pitchfork_supercritical"
        return "pitchfork_subcritical"
    return "unclassified"


@dataclass(frozen=True)
class BranchPoint:
    lam: float
    alpha: float
    beta: np.ndarray
    x: np.ndarray
    g_value: float
    residual_full: float


@dataclass(frozen=True)
class TraceResult:
    """Branches of g = 0 over a parameter march, plus diagnostics."""

    branches: tuple[tuple[BranchPoint, ...], ...]
    notes: tuple[str, ...]
    lambda_values: tuple[float, ...]

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    def roots_at(self, lam: float) -> list[BranchPoint]:
        return [p for branch in self.branches for p in branch if p.lam == lam]


def _bisect_root(gfun, lo: float, hi: float, g_lo: float, g_hi: float, tol: float) -> float | None:
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        g_mid = gfun(mid)
        if g_mid is None:
            return None  # a failed solve inside the bracket drops its root
        if g_mid == 0.0:
            return mid
        if (g_lo < 0.0) != (g_mid < 0.0):
            hi, g_hi = mid, g_mid
        else:
            lo, g_lo = mid, g_mid
    return 0.5 * (lo + hi)


def _roots_at_lambda(gfun, lam, grid, values, root_tol, notes):
    """Roots of g on the alpha grid; a None value is a gap that brackets nothing."""
    roots: list[float] = []
    for i, (a, v) in enumerate(zip(grid, values)):
        if v == 0.0:
            roots.append(float(a))
        elif v is not None and abs(v) < DEGENERATE_TOL:
            left = i > 0 and values[i - 1] is not None and (values[i - 1] < 0.0) != (v < 0.0)
            right = i + 1 < len(values) and values[i + 1] is not None \
                and (v < 0.0) != (values[i + 1] < 0.0)
            if not (left or right):
                notes.append(
                    f"lambda={lam:.6g}: |g({a:.6g})| = {abs(v):.2e} without a sign change; "
                    "possible degenerate root")
    for i in range(len(grid) - 1):
        v0, v1 = values[i], values[i + 1]
        if None not in (v0, v1) and v0 != 0.0 and v1 != 0.0 and (v0 < 0.0) != (v1 < 0.0):
            roots.append(_bisect_root(gfun, float(grid[i]), float(grid[i + 1]), v0, v1, root_tol))
    roots = [r for r in roots if r is not None]
    roots.sort()
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > 2.0 * root_tol:
            deduped.append(r)
    return deduped


def failure_note(lam: float, failed: list[tuple[float, Exception]]) -> str:
    """The one note for a parameter value whose Newton solves failed at some alphas."""
    return (f"lambda={lam:.6g}: Newton failed at {len(failed)} alpha value(s), "
            f"left as gaps; first at alpha={failed[0][0]:.6g}: {failed[0][1]}")


def trace_branches(
    rm: ReducedMap,
    lambda_values,
    alpha_window: tuple[float, float],
    alpha_samples: int = DEFAULT_ALPHA_SAMPLES,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    root_tol: float = DEFAULT_ROOT_TOL,
    max_jump: float | None = None,
) -> TraceResult:
    """March lambda, locate zeros of g in alpha, and stitch them into branches.

    Per parameter value the reduced map is scanned on a uniform alpha grid;
    exact node zeros count as roots and strict sign changes are bisected to
    root_tol. Roots continue the nearest active branch (greedy matching up to
    max_jump, default a quarter of the window) or start a new one. Points
    whose lifted full residual exceeds residual_tol are dropped with a note.
    An alpha whose Newton solve fails is a gap, and a bisection that meets one
    drops its root; each lambda with failures gets one note.
    """
    if rm.ss.q != 1 or rm.ss.m != 1:
        raise UnsupportedDimensions(
            f"branch tracing needs q = 1 kernel and m = 1 parameter, "
            f"got q={rm.ss.q}, m={rm.ss.m}")
    lo, hi = float(alpha_window[0]), float(alpha_window[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"alpha_window must be a finite increasing pair, got {alpha_window}")
    if alpha_samples < 3:
        raise ValueError("alpha_samples must be at least 3")
    if max_jump is None:
        max_jump = 0.25 * (hi - lo)
    grid = np.linspace(lo, hi, alpha_samples)
    lambda_values = [float(l) for l in lambda_values]

    branches: list[list[BranchPoint]] = []
    last_alpha: list[float | None] = []  # None once a branch has gone inactive
    notes: list[str] = []
    for lam in lambda_values:
        rm.reset_warm_start()
        failed: list[tuple[float, Exception]] = []

        def gfun(a):
            try:
                return float(rm.g(a, lam)[0])
            except (NewtonDiverged, SingularNewtonSystem) as exc:
                failed.append((float(a), exc))
                return None

        values = [gfun(a) for a in grid]
        roots = _roots_at_lambda(gfun, lam, grid, values, root_tol, notes)
        if failed:
            notes.append(failure_note(lam, failed))
        points: list[BranchPoint] = []
        for r in roots:
            pt = rm.evaluate(r, lam)
            if pt.residual_full > residual_tol:
                notes.append(
                    f"lambda={lam:.6g}: root alpha={r:.6g} dropped, lifted residual "
                    f"{pt.residual_full:.2e} exceeds {residual_tol:g}")
                continue
            points.append(BranchPoint(lam=lam, alpha=r, beta=pt.beta, x=pt.x,
                                      g_value=float(pt.g[0]),
                                      residual_full=pt.residual_full))
        # greedy nearest-neighbour continuation
        active_before = {bi for bi, la in enumerate(last_alpha) if la is not None}
        candidates = sorted(
            (abs(p.alpha - last_alpha[bi]), bi, pi)
            for bi in active_before
            for pi, p in enumerate(points)
        )
        assignment: dict[int, int] = {}
        branch_used: set[int] = set()
        for dist, bi, pi in candidates:
            if dist > max_jump:
                break
            if bi in branch_used or pi in assignment:
                continue
            assignment[pi] = bi
            branch_used.add(bi)
        for pi, p in enumerate(points):
            bi = assignment.get(pi)
            if bi is None:
                branches.append([])
                last_alpha.append(None)
                bi = len(branches) - 1
            branches[bi].append(p)
            last_alpha[bi] = p.alpha
        for bi in active_before - branch_used:
            last_alpha[bi] = None  # branch ended; do not match across the gap
    return TraceResult(
        branches=tuple(tuple(b) for b in branches),
        notes=tuple(notes),
        lambda_values=tuple(lambda_values),
    )


def in_certified_region(
    frontier: tuple[FrontierPoint, ...],
    r_par_pt: float,
    r_perp_pt: float,
) -> bool:
    """Whether a point's radii are covered by some certified frontier entry."""
    return any(
        f.r_par_max is not None and r_par_pt <= f.r_par_max and r_perp_pt <= f.r_perp
        for f in frontier
    )


def region_note(
    ss: SplitSystem,
    frontier: tuple[FrontierPoint, ...],
    alpha,
    lam,
    beta,
    norm_kind: str = "spectral",
) -> str | None:
    """Warning string when (alpha, lambda, beta) leaves the certified region."""
    par = np.concatenate([np.atleast_1d(np.asarray(alpha, float)),
                          np.atleast_1d(np.asarray(lam, float))])
    r_par_pt = vector_norm(par - ss.par_center, norm_kind)
    r_perp_pt = vector_norm(np.atleast_1d(np.asarray(beta, float)) - ss.beta0, norm_kind)
    if in_certified_region(frontier, r_par_pt, r_perp_pt):
        return None
    return (f"point at distance (r_par={r_par_pt:.6g}, r_perp={r_perp_pt:.6g}) from the base "
            "lies outside the certified region; the zero correspondence is not guaranteed here")
