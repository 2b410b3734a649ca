"""Reduced bifurcation map on the kernel coordinates.

With the state split x = V alpha + Vperp beta, the range equations
W^T Phi = 0 are solved for beta = phi(alpha, lambda) by damped Newton, and
the reduced map

    g(alpha, lambda) = Wperp^T Phi(V alpha + Vperp phi(alpha, lambda), lambda)

carries the remaining q equations. Zeros of g correspond one-to-one with
equilibria of the full system inside the certified region; outside it the
correspondence is best effort and flagged.

phi is the solution in the certified ball around the base beta0, so the
grid paths (series, trace, the reduce table) seed every solve at beta0 and
run them in lockstep, many points per batched Newton.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedDimensions
from .ls_bounds import FrontierPoint, SplitSystem
from .norms import vector_norm
from .system import damped_newton_many, row_norms

DEGENERATE_TOL = 1e-12
DEFAULT_RESIDUAL_TOL = 1e-8
DEFAULT_ROOT_TOL = 1e-10
DEFAULT_ALPHA_SAMPLES = 401

# points per batched pass of the reduced map. Every residual and Jacobian
# call holds a few (N, n) arrays per point stack, and the Newton solve keeps
# the (N, n) states and (N, k) residuals of each row's last evaluation for
# the lift: unchunked, the 60,551-node trace benchmark peaked at 44.6 MB
# against 33.2 MB for the per-point loop, while chunks of 401 to 4,096
# points peaked at 34.6-34.8 MB
CHUNK_ROWS = 4096

_EPS = float(np.finfo(float).eps)


def _range_error(exc: Exception, alpha: np.ndarray, lam: np.ndarray) -> Exception:
    err = type(exc)(f"range block: {exc} at alpha={alpha}, lambda={lam}")
    err.__cause__ = exc
    return err


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
    return ReducedMap(ss, tol, max_iters, max_backtracks).phi(alpha, lam, beta_init)


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
    """Evaluator for g, each solve seeded at beta0 unless a call gives its own seed.

    g is a function of (alpha, lambda) alone: no call changes what a later
    one returns.
    """

    ss: SplitSystem
    newton_tol: float = 1e-12
    max_iters: int = 50
    max_backtracks: int = 30

    def phi(self, alpha, lam, beta_init: np.ndarray | None = None) -> np.ndarray:
        return self.evaluate(alpha, lam, beta_init).beta

    def g(self, alpha, lam, beta_init: np.ndarray | None = None) -> np.ndarray:
        return self.evaluate(alpha, lam, beta_init).g

    def evaluate(self, alpha, lam, beta_init: np.ndarray | None = None) -> ReducedPoint:
        """The reduced map at one point, its solve seeded at beta_init (default beta0)."""
        alpha = np.atleast_1d(np.asarray(alpha, dtype=float))[None]
        lam = np.atleast_1d(np.asarray(lam, dtype=float))[None]
        seed = None if beta_init is None else np.reshape(beta_init, (1, -1))
        batch = self._batch(alpha, lam, seed)
        if batch.errors:
            raise batch.errors[0]
        return batch.point(0)

    # The *_many forms evaluate at each row of alpha (N, q) and lam (N, m)
    # with every solve seeded at beta0. A failed Newton solve is that row's
    # entry in the returned errors, {row: error as solve_phi raises it}. Rows
    # run CHUNK_ROWS at a time, and a chunk that raises anything else is
    # replayed one row at a time, so the error that surfaces is the one of
    # the first failing row.

    def evaluate_many(self, alpha, lam) -> ReducedBatch:
        """evaluate at each row."""
        alpha, lam = np.asarray(alpha, dtype=float), np.asarray(lam, dtype=float)
        out = ReducedBatch(alpha=alpha, lam=lam, beta=np.empty((len(alpha), self.ss.n_perp)),
                           x=np.empty((len(alpha), self.ss.decomp.n)),
                           g=np.empty((len(alpha), self.ss.q)),
                           residual_full=np.empty(len(alpha)), errors={})
        for rows, part in self._chunks(len(alpha), lambda rows: (alpha[rows], lam[rows])):
            for name in ("beta", "x", "g", "residual_full"):
                getattr(out, name)[rows] = getattr(part, name)
            out.errors.update((rows.start + i, exc) for i, exc in part.errors.items())
        return out

    def g_grid(self, alphas, lambdas) -> tuple[np.ndarray, dict[int, Exception]]:
        """g at each (lambda, alpha) pair of alphas (S, q) and lambdas (L, m).

        Returns g as (L, S, q), NaN where the solve failed, and the errors
        keyed by the lambda-major row index. The pairs are built a chunk at
        a time and only g is kept, so a whole grid costs little more memory
        than its output.
        """
        alphas, lambdas = np.asarray(alphas, dtype=float), np.asarray(lambdas, dtype=float)
        count = len(alphas)

        def pairs(rows):
            i = np.arange(rows.start, rows.stop)
            return alphas[i % count], lambdas[i // count]

        g, errors = np.empty((len(lambdas) * count, self.ss.q)), {}
        for rows, part in self._chunks(len(g), pairs):
            g[rows] = part.g
            errors.update((rows.start + i, exc) for i, exc in part.errors.items())
        return g.reshape(len(lambdas), count, self.ss.q), errors

    def _chunks(self, total: int, points):
        """(rows, _batch of points(rows)) for each CHUNK_ROWS slice of range(total)."""
        for start in range(0, total, CHUNK_ROWS):
            rows = slice(start, min(start + CHUNK_ROWS, total))
            try:
                part = self._batch(*points(rows))
            except Exception:
                for i in range(rows.start, rows.stop):
                    self._batch(*points(slice(i, i + 1)))
                raise
            yield rows, part

    def _batch(self, alpha, lam, seeds=None) -> ReducedBatch:
        """The reduced map at each row of alpha (N, q) and lam (N, m), solved in lockstep.

        Row i is seeded at seeds[i] (default beta0). g and the lifted
        residual norm come from each row's last residual evaluation, which
        for a solved row is at its beta (see damped_newton_many); failed
        rows hold NaN, and their errors name alpha and lambda.
        """
        ss = self.ss
        x, full = np.empty((len(alpha), ss.decomp.n)), np.empty((len(alpha), ss.sys.k))

        def residual(B, rows):
            x[rows], full[rows], range_part = ss.lifted_many(alpha[rows], B, lam[rows])
            return range_part

        beta, errors = damped_newton_many(
            residual, lambda B, rows: ss.jac_perp_many(alpha[rows], B, lam[rows]),
            np.broadcast_to(ss.beta0 if seeds is None else seeds, (len(alpha), ss.n_perp)),
            self.newton_tol, self.max_iters, self.max_backtracks)
        failed = sorted(errors)
        beta[failed] = x[failed] = full[failed] = np.nan
        return ReducedBatch(alpha=alpha, lam=lam, beta=beta, x=x,
                            g=(ss.decomp.Wperp.T[None] @ full[:, :, None])[..., 0],
                            residual_full=row_norms(full),
                            errors={i: _range_error(errors[i], alpha[i], lam[i]) for i in failed})


@dataclass(frozen=True)
class ReducedBatch:
    """The reduced map at each row of a point stack; failed rows hold NaN."""

    alpha: np.ndarray          # (N, q)
    lam: np.ndarray            # (N, m)
    beta: np.ndarray           # (N, n-q)
    x: np.ndarray              # (N, n)
    g: np.ndarray              # (N, q)
    residual_full: np.ndarray  # (N,)
    errors: dict               # {row: the Newton error solve_phi raises there}

    def point(self, i: int) -> ReducedPoint | None:
        """Row i as a ReducedPoint; None if its solve failed."""
        if i in self.errors:
            return None
        return ReducedPoint(alpha=self.alpha[i], lam=self.lam[i], beta=self.beta[i],
                            x=self.x[i], g=self.g[i],
                            residual_full=float(self.residual_full[i]))


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
    classification logic has no canonical form to match otherwise. All the
    offsets go through one evaluate_many call, each solve seeded at beta0;
    the first failing offset's error is raised.
    """
    ss = rm.ss
    if ss.q != 1 or ss.m != 1:
        raise UnsupportedDimensions(
            f"series expansion needs q = 1 kernel and m = 1 parameter, got q={ss.q}, m={ss.m}")
    a0 = float(ss.alpha0[0])
    l0 = float(ss.base.lambda0[0])

    h1 = _EPS ** (1.0 / 3.0) * max(1.0, abs(a0))
    h2 = _EPS ** (1.0 / 4.0) * max(1.0, abs(a0))
    h3 = _EPS ** (1.0 / 5.0) * max(1.0, abs(a0))
    k1 = _EPS ** (1.0 / 3.0) * max(1.0, abs(l0))
    k2 = _EPS ** (1.0 / 4.0) * max(1.0, abs(l0))
    offsets = [(h1, 0.0), (-h1, 0.0), (0.0, k1), (0.0, -k1), (h2, 0.0), (0.0, 0.0), (-h2, 0.0),
               (2.0 * h3, 0.0), (h3, 0.0), (-h3, 0.0), (-2.0 * h3, 0.0),
               (h2, k2), (h2, -k2), (-h2, k2), (-h2, -k2)]
    batch = rm.evaluate_many([[a0 + da] for da, _ in offsets], [[l0 + dl] for _, dl in offsets])
    if batch.errors:
        raise batch.errors[min(batch.errors)]
    values = dict(zip(offsets, batch.g[:, 0].tolist()))

    def g(da: float, dl: float = 0.0) -> float:
        return values[da, dl]

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


def _bisect_roots(rm: ReducedMap, lo, hi, g_lo, lam, tol: float):
    """Bisect every bracket [lo[i], hi[i]] of g(., lam[i]) to width tol, in lockstep.

    g(lo[i]) has the sign of g_lo[i] and g(hi[i]) the other one; each step
    is one evaluate_many call over the open brackets. Returns the roots, NaN
    where a failed solve inside the bracket drops it, and per bracket None
    or the (alpha, error) of that failure.
    """
    lo, hi, g_lo = lo.copy(), hi.copy(), g_lo.copy()
    root = np.full(len(lo), np.nan)
    stopped = np.zeros(len(lo), dtype=bool)  # by a failed solve or an exact zero
    failures: list[tuple[float, Exception] | None] = [None] * len(lo)
    for _ in range(200):
        live = np.flatnonzero(~stopped & ~(hi - lo <= tol))
        if not len(live):
            break
        mid = 0.5 * (lo[live] + hi[live])
        batch = rm.evaluate_many(mid[:, None], lam[live, None])
        g_mid, bad = batch.g[:, 0], np.zeros(len(live), dtype=bool)
        for j, exc in batch.errors.items():
            failures[live[j]], bad[j] = (float(mid[j]), exc), True
        hit = ~bad & (g_mid == 0.0)
        root[live[hit]] = mid[hit]
        stopped[live[bad | hit]] = True
        left = ~(bad | hit) & ((g_lo[live] < 0.0) != (g_mid < 0.0))
        right = ~(bad | hit | left)
        hi[live[left]] = mid[left]
        lo[live[right]], g_lo[live[right]] = mid[right], g_mid[right]
    root[~stopped] = 0.5 * (lo[~stopped] + hi[~stopped])
    return root, failures


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
    drops its root, as does a root whose lift fails; each lambda with
    failures gets one note. Every solve is seeded at beta0: the whole
    (lambda x alpha) grid is one g_grid call, the bisections of all lambdas
    run in lockstep, and all roots are lifted in one evaluate_many call.
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
    lams = np.array(lambda_values)
    count = len(grid)

    values, errors = rm.g_grid(grid[:, None], lams[:, None])
    values = values[:, :, 0]
    solved = np.ones(values.shape, dtype=bool)
    failed: list[list[tuple[float, Exception]]] = [[] for _ in lams]
    for i, exc in sorted(errors.items()):
        solved[divmod(i, count)] = False
        failed[i // count].append((float(grid[i % count]), exc))
    roots: list[list[float]] = [[] for _ in lams]
    for li, ai in zip(*np.nonzero(solved & (values == 0.0))):
        roots[li].append(float(grid[ai]))
    # a sign change between neighbours, neither of them a gap
    negative = values < 0.0
    change = solved[:, :-1] & solved[:, 1:] & (negative[:, :-1] != negative[:, 1:])
    degenerate = solved & (values != 0.0) & (np.abs(values) < DEGENERATE_TOL)
    degenerate[:, 1:] &= ~change
    degenerate[:, :-1] &= ~change
    notes_at: list[list[str]] = [[] for _ in lams]
    for li, ai in zip(*np.nonzero(degenerate)):
        notes_at[li].append(
            f"lambda={lams[li]:.6g}: |g({grid[ai]:.6g})| = {abs(values[li, ai]):.2e} "
            "without a sign change; possible degenerate root")

    bl, ba = np.nonzero(change & (values[:, :-1] != 0.0) & (values[:, 1:] != 0.0))
    bisected, bracket_failures = _bisect_roots(rm, grid[ba], grid[ba + 1], values[bl, ba],
                                               lams[bl], root_tol)
    for li, r, failure in zip(bl, bisected.tolist(), bracket_failures):
        if failure is not None:
            failed[li].append(failure)
        else:
            roots[li].append(r)
    for li, found in enumerate(roots):
        roots[li] = []
        for r in sorted(found):
            if not roots[li] or r - roots[li][-1] > 2.0 * root_tol:
                roots[li].append(r)

    owner = np.repeat(np.arange(len(lams)), [len(found) for found in roots])
    flat = np.array([r for found in roots for r in found])
    lifted = rm.evaluate_many(flat[:, None], lams[owner, None])
    points_at: list[list[BranchPoint]] = [[] for _ in lams]
    dropped_at: list[list[str]] = [[] for _ in lams]
    for i, (li, r) in enumerate(zip(owner, flat.tolist())):
        pt = lifted.point(i)
        if pt is None:
            failed[li].append((r, lifted.errors[i]))
        elif pt.residual_full > residual_tol:
            dropped_at[li].append(
                f"lambda={lams[li]:.6g}: root alpha={r:.6g} dropped, lifted residual "
                f"{pt.residual_full:.2e} exceeds {residual_tol:g}")
        else:
            points_at[li].append(BranchPoint(lam=lambda_values[li], alpha=r, beta=pt.beta,
                                             x=pt.x, g_value=float(pt.g[0]),
                                             residual_full=pt.residual_full))

    branches: list[list[BranchPoint]] = []
    last_alpha: list[float | None] = []  # None once a branch has gone inactive
    notes: list[str] = []
    for lam, degenerate_notes, failures, dropped, points in zip(
            lambda_values, notes_at, failed, dropped_at, points_at):
        notes += degenerate_notes
        if failures:
            notes.append(failure_note(lam, failures))
        notes += dropped
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
    weights: np.ndarray | None = None,
) -> str | None:
    """Warning string when (alpha, lambda, beta) leaves the certified region.

    r_par is measured as the certified ball is, ||(par - c)/w|| with the
    run's parallel weights w (default all ones).
    """
    par = np.concatenate([np.atleast_1d(np.asarray(alpha, float)),
                          np.atleast_1d(np.asarray(lam, float))]) - ss.par_center
    r_par_pt = vector_norm(par if weights is None else par / weights, norm_kind)
    r_perp_pt = vector_norm(np.atleast_1d(np.asarray(beta, float)) - ss.beta0, norm_kind)
    if in_certified_region(frontier, r_par_pt, r_perp_pt):
        return None
    return (f"point at distance (r_par={r_par_pt:.6g}, r_perp={r_perp_pt:.6g}) from the base "
            "lies outside the certified region; the zero correspondence is not guaranteed here")
