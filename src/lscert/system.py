"""Parameterised nonlinear systems Phi(x, lambda) = 0 and their Jacobians.

A system bundles one batched residual callable with one batched Jacobian
callable; the per-point forms are their row 0. from_callable adapts
per-point callables and fills missing Jacobians by central finite
differences. damped_newton_many is the package's one Newton iteration, run
in lockstep over a stack of problems. Built-in models cover the cases used
throughout the tests and the CLI; all but `linear` are DSL source, built as
expression models are. Maps are assumed at least twice continuously
differentiable on the working region.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    NewtonDiverged,
    NonFinite,
    NonSingularJacobian,
    SingularNewtonSystem,
    UnknownModel,
)
from .subspace import DEFAULT_RANK_TOL, compute_decomposition

DEFAULT_EQUILIBRIUM_TOL = 1e-10

_FD_REL_STEP = float(np.cbrt(np.finfo(float).eps))

ArrayFun = Callable[[np.ndarray, np.ndarray], np.ndarray]
BatchJac = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class ParametricSystem:
    """Residual map with state dimension n and parameter dimension m.

    The residual has n components, except for the expression models of the
    generic split view (imft-certify), which have as many as y coordinates:
    `components`, when set. `fun_many` is the one residual callable: it
    takes point stacks X (N, n) and Lam (N, m) and returns the residual at
    every row, (N, k). `jac_many` is the one Jacobian callable: it takes the
    same stacks and returns both blocks at every row, (N, k, n) and
    (N, k, m). The per-point residual and blocks are row 0 of a one-point
    call (see from_callable for per-point callables). `jac_box`, which only
    DSL systems have, encloses both blocks over boxes: it takes the ends of N
    state and parameter boxes, (N, n), (N, n), (N, m) and (N, m), and returns
    ((lo, hi), (lo, hi)) of the two blocks, as interval.compile_boxes does.
    """

    n: int
    m: int
    fun_many: ArrayFun
    jac_many: BatchJac
    name: str = "custom"
    components: int | None = None
    jac_box: Callable | None = None

    @property
    def k(self) -> int:
        """Number of residual components."""
        return self.n if self.components is None else self.components

    def phi(self, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """The residual at one point: row 0 of residuals."""
        return self.residuals(*_one_point(x, lam))[0]

    def residuals(self, X: np.ndarray, Lam: np.ndarray) -> np.ndarray:
        """The residual at each row of X (N, n) and Lam (N, m), shape (N, k)."""
        X, Lam = self._stacks(X, Lam)
        out = self.fun_many(X, Lam)
        if out.shape != (len(X), self.k):
            raise DimensionMismatch(f"batched residuals have shape {out.shape}, "
                                    f"expected {(len(X), self.k)}")
        return out

    def dphi_dx(self, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """The state Jacobian block at one point: row 0 of jacobians."""
        return self.jacobians(*_one_point(x, lam))[0][0]

    def dphi_dlambda(self, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """The parameter Jacobian block at one point: row 0 of jacobians."""
        return self.jacobians(*_one_point(x, lam))[1][0]

    def jacobians(self, X: np.ndarray, Lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both Jacobian blocks at each row of X (N, n) and Lam (N, m).

        Returns (N, k, n) and (N, k, m) arrays.
        """
        X, Lam = self._stacks(X, Lam)
        jx, jl = self.jac_many(X, Lam)
        want_x, want_l = (len(X), self.k, self.n), (len(X), self.k, self.m)
        if jx.shape != want_x or jl.shape != want_l:
            raise DimensionMismatch(f"batched Jacobians have shapes {jx.shape} and {jl.shape}, "
                                    f"expected {want_x} and {want_l}")
        return jx, jl

    def _stacks(self, X, Lam) -> tuple[np.ndarray, np.ndarray]:
        """X and Lam as float arrays, checked to be (N, n) and (N, m) point stacks."""
        X, Lam = np.asarray(X, dtype=float), np.asarray(Lam, dtype=float)
        for what, Z, width in (("state", X, self.n), ("parameter", Lam, self.m)):
            if Z.ndim != 2 or Z.shape[1:] != (width,):
                raise DimensionMismatch(f"{what} has shape {Z.shape[1:]}, expected ({width},)")
        if len(Lam) != len(X):
            raise DimensionMismatch(f"{len(X)} states but {len(Lam)} parameters")
        return X, Lam


def _one_point(x, lam) -> tuple[np.ndarray, np.ndarray]:
    """One point as one-row stacks; a scalar is a 1-vector."""
    return np.atleast_1d(x)[None], np.atleast_1d(lam)[None]


@dataclass(frozen=True)
class EvaluationPoint:
    """A candidate base point with its residual norm."""

    x0: np.ndarray
    lambda0: np.ndarray
    residual: float

    def is_equilibrium(self, tol: float = DEFAULT_EQUILIBRIUM_TOL) -> bool:
        return self.residual <= tol


def evaluation_point(sys: ParametricSystem, x0, lambda0) -> EvaluationPoint:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    lambda0 = np.atleast_1d(np.asarray(lambda0, dtype=float))
    res = float(np.linalg.norm(sys.phi(x0, lambda0)))
    if not np.isfinite(res):
        raise NonFinite("residual at the base point is not finite")
    return EvaluationPoint(x0=x0, lambda0=lambda0, residual=res)


def fd_jacobians(
    fun: ArrayFun,
    n: int,
    m: int,
    x: np.ndarray,
    lam: np.ndarray,
    rel_step: float = _FD_REL_STEP,
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference Jacobian blocks of fun at (x, lam).

    Per-coordinate step h_i = rel_step * max(1, |z_i|), the usual cube-root
    of machine epsilon balance between truncation and rounding for first
    derivatives. The component count is that of the first difference, so fun
    is called exactly 2 (n + m) times.
    """
    x = np.asarray(x, dtype=float).ravel()
    lam = np.asarray(lam, dtype=float).ravel()
    columns = []
    for z, shifted in ((x, lambda zs: fun(zs, lam)), (lam, lambda zs: fun(x, zs))):
        for i in range(z.size):
            h = rel_step * max(1.0, abs(z[i]))
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            columns.append((np.asarray(shifted(zp), dtype=float).ravel()
                            - np.asarray(shifted(zm), dtype=float).ravel()) / (2 * h))
    jac = np.array(columns, dtype=float).T
    if not np.all(np.isfinite(jac)):
        raise NonFinite("finite-difference probe produced non-finite values")
    return jac[:, :n], jac[:, n:]


def from_callable(
    fun: ArrayFun,
    n: int,
    m: int,
    jac_x: ArrayFun | None = None,
    jac_lambda: ArrayFun | None = None,
    name: str = "custom",
) -> ParametricSystem:
    """Wrap a residual callable and per-point Jacobian callables into a system.

    The batched residual and Jacobians stack the per-point ones; the missing
    blocks come from one fd_jacobians pass per point, shared by both blocks.
    """
    def fun_many(X, Lam):
        out = np.empty((len(X), n))
        for i, (x, lam) in enumerate(zip(X, Lam)):
            r = np.asarray(fun(x, lam), dtype=float).ravel()
            if r.shape != (n,):
                raise DimensionMismatch(f"residual has shape {r.shape}, expected ({n},)")
            out[i] = r
        return out

    def blocks(x, lam):
        fd = fd_jacobians(fun, n, m, x, lam) if jac_x is None or jac_lambda is None else None
        jx = np.asarray(fd[0] if jac_x is None else jac_x(x, lam), dtype=float)
        jl = np.asarray(fd[1] if jac_lambda is None else jac_lambda(x, lam), dtype=float)
        if jx.shape != (n, n):
            raise DimensionMismatch(f"state Jacobian has shape {jx.shape}, expected {(n, n)}")
        if jl.size != n * m:
            raise DimensionMismatch(f"parameter Jacobian has shape {jl.shape}, expected {(n, m)}")
        return jx, jl.reshape(n, m)

    def jac_many(X, Lam):
        jx, jl = np.empty((len(X), n, n)), np.empty((len(X), n, m))
        for i, (x, lam) in enumerate(zip(X, Lam)):
            jx[i], jl[i] = blocks(x, lam)
        return jx, jl

    return ParametricSystem(n=n, m=m, fun_many=fun_many, jac_many=jac_many, name=name)


# --- built-in models ---------------------------------------------------------


# DSL source, n and m of each built-in model but linear, which stays a
# callable because its tests hold it to the BLAS-rounded A @ x + b @ lam.
# tanh2 is the coupled pair x1 = tanh(l x2), x2 = tanh(l x1), with a
# symmetric kernel at l = +-1
_SOURCES = {
    "tanh2": ("-x1 + tanh(l1*x2); -x2 + tanh(l1*x1)", 2, 1),
    "pitchfork_normal_form": ("l1*x1 - x1^3", 1, 1),
}


def _linear(params: dict) -> ParametricSystem:
    if "A" not in params or "b" not in params:
        raise UnknownModel("linear model requires params A (n x n) and b (n x m)")
    a = np.asarray(params["A"], dtype=float)
    b = np.asarray(params["b"], dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"A must be square, got shape {a.shape}")
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"b has {b.shape[0]} rows, expected {a.shape[0]}")
    return from_callable(lambda x, lam: a @ x + b @ lam, a.shape[0], b.shape[1],
                         jac_x=lambda x, lam: a, jac_lambda=lambda x, lam: b, name="linear")


_BUILTINS = (*_SOURCES, "linear")


def builtin_model(name: str, params: dict | None = None) -> ParametricSystem:
    """Construct a registered model. Raises UnknownModel for other names."""
    if name in _SOURCES:
        return replace(system_from_expressions(*_SOURCES[name]), name=name)
    if name == "linear":
        return _linear(params or {})
    raise UnknownModel(f"unknown built-in model {name!r}; available: {', '.join(_BUILTINS)}")


def system_from_expressions(source: str, n: int, m: int,
                            components: int | None = None) -> ParametricSystem:
    """Build a system whose residual and Jacobians come from the DSL.

    The source has n components unless `components` says otherwise. The
    Jacobian enclosure over boxes (jac_box) is compiled on its first call,
    so building a model does not load the interval module.
    """
    from . import expr as _expr

    names = _expr.default_names(n, m)
    asts = _expr.parse_components(source, n if components is None else components, *names)
    values = _expr.compile_values(asts, names)
    duals = _expr.compile_duals(asts, n, m, names, with_values=False)
    boxes = []

    def jac_many(X, Lam):
        return duals(X, Lam)[1:]

    def jac_box(*ends):
        if not boxes:
            from .interval import compile_boxes
            boxes.append(compile_boxes(asts, n, m))
        return boxes[0](*ends)

    return ParametricSystem(n=n, m=m, fun_many=values, jac_many=jac_many, name="expr",
                            components=components, jac_box=jac_box)


def is_bifurcation_candidate(
    sys: ParametricSystem,
    point: EvaluationPoint,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> tuple[bool, int]:
    """Whether the Jacobian at the point has a kernel, and its dimension."""
    jac = sys.dphi_dx(point.x0, point.lambda0)
    try:
        decomp = compute_decomposition(jac, rank_tol)
    except NonSingularJacobian:
        return False, 0
    return True, decomp.q


def row_norms(R: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of R (N, k), bit for bit np.linalg.norm of the row."""
    return np.sqrt((R[:, None, :] @ R[:, :, None])[:, 0, 0])


def _newton_steps(J: np.ndarray, R: np.ndarray, rnorm: np.ndarray):
    """Steps solving J[i] s = -R[i], and {row: SingularNewtonSystem} for failed solves.

    One stacked solve gives each row the bits of its own solve; when it
    raises, the rows are solved one by one to find the singular ones.
    """
    try:
        return np.linalg.solve(J, -R[:, :, None])[:, :, 0], {}
    except np.linalg.LinAlgError:
        steps, singular = np.empty_like(R), {}
        for i in range(len(R)):
            try:
                steps[i] = np.linalg.solve(J[i], -R[i])
            except np.linalg.LinAlgError as exc:
                singular[i] = SingularNewtonSystem(
                    f"Newton linear system is singular (residual {rnorm[i]:.3e})")
                singular[i].__cause__ = exc
        return steps, singular


def damped_newton_many(
    residual: Callable[[np.ndarray, np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray],
    Z0: np.ndarray,
    tol: float = 1e-12,
    max_iters: int = 50,
    max_backtracks: int = 30,
) -> tuple[np.ndarray, dict[int, Exception]]:
    """Newton on residual(z) = 0 with halving backtracks, in lockstep over the rows of Z0.

    The package's one Newton loop. residual(Z, rows) and jacobian(Z, rows)
    take the iterates Z of the rows `rows` (indices into Z0) and return
    (len(rows), k) and (len(rows), k, k). Each step takes the first t in 1,
    1/2, 1/4, ... whose residual norm is finite and strictly smaller. Every
    row follows the iterates it would follow alone, bit for bit.

    A row is never evaluated again once it has converged, so the last
    residual call that held a solved row was made at the iterate returned
    for it, with the same floats: a caller may keep what that call computed
    at the row instead of evaluating there again.

    Returns the final iterates and {row: error} for the rows that failed:
    SingularNewtonSystem when the row's linear solve fails, NewtonDiverged
    when no step descends within max_backtracks or its residual is still
    above tol after max_iters steps.
    """
    Z = np.array(Z0, dtype=float)
    errors: dict[int, Exception] = {}
    rows = np.arange(len(Z))
    if not len(Z):
        return Z, errors
    R = residual(Z, rows)
    rnorm = row_norms(R)
    for _ in range(max_iters):
        live = ~(rnorm <= tol)  # a NaN norm has not converged
        rows, R, rnorm = rows[live], R[live], rnorm[live]
        if not len(rows):
            break
        steps, singular = _newton_steps(jacobian(Z[rows], rows), R, rnorm)
        for i, exc in singular.items():
            errors[int(rows[i])] = exc
        moved = np.zeros(len(rows), dtype=bool)
        pending = np.array([i for i in range(len(rows)) if i not in singular], dtype=int)
        t = np.ones(len(rows))
        for _ in range(max_backtracks):
            if not len(pending):
                break
            trial = Z[rows[pending]] + t[pending, None] * steps[pending]
            r_trial = residual(trial, rows[pending])
            n_trial = row_norms(r_trial)
            down = np.isfinite(n_trial) & (n_trial < rnorm[pending])
            took = pending[down]
            Z[rows[took]], R[took], rnorm[took] = trial[down], r_trial[down], n_trial[down]
            moved[took] = True
            pending = pending[~down]
            t[pending] *= 0.5
        for i in pending:
            errors[int(rows[i])] = NewtonDiverged(
                f"no descent after {max_backtracks} backtracks (residual {rnorm[i]:.3e})")
        rows, R, rnorm = rows[moved], R[moved], rnorm[moved]
    for i, rn in zip(rows, rnorm):
        if not rn <= tol:
            errors[int(i)] = NewtonDiverged(
                f"residual {rn:.3e} above tolerance {tol:g} after {max_iters} iterations")
    return Z, errors


def newton_full(
    sys: ParametricSystem,
    x: np.ndarray,
    lam: np.ndarray,
    tol: float = 1e-12,
    max_iters: int = 50,
    max_backtracks: int = 30,
) -> np.ndarray | None:
    """Damped Newton on the full system at fixed parameter.

    Returns the solution or None when it stalls or hits a singular linear
    system; callers sweeping many start points treat None as 'no root from
    here'.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))[None]
    z, errors = damped_newton_many(
        lambda Z, rows: sys.residuals(Z, lam), lambda Z, rows: sys.jacobians(Z, lam)[0],
        np.atleast_1d(np.asarray(x, dtype=float))[None], tol, max_iters, max_backtracks)
    return None if errors else z[0]


def refine_equilibrium(
    sys: ParametricSystem,
    x0,
    lambda0,
    tol: float = DEFAULT_EQUILIBRIUM_TOL,
) -> EvaluationPoint:
    """Newton-polish a base point whose residual exceeds the tolerance."""
    pt = evaluation_point(sys, x0, lambda0)
    if pt.residual <= tol:
        return pt
    refined = newton_full(sys, pt.x0, pt.lambda0, tol=min(tol, 1e-12))
    if refined is None:
        return pt  # caller decides; residual still carries the truth
    return evaluation_point(sys, refined, pt.lambda0)
