"""Parameterised nonlinear systems Phi(x, lambda) = 0 and their Jacobians.

A system bundles the residual map with one batched Jacobian callable;
from_callable adapts per-point Jacobian callables and fills missing ones by
central finite differences. Built-in models cover the cases used throughout
the tests and the CLI. Maps are assumed at least twice continuously
differentiable on the working region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .expr import sech_power
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
    `components`, when set. `jac_many` is the one Jacobian callable: it takes
    point stacks X (N, n) and Lam (N, m) and returns both blocks at every
    row, (N, k, n) and (N, k, m); the per-point blocks are its row 0 (see
    from_callable for per-point callables).
    """

    n: int
    m: int
    fun: ArrayFun
    jac_many: BatchJac
    name: str = "custom"
    components: int | None = None

    @property
    def k(self) -> int:
        """Number of residual components."""
        return self.n if self.components is None else self.components

    def phi(self, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        x, lam = self._check(x, lam)
        out = np.asarray(self.fun(x, lam), dtype=float).ravel()
        if out.shape != (self.k,):
            raise DimensionMismatch(f"residual has shape {out.shape}, expected ({self.k},)")
        return out

    def dphi_dx(self, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        return self._at_point(x, lam)[0]

    def dphi_dlambda(self, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        return self._at_point(x, lam)[1]

    def jacobians(self, X: np.ndarray, Lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both Jacobian blocks at each row of X (N, n) and Lam (N, m).

        Returns (N, k, n) and (N, k, m) arrays. dphi_dx and dphi_dlambda
        are row 0 of a one-point call.
        """
        X = np.asarray(X, dtype=float).reshape(-1, self.n)
        return self._batched(X, np.asarray(Lam, dtype=float).reshape(len(X), self.m))

    def _at_point(self, x, lam) -> tuple[np.ndarray, np.ndarray]:
        # skips the reshapes of jacobians: every per-point Newton step comes here
        x, lam = self._check(x, lam)
        jx, jl = self._batched(x[None], lam[None])
        return jx[0], jl[0]

    def _batched(self, X: np.ndarray, Lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        jx, jl = self.jac_many(X, Lam)
        want_x, want_l = (len(X), self.k, self.n), (len(X), self.k, self.m)
        if jx.shape != want_x or jl.shape != want_l:
            raise DimensionMismatch(f"batched Jacobians have shapes {jx.shape} and {jl.shape}, "
                                    f"expected {want_x} and {want_l}")
        return jx, jl

    def _check(self, x, lam) -> tuple[np.ndarray, np.ndarray]:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if x.shape != (self.n,):
            raise DimensionMismatch(f"state has shape {x.shape}, expected ({self.n},)")
        if lam.shape != (self.m,):
            raise DimensionMismatch(f"parameter has shape {lam.shape}, expected ({self.m},)")
        return x, lam


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
    derivatives.
    """
    x = np.asarray(x, dtype=float).ravel()
    lam = np.asarray(lam, dtype=float).ravel()
    base = np.asarray(fun(x, lam), dtype=float).ravel()
    k = base.size
    jx = np.empty((k, n))
    jl = np.empty((k, m))
    for i in range(n):
        h = rel_step * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        jx[:, i] = (np.asarray(fun(xp, lam), dtype=float).ravel()
                    - np.asarray(fun(xm, lam), dtype=float).ravel()) / (2 * h)
    for j in range(m):
        h = rel_step * max(1.0, abs(lam[j]))
        lp, lm_ = lam.copy(), lam.copy()
        lp[j] += h
        lm_[j] -= h
        jl[:, j] = (np.asarray(fun(x, lp), dtype=float).ravel()
                    - np.asarray(fun(x, lm_), dtype=float).ravel()) / (2 * h)
    if not (np.all(np.isfinite(jx)) and np.all(np.isfinite(jl))):
        raise NonFinite("finite-difference probe produced non-finite values")
    return jx, jl


def from_callable(
    fun: ArrayFun,
    n: int,
    m: int,
    jac_x: ArrayFun | None = None,
    jac_lambda: ArrayFun | None = None,
    name: str = "custom",
) -> ParametricSystem:
    """Wrap a residual callable and per-point Jacobian callables into a system.

    The batched Jacobian stacks the per-point blocks; the missing ones come
    from one fd_jacobians pass per point, shared by both blocks.
    """
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

    return ParametricSystem(n=n, m=m, fun=fun, jac_many=jac_many, name=name)


# --- built-in models ---------------------------------------------------------


def _tanh2() -> ParametricSystem:
    # coupled pair x1 = tanh(l x2), x2 = tanh(l x1); symmetric kernel at l = +-1
    def fun(x, lam):
        l = lam[0]
        return np.array([-x[0] + math.tanh(l * x[1]), -x[1] + math.tanh(l * x[0])])

    def jac_many(X, Lam):
        l = Lam[:, 0]
        # sech_power per element: numpy's cosh rounds differently from math.cosh
        s = [np.array([sech_power(v, 2) for v in (l * X[:, i]).tolist()]) for i in range(2)]
        jx = np.empty((len(X), 2, 2))
        jx[:, 0, 0] = jx[:, 1, 1] = -1.0
        jx[:, 0, 1] = l * s[1]
        jx[:, 1, 0] = l * s[0]
        jl = np.stack([X[:, 1] * s[1], X[:, 0] * s[0]], axis=1)[:, :, None]
        return jx, jl

    return ParametricSystem(n=2, m=1, fun=fun, jac_many=jac_many, name="tanh2")


def _pitchfork_normal_form() -> ParametricSystem:
    return from_callable(
        lambda x, lam: np.array([lam[0] * x[0] - x[0] ** 3]), 1, 1,
        jac_x=lambda x, lam: np.array([[lam[0] - 3.0 * x[0] ** 2]]),
        jac_lambda=lambda x, lam: np.array([[x[0]]]),
        name="pitchfork_normal_form")


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


_BUILTINS = ("tanh2", "pitchfork_normal_form", "linear")


def builtin_model(name: str, params: dict | None = None) -> ParametricSystem:
    """Construct a registered model. Raises UnknownModel for other names."""
    params = params or {}
    if name == "tanh2":
        return _tanh2()
    if name == "pitchfork_normal_form":
        return _pitchfork_normal_form()
    if name == "linear":
        return _linear(params)
    raise UnknownModel(f"unknown built-in model {name!r}; available: {', '.join(_BUILTINS)}")


def system_from_expressions(source: str, n: int, m: int,
                            components: int | None = None) -> ParametricSystem:
    """Build a system whose residual and Jacobians come from the DSL.

    The source has n components unless `components` says otherwise.
    """
    from . import expr as _expr

    names = _expr.default_names(n, m)
    asts = _expr.parse_components(source, n if components is None else components, *names)
    values = _expr.compile_values(asts, names)
    duals = _expr.compile_duals(asts, n, m, names)

    def fun(x, lam):
        return values(x.tolist(), lam.tolist())

    def jac_many(X, Lam):
        return duals(X, Lam)[1:]

    return ParametricSystem(n=n, m=m, fun=fun, jac_many=jac_many, name="expr",
                            components=components)


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


def damped_newton(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    z0: np.ndarray,
    tol: float = 1e-12,
    max_iters: int = 50,
    max_backtracks: int = 30,
) -> np.ndarray:
    """Newton on residual(z) = 0 with halving backtracks; the package's one Newton loop.

    Each step takes the first t in 1, 1/2, 1/4, ... whose residual norm is
    finite and strictly smaller. Raises SingularNewtonSystem when a linear
    solve fails and NewtonDiverged when no step descends within
    max_backtracks or the residual is still above tol after max_iters steps.
    """
    z = np.array(z0, dtype=float)
    r = residual(z)
    rnorm = float(np.linalg.norm(r))
    for _ in range(max_iters):
        if rnorm <= tol:
            return z
        try:
            step = np.linalg.solve(jacobian(z), -r)
        except np.linalg.LinAlgError as exc:
            raise SingularNewtonSystem(
                f"Newton linear system is singular (residual {rnorm:.3e})") from exc
        t = 1.0
        for _ in range(max_backtracks):
            z_new = z + t * step
            r_new = residual(z_new)
            rnorm_new = float(np.linalg.norm(r_new))
            if np.isfinite(rnorm_new) and rnorm_new < rnorm:
                break
            t *= 0.5
        else:
            raise NewtonDiverged(
                f"no descent after {max_backtracks} backtracks (residual {rnorm:.3e})")
        z, r, rnorm = z_new, r_new, rnorm_new
    if rnorm <= tol:
        return z
    raise NewtonDiverged(
        f"residual {rnorm:.3e} above tolerance {tol:g} after {max_iters} iterations")


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
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    try:
        return damped_newton(lambda z: sys.phi(z, lam), lambda z: sys.dphi_dx(z, lam),
                             x, tol, max_iters, max_backtracks)
    except (SingularNewtonSystem, NewtonDiverged):
        return None


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
