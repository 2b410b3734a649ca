"""Kernel-split certification as a thin layer over the imft engine.

At a singular equilibrium the state is rewritten as x = V alpha + Vperp beta
and the range part of the residual, W^T Phi(V alpha + Vperp beta, lambda),
plays the role of the split function with (alpha, lambda) as the surviving
variables and beta as the implicitly solved ones. The certificate is the
generic imft certificate of that split function, with two exact base blocks
in place of the recomputed ones:

* the (alpha, lambda) block is [0 | W^T D_lambda Phi(x0, lambda0)], with a
  hard zero alpha block, which is exact because J V = 0 up to the rank
  tolerance (checked at build time, InexactKernel otherwise),
* the beta block is the reduced block W^T J Vperp; when it is numerically
  singular the error is SingularReducedJacobian.

The reduced map solves W^T Phi = 0 rather than W^T Phi = W^T Phi(x0,
lambda0), so the domain margin also subtracts the base residual
||W^T Phi(x0, lambda0)||, which build_split_system lets be up to
equilibrium_tol. The entry points below keep the kernel-split names (r_par,
r_perp, M_par, L_perp, ...), which the shared result types accept as
aliases.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InexactKernel, NotEquilibrium, SingularReducedJacobian
from .imft import (
    BaseBlocks,
    CertifiedRegion,
    FrontierPoint,
    ImftQuantities,
    SplitFunction,
    SupremumEstimator,
    certify_grid,
    check_conditions,
    compute_M,
    estimate_L,
    imft_quantities,
    system_split,
)
from .norms import check_norm_kind, induced_norm, vector_norm
from .subspace import DEFAULT_RANK_TOL, SubspaceDecomposition, compute_decomposition
from .system import DEFAULT_EQUILIBRIUM_TOL, EvaluationPoint, ParametricSystem

# the kernel-split name of the shared check; FrontierPoint is imported above
# so that it stays importable from this module too
check_ls_conditions = check_conditions


@dataclass(frozen=True)
class SplitSystem:
    """A system rewritten in kernel/complement coordinates at a base point."""

    sys: ParametricSystem
    decomp: SubspaceDecomposition
    base: EvaluationPoint
    alpha0: np.ndarray  # kernel coordinates of x0, shape (q,)
    beta0: np.ndarray   # complement coordinates of x0, shape (n-q,)
    reduced_block: np.ndarray     # W^T J Vperp, shape (n-q, n-q)
    dlambda_base: np.ndarray      # W^T D_lambda Phi(x0, lambda0), shape (n-q, m)
    base_jac: np.ndarray          # J = D_x Phi(x0, lambda0) (J0 below), shape (n, n)

    @property
    def q(self) -> int:
        return self.decomp.q

    @property
    def n_perp(self) -> int:
        return self.decomp.n - self.decomp.q

    @property
    def m(self) -> int:
        return self.sys.m

    @property
    def par_center(self) -> np.ndarray:
        """Base point of the surviving (alpha, lambda) variables."""
        return np.concatenate([self.alpha0, self.base.lambda0])

    # The stack forms take point stacks alpha (N, q), beta (N, n-q) and
    # lam (N, m). They use stacked matmul at the per-point shapes and
    # association, which keeps each row bitwise equal to the 2-D products at
    # one point; einsum or one flattened GEMM would round differently.
    # evaluator is row 0 of lifted_many, and beta may be a scalar when
    # n - q = 1.

    def states(self, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """state at each row, shape (N, n)."""
        return (self.decomp.V[None] @ alpha[:, :, None])[..., 0] \
            + (self.decomp.Vperp[None] @ beta[:, :, None])[..., 0]

    def evaluator(self, alpha, beta, lam) -> np.ndarray:
        """Range part of the residual, W^T Phi(V alpha + Vperp beta, lambda)."""
        one_point = (np.asarray(v, dtype=float).reshape(1, -1) for v in (alpha, beta, lam))
        return self.lifted_many(*one_point)[2][0]

    def lifted_many(self, alpha, beta, lam) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The states x (N, n), full residuals Phi (N, k) and range parts W^T Phi (N, n-q).

        One residual evaluation gives all three: the reduced map reads g and
        the lifted residual off the full residual its range solve ended on.
        """
        x = self.states(alpha, beta)
        full = self.sys.residuals(x, lam)
        return x, full, self.range_part(full[:, :, None])[..., 0]

    def range_part(self, stack: np.ndarray) -> np.ndarray:
        """W^T applied to each (k, c) block of a stack (N, k, c): the split view's projection."""
        return self.decomp.W.T[None] @ stack

    def jac_perp_many(self, alpha, beta, lam) -> np.ndarray:
        """d(W^T Phi)/d(beta) at each row, shape (N, n-q, n-q): the split view's dy."""
        return self.as_split_function().dy_many(np.hstack([alpha, lam]), beta)

    def as_split_function(self) -> SplitFunction:
        """Generic split-variable view with x := (alpha, lambda), y := beta.

        Phi at (V alpha + Vperp beta, lambda), projected by W^T: the blocks
        are [(W^T J) V | W^T D_lambda Phi] and (W^T J) Vperp. It is not cached
        on self: the view holds self, and that cycle would keep each system's
        arrays until a cyclic collection (peak RSS about 0.3 MB higher).
        Where the system has a jac_box, the dy block's enclosure carries an
        (alpha, beta) box through the affine states and W^T J Vperp in
        midpoint-radius form (interval.matvec_box, interval.sandwich_box);
        the lambda ends of the x-box are the parameter box's. Where
        n - q >= 2, the same walk also gives the full-state spectral bound
        (interval.sandwich_deviation), from ||W^T (J - J0) Vperp||_2 <=
        ||W||_2 ||J - J0||_2 ||Vperp||_2 with J0 = base_jac: W and Vperp have
        orthonormal columns, so it is about ||J - J0||_2, where the hull of
        W^T J Vperp mixes the signs of J's entries. Over the whole box of
        r_par = 1 on ring-4, ring-6 and ring-8 the hull bounds the deviation
        by 2.45, 4.12 and 5.64, the full-state bound by 1 plus rounding. Its
        norms of W, Vperp and J0 are taken once per view, on first use. A
        1 x 1 block's hull is its range already, so n - q = 1 skips it.
        """
        q, v, v_perp = self.q, self.decomp.V[None], self.decomp.Vperp[None]
        basis = np.hstack([self.decomp.V, self.decomp.Vperp])
        w_t, vp = self.decomp.W.T, self.decomp.Vperp

        # the interval module loads with the first enclosure, which only a
        # DSL system's view is asked for
        def embed_box(p_lo, p_hi, b_lo, b_hi):
            from .interval import matvec_box
            ends = (np.hstack([p[:, :q], np.broadcast_to(b, (len(p), self.n_perp))])
                    for p, b in ((p_lo, b_lo), (p_hi, b_hi)))
            return (*matvec_box(basis, *ends), p_lo[:, q:], p_hi[:, q:])

        @functools.cache
        def deviation():
            from .interval import sandwich_deviation
            return sandwich_deviation(w_t, self.base_jac, vp)

        def y_chain_box(part):
            from .interval import sandwich_box
            lo, hi = part(0)
            spectral = (lambda block: deviation()(lo, hi, block)) if self.n_perp > 1 else None
            return (*sandwich_box(w_t, lo, hi, vp), spectral)

        return system_split(
            self.sys, q + self.m, self.n_perp,
            lambda P, B: (self.states(P[:, :q], B), P[:, q:]),
            lambda part: np.concatenate([part(0) @ v, part(1)], axis=2),
            lambda part: part(0) @ v_perp, project=self.range_part, embed_box=embed_box,
            y_chain_box=y_chain_box)

    @property
    def base_blocks(self) -> BaseBlocks:
        """Exact base blocks of the split view: [0 | dlambda_base] and reduced_block."""
        return BaseBlocks(
            dx=np.hstack([np.zeros((self.n_perp, self.q)), self.dlambda_base]),
            dy=self.reduced_block,
            singular=SingularReducedJacobian,
        )


def build_split_system(
    sys: ParametricSystem,
    base: EvaluationPoint,
    rank_tol: float = DEFAULT_RANK_TOL,
    equilibrium_tol: float = DEFAULT_EQUILIBRIUM_TOL,
) -> SplitSystem:
    """Decompose at a singular equilibrium and cache the base blocks.

    Also kept is the base Jacobian J0 = D_x Phi(x0, lambda0) (base_jac),
    which the view's full-state spectral box bound measures from.

    Raises NotEquilibrium when the residual exceeds equilibrium_tol,
    propagates NonSingularJacobian from the decomposition when q = 0, and
    raises InexactKernel when J V is not small against J.
    """
    if not base.is_equilibrium(equilibrium_tol):
        raise NotEquilibrium(
            f"base residual {base.residual:.3e} exceeds tolerance {equilibrium_tol:g}; "
            "refine the point first (see refine_equilibrium)")
    jac = sys.dphi_dx(base.x0, base.lambda0)
    decomp = compute_decomposition(jac, rank_tol)
    alpha0 = decomp.V.T @ base.x0
    beta0 = decomp.Vperp.T @ base.x0
    # the hard zero block in M_par is only sound if J really kills V
    kernel_residual = induced_norm(jac @ decomp.V, "spectral") if decomp.q else 0.0
    scale = induced_norm(jac, "spectral")
    if kernel_residual > max(rank_tol * scale, 1e2 * np.finfo(float).eps * max(scale, 1.0)):
        raise InexactKernel(
            f"||J V|| = {kernel_residual:.3e} is not small against ||J|| = {scale:.3e}")
    return SplitSystem(
        sys=sys,
        decomp=decomp,
        base=base,
        alpha0=alpha0,
        beta0=beta0,
        reduced_block=decomp.W.T @ jac @ decomp.Vperp,
        dlambda_base=decomp.W.T @ sys.dphi_dlambda(base.x0, base.lambda0),
        base_jac=jac,
    )


def compute_ls_M(
    ss: SplitSystem,
    norm_kind: str = "spectral",
    par_weights: np.ndarray | None = None,
) -> tuple[float, float]:
    """(M_par, M_perp) at the base point.

    M_par is the norm of [0 | W^T D_lambda Phi(x0, lambda0)]; the alpha block
    is identically zero by J V = 0, not merely small. M_perp is the inverse
    norm of W^T J Vperp; a numerically singular reduced block raises
    SingularReducedJacobian, which signals a kernel the rank tolerance
    missed.
    """
    return compute_M(ss.as_split_function(), ss.par_center, ss.beta0, norm_kind, par_weights,
                     ss.base_blocks)


def estimate_ls_L(
    ss: SplitSystem,
    r_par: float,
    r_perp: float,
    estimator: SupremumEstimator,
    norm_kind: str = "spectral",
    par_weights: np.ndarray | None = None,
) -> tuple[float, float]:
    """Deviation bounds (L_par, L_perp) for the given radii.

    L_par is the supremum of ||xi_1|| over the (alpha, lambda) ball with
    beta fixed at beta0; L_perp is the supremum of ||xi_2|| over the product
    of the (alpha, lambda) ball and the beta ball. Estimator overrides are
    functions of r_par and of (r_par, r_perp) respectively.
    """
    return estimate_L(ss.as_split_function(), ss.par_center, ss.beta0, r_par, r_perp,
                      estimator, norm_kind, par_weights, ss.base_blocks)


def ls_quantities(
    ss: SplitSystem,
    estimator: SupremumEstimator,
    norm_kind: str = "spectral",
    par_weights: np.ndarray | None = None,
) -> ImftQuantities:
    """Bundle the specialised norms, the base residual and cached deviation evaluators."""
    f = ss.as_split_function()
    residual = vector_norm(f.value(ss.par_center, ss.beta0), check_norm_kind(norm_kind))
    return imft_quantities(f, ss.par_center, ss.beta0, estimator, norm_kind, par_weights,
                           ss.base_blocks, residual)


def certify_ls_region(
    ss: SplitSystem,
    r_par_grid,
    r_perp_grid,
    estimator: SupremumEstimator | None = None,
    norm_kind: str = "spectral",
    par_weights: np.ndarray | None = None,
    quantities: ImftQuantities | None = None,
) -> tuple[CertifiedRegion, ImftQuantities]:
    """Scan the radius grid with the specialised quantities.

    Same strict inequalities, scan and one-level frontier bisection as the
    generic module.
    """
    q = quantities or ls_quantities(ss, estimator or SupremumEstimator(), norm_kind, par_weights)
    return certify_grid(q, r_par_grid, r_perp_grid), q
