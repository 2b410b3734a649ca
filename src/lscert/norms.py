"""Vector norms and the matrix norms they induce.

One norm kind is chosen per run and used consistently for every bound
quantity; mixing kinds across the two certification inequalities would not
compose soundly. induced_norms takes the norms of a stack of matrices, and
max_induced_norm the largest of them, computing an SVD only for the
matrices that bounds cannot rule out: the cheap row, column, Frobenius and
sqrt(||A||_1 ||A||_inf) bounds, and where those lie apart the Gram bound
sqrt(||A^T A||_inf), which sees sign cancellation. norm_survivors gives the
bounds and the matrices they keep, so a caller can carry one floor across
many stacks and defer the SVDs (imft._sampled_L does). For k x k blocks
whose largest entry lies in SAFE_SCALE the bounds round by at most about
k^3 ulps, far inside PRUNE_MARGIN, so skipping leaves the maximum unchanged
bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite, SingularDyf

NORM_KINDS = ("spectral", "one", "infinity")

_MAT_ORD = {"spectral": 2, "one": 1, "infinity": np.inf}

COND_LIMIT = 1e14

# a matrix whose largest entry lies in this range has no square or sum of
# squares of its entries that under- or overflows: max_induced_norm bounds
# only such matrices, and induced_norms rescales every other row or column
SAFE_SCALE = (1e-150, 1e150)
# relative gap a bound must clear to skip an SVD: far above the rounding of
# the SVD and of the bounds, which are a few ulps each
PRUNE_MARGIN = 1e-8


def check_norm_kind(kind: str) -> str:
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}; choose from {NORM_KINDS}")
    return kind


def vector_norm(v: np.ndarray, kind: str = "spectral") -> float:
    """Norm of v of the given kind: row 0 of induced_norms on v as one column.

    A column's induced 2-, 1- and infinity-norms are its vector norms, and
    induced_norms keeps the 2-norm finite where a sum of squares would over-
    or underflow.
    """
    return float(induced_norms(np.asarray(v, dtype=float).reshape(1, -1, 1), kind)[0])


def induced_norm(a: np.ndarray, kind: str = "spectral") -> float:
    """Operator norm of a matrix in the induced sense for the given kind.

    Row 0 of induced_norms on a one-matrix stack; a 1-D a is read as one row.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return float(induced_norms(a[None], kind)[0])


def induced_norms(a: np.ndarray, kind: str = "spectral") -> np.ndarray:
    """Induced norm of each matrix in a stack of shape (N, r, c).

    Each norm is taken with the operation np.linalg.norm uses on one matrix:
    the same SVD or absolute sums along the same axis, and for a single row
    or column the dot product it takes for a vector's 2-norm (a summed
    square would round differently). A row or column whose largest entry
    lies outside SAFE_SCALE is scaled by a power of two first, so that its
    dot product neither overflows nor underflows; in-range ones keep
    sqrt(v . v) bit for bit.
    """
    a = np.asarray(a, dtype=float)
    count, rows, cols = a.shape
    if rows * cols == 0:
        return np.zeros(count)
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix contains non-finite entries")
    if min(rows, cols) == 1 and kind == "spectral":
        v = a.reshape(count, 1, rows * cols)
        with np.errstate(over="ignore", under="ignore"):  # such rows are redone below
            squares = (v @ v.transpose(0, 2, 1))[:, 0, 0]
        norms = np.sqrt(squares)
        # a sum of k squares lies in this range only if the largest entry is
        # inside SAFE_SCALE: the sum is at least the largest square and at
        # most k times it, within rounding
        low, high = 2.0 * rows * cols * SAFE_SCALE[0] ** 2, SAFE_SCALE[1] ** 2
        if squares.min(initial=np.inf) > low and squares.max(initial=0.0) < high:
            return norms
        top = np.abs(v).max(axis=(1, 2))
        outside = np.flatnonzero((top <= SAFE_SCALE[0]) | (top >= SAFE_SCALE[1]))
        exponent = np.frexp(top[outside])[1]
        w = np.ldexp(v[outside], -exponent[:, None, None])
        norms[outside] = np.ldexp(np.sqrt(w @ w.transpose(0, 2, 1))[:, 0, 0], exponent)
        return norms
    return np.linalg.norm(a, _MAT_ORD[kind], axis=(1, 2))


def can_reach(upper: np.ndarray, best: float) -> np.ndarray:
    """Which upper bounds, times (1 + PRUNE_MARGIN), reach best: the matrices to keep."""
    return upper * (1.0 + PRUNE_MARGIN) >= best


def norm_survivors(a: np.ndarray, kind: str = "spectral", floor: float = -np.inf):
    """(best, keep, upper): which matrices of a stack (N, r, c) can hold the largest norm.

    best is max(floor, largest lower bound), keep the indices of the
    matrices whose upper bound reaches it (can_reach) and upper their upper
    bounds, as max_induced_norm describes them. A matrix whose largest entry
    lies outside SAFE_SCALE is kept with an upper bound of inf. Other kinds
    and shapes are not bounded at all: best is the floor, keep slice(None)
    and upper None.
    """
    a = np.asarray(a, dtype=float)
    count, rows, cols = a.shape
    if kind != "spectral" or min(rows, cols) < 2 or not count:
        return floor, slice(None), None
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix contains non-finite entries")
    # |entries| as (r, c, N): every reduction below runs along whole stacks,
    # and the one copy is squared in place once the sums are taken
    mag = np.abs(np.moveaxis(a, 0, -1), order="C")
    top = mag.max(axis=(0, 1))
    bounded = (top > SAFE_SCALE[0]) & (top < SAFE_SCALE[1])
    # the bounds of unbounded matrices may overflow; they are not used
    with np.errstate(over="ignore", under="ignore"):
        one_inf = np.sqrt(mag.sum(axis=0).max(axis=0) * mag.sum(axis=1).max(axis=0))
        squares = np.square(mag, out=mag)
        row_sq, col_sq = squares.sum(axis=1), squares.sum(axis=0)
        lower = np.sqrt(np.maximum(row_sq.max(axis=0), col_sq.max(axis=0)))
        upper = np.where(bounded, np.minimum(np.sqrt(row_sq.sum(axis=0)), one_inf), np.inf)
    best = max(floor, lower[bounded].max(initial=-np.inf))
    keep = np.flatnonzero(can_reach(upper, best))
    loose = keep[bounded[keep] & (upper[keep] > lower[keep] * (1.0 + PRUNE_MARGIN))]
    if len(loose):
        # the Gram bound of the smaller side; one that overflows is inf and
        # fmin keeps the cheap bound
        b = a[loose]
        gram = b @ b.transpose(0, 2, 1) if rows < cols else b.transpose(0, 2, 1) @ b
        with np.errstate(over="ignore", under="ignore"):
            upper[loose] = np.fmin(upper[loose], np.sqrt(np.abs(gram).sum(axis=2).max(axis=1)))
        keep = keep[can_reach(upper[keep], best)]
    return best, keep, upper[keep]


def max_induced_norm(a: np.ndarray, kind: str = "spectral", floor: float = 0.0) -> float:
    """max(floor, induced_norms(a, kind).max()) of a stack (N, r, c), bit for bit.

    For spectral norms of matrices with at least two rows and two columns,
    each matrix first gets the cheap bounds (Golub & Van Loan, Matrix
    Computations, 2.3)

        largest row or column 2-norm <= ||A||_2 <= min(||A||_F, sqrt(||A||_1 ||A||_inf)),

    and each one whose two bounds lie more than PRUNE_MARGIN apart, and that
    the cheap upper bound does not rule out, gets the Gram bound

        ||A||_2 <= sqrt(||A^T A||_inf),

    since lambda_max(A^T A) is at most any induced norm of A^T A (A A^T where
    A has fewer rows than columns). Unlike the cheap bounds it sees sign
    cancellation: near-orthogonal mixed-sign matrices have a Frobenius norm
    well above their 2-norm, and a Gram bound close to it. The SVD runs only
    on the matrices whose upper bound times (1 + PRUNE_MARGIN) reaches the
    best lower bound, max(floor, largest lower bound), so a skipped matrix
    lies below a norm the stack attains by far more than any rounding and
    the maximum is the same value. The cheap bounds round by a few ulps. A
    k x k Gram bound rounds by about k^3 ulps of ||A||_2^2: each entry of
    A^T A is a sum of products whose magnitudes add up to at most
    ||A||_2^2, and a row adds k of them. Both hold only for matrices whose
    largest entry lies in SAFE_SCALE: no square overflows, and since
    ||A||_2^2 > 1e-300 a product that underflows is off by at most 2^-1075,
    about 1e-24 of it. Every other matrix (zero ones included) gets no
    bounds and always the SVD, and a Gram bound that overflows (a sum of
    more than 1e8 products) leaves the cheap one.
    Other kinds and shapes are not worth bounding: their norms are sums and
    dot products, as in induced_norms. norm_survivors gives the bounds.
    """
    a = np.asarray(a, dtype=float)
    _, keep, _ = norm_survivors(a, kind, floor)
    norms = induced_norms(a[keep], kind)
    return max(floor, float(norms.max())) if len(norms) else floor


def inverse_norm(a: np.ndarray, kind: str = "spectral", error: type[Exception] = SingularDyf) -> float:
    """Norm of the matrix inverse, guarding against near-singularity.

    Raises `error` when the condition number (in the same induced norm)
    exceeds COND_LIMIT. The 0x0 case returns 0 by convention: an empty
    system imposes no constraint.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        return 0.0
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix contains non-finite entries")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise error(f"matrix is singular: {exc}") from exc
    cond = induced_norm(a, kind) * induced_norm(inv, kind)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise error(f"matrix condition number {cond:.3e} exceeds {COND_LIMIT:.0e}")
    return induced_norm(inv, kind)
