"""Vector norms and the matrix norms they induce.

One norm kind is chosen per run and used consistently for every bound
quantity; mixing kinds across the two certification inequalities would not
compose soundly.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite, SingularDyf

NORM_KINDS = ("spectral", "one", "infinity")

_VEC_ORD = {"spectral": 2, "one": 1, "infinity": np.inf}
_MAT_ORD = {"spectral": 2, "one": 1, "infinity": np.inf}

COND_LIMIT = 1e14


def check_norm_kind(kind: str) -> str:
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}; choose from {NORM_KINDS}")
    return kind


def vector_norm(v: np.ndarray, kind: str = "spectral") -> float:
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        return 0.0
    return float(np.linalg.norm(v.ravel(), _VEC_ORD[kind]))


def induced_norm(a: np.ndarray, kind: str = "spectral") -> float:
    """Operator norm of a matrix in the induced sense for the given kind."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.size == 0:
        return 0.0
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix contains non-finite entries")
    if min(a.shape) == 1 and kind == "spectral":
        # spectral norm of a single row or column is the Euclidean vector norm
        return float(np.linalg.norm(a.ravel()))
    return float(np.linalg.norm(a, _MAT_ORD[kind]))


def induced_norms(a: np.ndarray, kind: str = "spectral") -> np.ndarray:
    """induced_norm of each matrix in a stack of shape (N, r, c), bit for bit.

    Each norm is taken with the operation induced_norm uses on one matrix:
    the same SVD or absolute sums along the same axis, and for a single row
    or column the dot product np.linalg.norm takes (a summed square would
    round differently).
    """
    a = np.asarray(a, dtype=float)
    count, rows, cols = a.shape
    if rows * cols == 0:
        return np.zeros(count)
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix contains non-finite entries")
    if min(rows, cols) == 1 and kind == "spectral":
        v = a.reshape(count, 1, rows * cols)
        return np.sqrt(v @ v.transpose(0, 2, 1))[:, 0, 0]
    return np.linalg.norm(a, _MAT_ORD[kind], axis=(1, 2))


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
