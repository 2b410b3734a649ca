"""Deterministic, seedless sampling of norm balls for supremum estimation.

The sample set for a ball B(c, r) is the union of

* a tensor lattice with `samples_per_dim` points per axis, intersected with
  the closed ball, refined as a dyadic chain (points(k) includes
  points(ceil(k/2))) so that doubling samples_per_dim never drops a point,
* the 2*dim axis-boundary points c +- r*e_i,
* dim*(dim-1) diagonal boundary points c + r*(e_i - e_j)/||e_i - e_j||.

Boundary points of the closed ball are admissible; suprema over the closed
ball dominate the open-ball suprema the certificates need, so including them
is conservative.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .errors import NonFinite
from .norms import induced_norms

DEFAULT_SAMPLES_PER_DIM = 17


def _lattice_sizes(samples_per_dim: int) -> list[int]:
    sizes = [samples_per_dim]
    while sizes[-1] > 2:
        sizes.append((sizes[-1] + 1) // 2)
    return sizes


def ball_points(
    center: np.ndarray,
    radius: float,
    samples_per_dim: int,
    norm_kind: str = "spectral",
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Sample points of the closed ball {v : ||(v - c)/w|| <= r}.

    Returns an array of shape (npoints, dim). `weights` stretches the ball
    per coordinate (default all ones). Each point appears once: of rows
    that are equal bit for bit (coarser lattice levels land on finer ones
    for odd samples_per_dim, and boundary points on lattice points), the
    first is kept, in order.
    """
    center = np.asarray(center, dtype=float)
    if center.ndim != 1:
        raise ValueError("center must be a 1-D array")
    if radius < 0 or not np.isfinite(radius):
        raise ValueError(f"radius must be finite and nonnegative, got {radius}")
    if samples_per_dim < 2:
        raise ValueError("samples_per_dim must be at least 2")
    dim = center.size
    if dim == 0 or radius == 0.0:
        return center.reshape(1, dim)
    w = np.ones(dim) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (dim,) or np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be positive finite, one per coordinate")

    # every lattice level in one stack: the axes of level k are the columns of
    # one linspace with vector ends, broadcast into the tensor product in the
    # row-major order of meshgrid(indexing="ij")
    low, high = center - radius * w, center + radius * w
    levels = []
    for k in _lattice_sizes(samples_per_dim):
        axes = np.linspace(low, high, k)
        if np.any((high - low) / (k - 1) == 0.0):
            # linspace takes another route for every column once one step
            # underflows to 0; one call per axis keeps each axis's own
            axes = np.stack([np.linspace(low[i], high[i], k) for i in range(dim)], axis=1)
        level = np.empty((k,) * dim + (dim,))
        for i in range(dim):
            level[..., i] = axes[:, i].reshape((k,) + (1,) * (dim - 1 - i))
        levels.append(level.reshape(-1, dim))
    grid = np.concatenate(levels)
    scaled = (grid - center) / w
    if norm_kind == "spectral":
        dist = np.sqrt(np.sum(scaled**2, axis=1))
    elif norm_kind == "one":
        dist = np.sum(np.abs(scaled), axis=1)
    else:
        dist = np.max(np.abs(scaled), axis=1)
    # the axis boundary points c + r w_i e_i, c - r w_i e_i for each i in turn
    steps = np.diag(radius * w)
    boundary = np.stack((center + steps, center - steps), axis=1).reshape(-1, dim)
    chunks = [grid[dist <= radius * (1.0 + 1e-12)], boundary]
    if dim > 1:
        # the directions e_i - e_j, i != j in row-major order, scaled to unit
        # norm by one batched call: row k's norm is vector_norm of direction k
        eye = np.eye(dim)
        i, j = np.nonzero(eye == 0.0)
        u = eye[i] - eye[j]
        u /= induced_norms(u[:, :, None], norm_kind)[:, None]
        chunks.append(center + radius * (w * u))
    points = np.concatenate(chunks)
    # keep the first of each run of rows equal bit for bit: a stable sort of
    # the rows' bit patterns puts equal rows together in their first-seen order
    bits = points.view(np.int64)
    order = np.lexsort(bits.T[::-1])
    ordered = bits[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return points[np.sort(order[first])]


def max_over(points: Iterable[np.ndarray], value: Callable[[np.ndarray], float]) -> float:
    """Max of `value` over the points, read lazily in the calling thread.

    The reduction is a plain max, so the result is deterministic. No points
    give 0.0; a non-finite maximum raises NonFinite.
    """
    best = max(map(value, points), default=0.0)
    if not np.isfinite(best):
        raise NonFinite("supremum sampling produced a non-finite value")
    return float(best)
