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

    chunks: list[np.ndarray] = []
    for k in _lattice_sizes(samples_per_dim):
        axes = [np.linspace(center[i] - radius * w[i], center[i] + radius * w[i], k) for i in range(dim)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        scaled = (grid - center) / w
        if norm_kind == "spectral":
            dist = np.sqrt(np.sum(scaled**2, axis=1))
        elif norm_kind == "one":
            dist = np.sum(np.abs(scaled), axis=1)
        else:
            dist = np.max(np.abs(scaled), axis=1)
        chunks.append(grid[dist <= radius * (1.0 + 1e-12)])

    boundary = []
    for i in range(dim):
        step = np.zeros(dim)
        step[i] = radius * w[i]
        boundary.append(center + step)
        boundary.append(center - step)
    chunks.append(np.array(boundary))
    # the directions e_i - e_j, i != j in row-major order, scaled to unit
    # norm by one batched call: row k's norm is vector_norm of direction k
    eye = np.eye(dim)
    i, j = np.nonzero(eye == 0.0)
    u = eye[i] - eye[j]
    u /= induced_norms(u[:, :, None], norm_kind)[:, None]
    chunks.append(center + radius * (w * u))
    points = np.concatenate(chunks, axis=0)
    rows = points.view(np.dtype((np.void, points.itemsize * dim)))[:, 0]
    _, first = np.unique(rows, return_index=True)
    return points[np.sort(first)]


def max_over(points: Iterable[np.ndarray], value: Callable[[np.ndarray], float]) -> float:
    """Max of `value` over the points, read lazily in the calling thread.

    The reduction is a plain max, so the result is deterministic. No points
    give 0.0; a non-finite maximum raises NonFinite.
    """
    best = max(map(value, points), default=0.0)
    if not np.isfinite(best):
        raise NonFinite("supremum sampling produced a non-finite value")
    return float(best)
