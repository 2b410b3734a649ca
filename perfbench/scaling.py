"""Scaling table: one L_perp call on the ring-n DSL model. Report only, not gated.

    python3 perfbench/scaling.py

For each state dimension n in {2, 4, 6} and samples_per_dim in {9, 17, 33},
times one sampled L_perp(r_par=1, r_perp=0.5) at the singular point
(0, ..., 0; lambda = 1) of the ring x_i' = -x_i + tanh(l1 * x_{i+1}) and
prints the number of (alpha, lambda) x beta pairs evaluated.

A cell whose lattice bound spd^(n+m) exceeds BUDGET is not run: the
library builds each ball's full meshgrid before cutting it to the ball (spd
33 in 5-D would be about 1.5 GB) and walks the pairs one by one. For those
cells the pair count is computed arithmetically and printed instead.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.pop("LS_CERTIFY_THREADS", None)

import lscert  # noqa: E402
from lscert.sampling import _lattice_sizes, ball_points  # noqa: E402

STATE_DIMS = (2, 4, 6)
SAMPLES = (9, 17, 33)
BUDGET = 100_000
R_PAR, R_PERP = 1.0, 0.5


def ring_source(n: int) -> str:
    return "; ".join(f"-x{i} + tanh(l1*x{i % n + 1})" for i in range(1, n + 1))


def ball_point_count(dim: int, samples_per_dim: int) -> int:
    """Points the sampler returns for a Euclidean ball of positive radius.

    On a k-point axis the scaled offsets are a / (k - 1) with a = 2j - (k - 1),
    so a lattice point is in the ball iff sum(a^2) <= (k - 1)^2, counted here by
    convolving per-axis histograms of a^2. Add the 2 dim axis and dim (dim - 1)
    diagonal boundary points.
    """
    total = 2 * dim + dim * (dim - 1)
    for k in _lattice_sizes(samples_per_dim):
        limit = (k - 1) ** 2
        axis = np.zeros(limit + 1, dtype=np.int64)
        for j in range(k):
            axis[(2 * j - (k - 1)) ** 2] += 1
        hist = np.zeros(limit + 1, dtype=np.int64)
        hist[0] = 1
        for _ in range(dim):
            hist = np.convolve(hist, axis)[: limit + 1]
        total += int(hist.sum())
    return total


def main() -> int:
    print(f"L_perp({R_PAR:g}, {R_PERP:g}) on ring-n, lattice budget {BUDGET:,} "
          f"(cpu_count {os.cpu_count()})")
    print(f"{'n':>3} {'spd':>4} {'bound':>15} {'pairs':>14} {'seconds':>9}")
    for n in STATE_DIMS:
        sys_ = lscert.system_from_expressions(ring_source(n), n, 1)
        ss = lscert.build_split_system(sys_, lscert.evaluation_point(sys_, [0.0] * n, [1.0]))
        dim_par, dim_perp = ss.q + ss.m, ss.n_perp
        for spd in SAMPLES:
            bound = spd ** (dim_par + dim_perp)
            pairs = ball_point_count(dim_par, spd) * ball_point_count(dim_perp, spd)
            if bound > BUDGET:
                print(f"{n:>3} {spd:>4} {bound:>15,} {pairs:>14,} {'skipped':>9}")
                continue
            sampled = (len(ball_points(ss.par_center, R_PAR, spd))
                       * len(ball_points(ss.beta0, R_PERP, spd)))
            if sampled != pairs:
                print(f"error: computed {pairs} pairs, the sampler gives {sampled}",
                      file=sys.stderr)
                return 1
            q = lscert.ls_quantities(ss, lscert.SupremumEstimator(samples_per_dim=spd))
            start = perf_counter()
            q.L_perp(R_PAR, R_PERP)
            print(f"{n:>3} {spd:>4} {bound:>15,} {pairs:>14,} {perf_counter() - start:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
