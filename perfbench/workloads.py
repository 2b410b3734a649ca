"""Workload configs for the benchmark, generated from a seed.

Seed 0 gives the grids listed below exactly; its outputs are pinned in
`reference/`. Any other seed multiplies each grid radius and each end of the
trace window by its own factor in [1 - JITTER, 1 + JITTER], so a claim can be
re-checked on inputs it was not tuned on. The lattice sizes, the number of
radius pairs and the number of lambda values do not depend on the seed, so
the work per op stays the same across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

JITTER = 0.03

RING4 = "-x1 + tanh(l1*x2); -x2 + tanh(l1*x3); -x3 + tanh(l1*x4); -x4 + tanh(l1*x1)"

TANH2 = {"kind": "builtin", "name": "tanh2"}

# lambda values are lambda_min + i * step for i in 0..TRACE_STEPS
TRACE_STEPS = 150


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # lscert CLI subcommand
    make: Callable[[random.Random, bool], dict]
    # threads an op keeps busy, and so the threads of the speed probe
    # around it (speed.py): 2 where L_perp runs on the library's pool
    threads: int = 1

    def config(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}")
        return self.make(rng, seed != 0)


def _scaled(values, rng: random.Random, jitter: bool) -> list[float]:
    if not jitter:
        return [float(v) for v in values]
    return [float(v) * (1.0 + rng.uniform(-JITTER, JITTER)) for v in values]


# spd 33: every L_perp call walks 75,757 pairs, above the sampler's 8,192-point
# thread threshold. A 4 x 2 radius grid would take about 19 s per op; one
# certified and one refused r_par keep it near 3.5 s, so a 20 s run holds
# about five ops even on a loaded host. r_par = 2 is left out because tanh2's
# true boundary is exactly there and the verdict at that radius turns on the
# last bit of L_perp.
def _ls_tanh2_dense(rng, jitter):
    return {
        "model": TANH2,
        "base_point": {"x0": [0.0, 0.0], "lambda0": [1.0]},
        "estimator": {"mode": "sampled", "samples_per_dim": 33},
        "certify": {
            "r_par_grid": _scaled([1.0, 2.5], rng, jitter),
            "r_perp_grid": _scaled([2.0], rng, jitter),
        },
    }


# DSL Jacobians (~50 us per point against ~4 us for the builtin) and 3x3
# spectral norms; 5,577 pairs per L_perp call, below the thread threshold
def _ls_ring4_dsl(rng, jitter):
    return {
        "model": {"kind": "expr", "source": RING4, "n": 4, "m": 1},
        "base_point": {"x0": [0.0, 0.0, 0.0, 0.0], "lambda0": [1.0]},
        "estimator": {"mode": "sampled", "samples_per_dim": 7},
        "certify": {
            "r_par_grid": _scaled([0.5, 1.0, 1.5, 2.0], rng, jitter),
            "r_perp_grid": _scaled([0.5], rng, jitter),
        },
    }


# 151 lambda values x 401 alpha nodes: all of the time is in reduction
def _trace_tanh2_fine(rng, jitter):
    lo, hi, alpha = _scaled([0.5, 2.0, 1.6], rng, jitter)
    return {
        "model": TANH2,
        "base_point": {"x0": [0.0, 0.0], "lambda0": [1.0]},
        "trace": {
            "lambda_min": lo,
            "lambda_max": hi,
            "lambda_step": 0.01 if not jitter else (hi - lo) / TRACE_STEPS,
            "alpha_min": -alpha,
            "alpha_max": alpha,
            "alpha_samples": 401,
        },
    }


def _imft_ring4_dsl(rng, jitter):
    # combined vector is (x1..x4, l1): x := l1 at 0.5, y := the four states
    return {
        "model": {"kind": "expr", "source": RING4, "n": 4, "m": 1},
        "base_point": {"x0": [0.5], "y0": [0.0, 0.0, 0.0, 0.0]},
        "estimator": {"mode": "sampled", "samples_per_dim": 7},
        "imft": {
            "x_indices": [4],
            "y_indices": [0, 1, 2, 3],
            "r_x_grid": _scaled([0.1, 0.4, 0.8, 1.6], rng, jitter),
            "r_y_grid": _scaled([0.3], rng, jitter),
        },
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ls-tanh2-dense", "ls-certify", _ls_tanh2_dense, threads=2),
        Workload("ls-ring4-dsl", "ls-certify", _ls_ring4_dsl),
        Workload("trace-tanh2-fine", "trace", _trace_tanh2_fine),
        Workload("imft-ring4-dsl", "imft-certify", _imft_ring4_dsl),
    )
}
