"""The batched ball lattice against the reference it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lscert.norms import NORM_KINDS
from lscert.sampling import ball_points
from conftest import reference_ball_points


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(1, 6), spd=st.integers(2, 33), kind=st.sampled_from(NORM_KINDS),
       weighted=st.booleans(), scale=st.sampled_from([1.0, 1e-3, 1e3, 1e-310]),
       seed=st.integers(0, 2**32 - 1))
def test_ball_points_equal_the_reference_bit_for_bit(dim, spd, kind, weighted, scale, seed):
    # the lattice of a d-ball has spd^d points: large spd only in low dimension
    spd = min(spd, {1: 33, 2: 33, 3: 12, 4: 8}.get(dim, 5))
    rng = np.random.default_rng(seed)
    center = rng.uniform(-2.0, 2.0, size=dim) * rng.choice([1.0, 0.0, -0.0])
    radius = float(rng.uniform(0.0, 3.0)) * scale
    weights = rng.uniform(0.1, 3.0, size=dim) if weighted else None
    want = reference_ball_points(center, radius, spd, kind, weights)
    got = ball_points(center, radius, spd, kind, weights)
    assert got.tobytes() == want.tobytes() and got.shape == want.shape


def test_one_weight_whose_step_underflows_keeps_each_axis_own_linspace():
    # radius * w is subnormal on the second axis only: linspace would take its
    # zero-step route on every column of a shared call
    center, weights = np.array([0.3, -0.2]), np.array([1.0, 1e-310])
    for kind in NORM_KINDS:
        want = reference_ball_points(center, 1e-3, 9, kind, weights)
        assert ball_points(center, 1e-3, 9, kind, weights).tobytes() == want.tobytes()


@pytest.mark.parametrize("args,message", [
    ((np.zeros((2, 2)), 1.0, 5), "center must be a 1-D array"),
    ((np.zeros(2), -1.0, 5), "radius must be finite and nonnegative"),
    ((np.zeros(2), np.inf, 5), "radius must be finite and nonnegative"),
    ((np.zeros(2), 1.0, 1), "samples_per_dim must be at least 2"),
])
def test_ball_points_keep_their_validation_errors(args, message):
    for fn in (ball_points, reference_ball_points):
        with pytest.raises(ValueError, match=message):
            fn(*args)
    with pytest.raises(ValueError, match="weights must be positive finite"):
        ball_points(np.zeros(2), 1.0, 5, weights=np.array([1.0, 0.0]))
