import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lscert import NonFinite
from lscert import norms
from lscert.norms import (
    NORM_KINDS,
    SAFE_SCALE,
    induced_norm,
    induced_norms,
    vector_norm,
)
from conftest import max_induced_norm


def full_maximum(stack, kind, floor):
    """What max_induced_norm must return: the floor or the largest norm, every norm taken."""
    return max(floor, float(induced_norms(stack, kind).max()))


def _matrices(rng, style, count, rows, cols):
    a = rng.standard_normal((count, rows, cols))
    if style == "ties":
        # copies, sign flips and row or column swaps of one matrix: equal
        # norms in exact arithmetic, equal to the last bit or nearly so
        a[:] = a[0]
        a[1::3] *= -1.0
        a[2::3] = a[2::3, ::-1]
        a[3::4] = a[3::4, :, ::-1]
    elif style == "rank_one":
        # the bounds are tight in exact arithmetic, so the SVD often lands
        # an ulp or two above the computed upper bound
        a = rng.standard_normal((count, rows, 1)) * rng.standard_normal((count, 1, cols))
        a[::2, 1:] = 0.0  # one nonzero row: the lower bound is tight too
    elif style == "spread":
        a *= 10.0 ** rng.uniform(-3.0, 3.0, size=(count, 1, 1))
    elif style == "dominated":
        a[0] *= 5.0  # one large matrix and many that cannot reach it
    elif style == "near_orthogonal":
        # mixed-sign blocks close to orthogonal: the cheap upper bounds lie
        # up to sqrt(k) above the 2-norm, the Gram bound within about 1e-3
        q = np.linalg.qr(rng.standard_normal((count, max(rows, cols), max(rows, cols))))[0]
        a = q[:, :rows, :cols] * rng.uniform(0.99, 1.01, size=(count, 1, 1)) + 1e-4 * a
    a[rng.uniform(size=count) < 0.15] = 0.0
    return a


@st.composite
def stacks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 40))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    style = draw(st.sampled_from(["normal", "ties", "rank_one", "spread", "dominated",
                                  "near_orthogonal"]))
    # 1e153: some squares overflow while others do not; 5e-324 leaves subnormals
    scale = draw(st.sampled_from([1.0, 1e170, 1e-170, 1e153, 1e-160, 5e-324]))
    return _matrices(rng, style, count, rows, cols) * scale


@settings(max_examples=300, deadline=None)
@given(stacks(), st.sampled_from(NORM_KINDS),
       st.sampled_from(["none", "zero", "below", "ulp_below", "at", "ulp_above", "above"]))
def test_pruned_maximum_equals_the_full_maximum_bitwise(stack, kind, where):
    top = float(induced_norms(stack, kind).max())
    floor = {"none": -np.inf, "zero": 0.0, "below": 0.5 * top,
             "ulp_below": float(np.nextafter(np.nextafter(top, 0.0), 0.0)), "at": top,
             "ulp_above": float(np.nextafter(top, np.inf)), "above": 2.0 * top + 1.0}[where]
    assert max_induced_norm(stack, kind, floor) == full_maximum(stack, kind, floor)
    # the maximum so far as the floor of the next chunk, as the lattice walk does
    best = -np.inf
    for start in range(0, len(stack), 7):
        best = max_induced_norm(stack[start:start + 7], kind, best)
    assert best == top


def test_every_rank_one_maximum_survives_a_floor_just_below_it():
    # the SVD of a rank-one matrix often exceeds its computed Frobenius norm
    # by an ulp or two, so a bound compared without a margin would drop the
    # very matrix that holds the maximum
    rng = np.random.default_rng(11)
    a = rng.standard_normal((400, 3, 1)) * rng.standard_normal((400, 1, 3))
    for m in a:
        top = float(induced_norms(m[None]).max())
        for floor in (np.nextafter(top, 0.0), np.nextafter(np.nextafter(top, 0.0), 0.0)):
            assert max_induced_norm(m[None], "spectral", float(floor)) == top


def test_matrices_outside_the_safe_scale_always_get_the_svd():
    # squares of 1.35e154 overflow: a lower bound of inf would prune the
    # larger matrix, whose squares stay finite
    big = np.zeros((2, 3, 3))
    big[0, 0, 0] = 1.35e154
    big[1] = 1.3e154
    assert max_induced_norm(big) == full_maximum(big, "spectral", 0.0) == \
        float(induced_norms(big[1:]).max())
    # squares of 1e-170 underflow: an upper bound of 0 would prune every
    # matrix against a floor below the maximum
    tiny = np.random.default_rng(5).standard_normal((20, 3, 3)) * 1e-170
    top = float(induced_norms(tiny).max())
    assert max_induced_norm(tiny, "spectral", 0.5 * top) == top
    subnormal = np.full((3, 2, 2), 5e-324)
    subnormal[1, 0, 0] = 1e-323
    assert max_induced_norm(subnormal, "spectral", 5e-324) == full_maximum(subnormal, "spectral",
                                                                           5e-324) > 5e-324


@pytest.mark.parametrize("kind", NORM_KINDS)
@pytest.mark.parametrize("shape", [(3, 3), (1, 4), (4, 1)])
def test_non_finite_entries_raise_before_any_pruning(kind, shape):
    stack = np.ones((5,) + shape)
    for bad in (np.nan, np.inf):
        stack[3, 0, 0] = bad
        with pytest.raises(NonFinite):
            max_induced_norm(stack, kind, 1e300)  # a floor no finite matrix reaches


def test_only_the_matrices_that_can_hold_the_maximum_get_the_svd(monkeypatch):
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((256, 3, 3))
    stack[17] *= 10.0
    seen = []

    def counted(a, kind="spectral"):
        seen.append(len(a))
        return induced_norms(a, kind)

    monkeypatch.setattr(norms, "induced_norms", counted)
    assert max_induced_norm(stack) == full_maximum(stack, "spectral", 0.0)
    assert seen == [1]
    # below the floor nothing is left to compute
    assert max_induced_norm(stack, "spectral", 1e3) == 1e3
    assert seen == [1, 0]


def test_the_gram_bound_rules_out_what_the_cheap_bounds_keep(monkeypatch):
    # orthogonal 3 x 3 blocks: 2-norm 1, Frobenius norm sqrt(3); the one
    # scaled by 1.05 holds the maximum, and only the Gram bound shows that
    # the others cannot reach it
    rng = np.random.default_rng(12)
    stack = np.linalg.qr(rng.standard_normal((256, 3, 3)))[0]
    stack[40] *= 1.05
    assert np.sqrt(np.square(stack).sum(axis=(1, 2))).min() > 1.7
    seen = []

    def counted(a, kind="spectral"):
        seen.append(len(a))
        return induced_norms(a, kind)

    monkeypatch.setattr(norms, "induced_norms", counted)
    assert max_induced_norm(stack) == full_maximum(stack, "spectral", 0.0)
    assert seen == [1]
    best, keep, upper = norms.norm_survivors(stack, "spectral")
    assert keep.tolist() == [40] and best <= upper[0] * (1.0 + norms.PRUNE_MARGIN)


def test_empty_stacks_and_shapes_give_the_floor_or_zero():
    assert max_induced_norm(np.empty((0, 3, 3)), "spectral", 0.25) == 0.25
    assert max_induced_norm(np.empty((4, 0, 3)), "spectral", -np.inf) == 0.0


@pytest.mark.parametrize("shape", [(1, 2), (2, 1)])
@pytest.mark.parametrize("scale", [1e160, 1e170, 1e-170])
def test_a_row_or_column_outside_the_safe_scale_has_a_finite_norm(shape, scale):
    # its sum of squares over- or underflows; the spectral norm does not
    a = np.array([3.0, 4.0]).reshape(shape) * scale
    assert induced_norm(a) == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)
    assert induced_norms(a[None])[0] == induced_norm(a)
    assert max_induced_norm(a[None]) == induced_norm(a)
    assert vector_norm(a) == induced_norm(a)


@pytest.mark.parametrize("kind", NORM_KINDS)
def test_one_matrix_and_one_vector_keep_numpys_bits_in_the_safe_scale(kind):
    # both are row 0 of induced_norms; in range they are np.linalg.norm bit
    # for bit, the dot product for a spectral row or column and a vector
    order = {"spectral": 2, "one": 1, "infinity": np.inf}[kind]
    rng = np.random.default_rng(909)
    shapes = [(1, k) for k in range(1, 10)] + [(k, 1) for k in range(2, 10)] \
        + [(2, 2), (3, 3), (2, 5), (4, 4), (5, 3), (7, 7)]
    for rows, cols in shapes:
        for a in rng.standard_normal((20, rows, cols)) * rng.uniform(0.1, 10.0, size=(20, 1, 1)):
            vector = kind == "spectral" and min(rows, cols) == 1
            assert induced_norm(a, kind) == np.linalg.norm(a.ravel() if vector else a, order)
            assert vector_norm(a, kind) == np.linalg.norm(a.ravel(), order)


@st.composite
def vector_stacks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count, size = draw(st.integers(1, 30)), draw(st.integers(1, 6))
    # each row its own scale: in range, at either end of SAFE_SCALE, past it
    # by a little or a lot, subnormal, or zero
    scales = rng.choice([1.0, 1e-149, 1e149, 1e-150, 1e150, 1e-151, 1e151, 1e-170, 1e170,
                         1e-300, 1e300, 1e-320, 0.0], size=count)
    v = rng.standard_normal((count, size)) * scales[:, None]
    return v.reshape(count, size, 1) if draw(st.booleans()) else v.reshape(count, 1, size)


@settings(max_examples=300, deadline=None)
@given(vector_stacks())
def test_rows_in_the_safe_scale_keep_the_dot_product_bits(stack):
    got = induced_norms(stack)
    for norm, v in zip(got.tolist(), stack.reshape(len(stack), -1)):
        top = float(np.abs(v).max())
        if SAFE_SCALE[0] < top < SAFE_SCALE[1]:
            assert norm == float(np.sqrt(v @ v))
        else:
            assert norm == pytest.approx(math.hypot(*v.tolist()), rel=1e-15, abs=0.0)
        assert norm == induced_norm(v.reshape(stack.shape[1:]))
