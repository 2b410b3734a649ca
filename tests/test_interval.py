"""The interval tree's Jacobian enclosures, and the sampled L that they prune."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lscert
from lscert import (LscertError, SupremumEstimator, estimate_L, imft_quantities, index_split,
                    system_from_expressions)
from lscert.config import parse_config
from lscert.expr import (Binary, Func, Neg, Pow, StateVar, compile_duals, default_names,
                         parse_components, to_source)
from lscert.imft import _cells, certify_grid
from lscert.interval import compile_boxes
from lscert.norms import NORM_KINDS, box_norm_bounds, induced_norms
from lscert.sampling import ball_points
from conftest import _random_node

# every node kind: constants, both variable kinds, negation, + - * /, powers
# (0, odd, even) and every function
EVERY_KIND = (
    "-x1 + 2.5*l1 - x2/(l1 + 3) + x1^0 + x2^3 - x1^2",
    "tanh(l1*x2) + sech(x1 - l1) - exp(-x2)",
    "sin(3*x1) * cos(x2 + l1) + log(x1 + 4) + sqrt(x2 + 4)",
    "abs(x1 - 2) + min(x1, x2 + 3) + max(l1 + 5, x2) + 0.5*x1*x2",
)


def _asts(source, n, m):
    return parse_components(source, 1, *default_names(n, m))


def _boxes(rng, count, width):
    """count random boxes of the given dimension, with half-widths from tiny to wide."""
    center = rng.uniform(-1.5, 1.5, size=(count, width))
    half = rng.choice([0.0, 1e-9, 1e-3, 0.1, 0.7], size=(count, width))
    return center - half, center + half


def _assert_encloses(asts, n, m, rng, count=6, per_box=24):
    """Every box's enclosure holds the dual walk's Jacobian at corners and random points of it.

    A box where the dual walk raises at one of those points must be unbounded.
    """
    duals = compile_duals(asts, n, m, default_names(n, m), with_values=False)
    lo, hi = _boxes(rng, count, n + m)
    (jx_lo, jx_hi), (jl_lo, jl_hi) = compile_boxes(asts, n, m)(lo[:, :n], hi[:, :n], lo[:, n:],
                                                               hi[:, n:])
    box_lo, box_hi = np.concatenate([jx_lo, jl_lo], axis=2), np.concatenate([jx_hi, jl_hi], axis=2)
    for i in range(count):
        corners = rng.integers(0, 2, size=(per_box // 2, n + m)).astype(bool)
        points = np.vstack([np.where(corners, hi[i], lo[i]),
                            rng.uniform(lo[i], hi[i], size=(per_box // 2, n + m))])
        try:
            _, jx, jl = duals(points[:, :n], points[:, n:])
        except LscertError:
            assert np.isneginf(box_lo[i]).all() and np.isposinf(box_hi[i]).all()
            continue
        jac = np.concatenate([jx, jl], axis=2)
        assert (box_lo[i] <= jac).all() and (jac <= box_hi[i]).all(), (i, lo[i], hi[i])


@pytest.mark.parametrize("source", EVERY_KIND)
def test_every_node_kind_encloses_the_dual_jacobian(source):
    _assert_encloses(_asts(source, 2, 1), 2, 1, np.random.default_rng(11), count=40)


def _rotated(nd, n, shift):
    """nd reading state x_{(i + shift) mod n} where it read x_i: one row of a ring."""
    if isinstance(nd, StateVar):
        return StateVar((nd.index + shift) % n)
    if isinstance(nd, Neg):
        return Neg(_rotated(nd.arg, n, shift))
    if isinstance(nd, Binary):
        return Binary(nd.op, _rotated(nd.left, n, shift), _rotated(nd.right, n, shift))
    if isinstance(nd, Pow):
        return Pow(_rotated(nd.base, n, shift), nd.exponent)
    if isinstance(nd, Func):
        return Func(nd.name, tuple(_rotated(a, n, shift) for a in nd.args))
    return nd


@settings(deadline=None)  # examples: the hypothesis profile's
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_random_sources_enclose_the_dual_jacobian(seed, ring):
    # a ring's rows are one tree read at rotated states, walked side by side
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 4)), int(rng.integers(0, 3))
    asts = [_random_node(rng, n, m, int(rng.integers(1, 5))) for _ in range(int(rng.integers(1, 3)))]
    if ring:
        asts += [_rotated(asts[0], n, shift) for shift in range(1, n)]
    _assert_encloses(asts, n, m, rng)


def test_a_box_where_the_dual_walk_raises_is_unbounded():
    # the kink of abs, log and sqrt at 0, and a divisor interval that holds 0
    for source in ("abs(x1) + x2", "log(x1) + x2", "sqrt(x1) + x2", "x2/x1"):
        boxes = compile_boxes(_asts(source, 2, 0), 2, 0)
        lo, hi = np.array([[-0.5, 0.0], [0.5, 0.0]]), np.array([[0.5, 1.0], [1.0, 1.0]])
        (jx_lo, jx_hi), _ = boxes(lo, hi, np.zeros((2, 0)), np.zeros((2, 0)))
        assert np.isneginf(jx_lo[0]).all() and np.isposinf(jx_hi[0]).all(), source
        assert np.isfinite(jx_lo[1]).all() and np.isfinite(jx_hi[1]).all(), source


def test_ring4_box_bound_is_the_exact_range_of_its_deviation():
    # the ring's y-block is -I + diag(l sech^2(l y_{i+1})) shifted: over a
    # y-box [-r, r]^4 at the x-point l its deviation from the base block at
    # l = 0.5 has the norm bound max(|l - 0.5|, |l sech^2(l r) - 0.5|) up to rounding
    sys_ = system_from_expressions("; ".join(f"-x{i} + tanh(l1*x{i % 4 + 1})" for i in range(1, 5)),
                                   4, 1)
    f = index_split(sys_, [4], [0, 1, 2, 3])
    ls = np.array([[-0.1], [0.5], [0.8], [1.1]])
    lo, hi = f.dy_box(ls, ls, np.full(4, -0.3), np.full(4, 0.3))
    base = f.dy(np.array([0.5]), np.zeros(4))
    bound = box_norm_bounds(lo - base, hi - base)
    l = ls[:, 0]
    exact = np.maximum(np.abs(l - 0.5), np.abs(l / np.cosh(0.3 * l) ** 2 - 0.5))
    assert (bound >= exact).all() and (bound <= exact * (1 + 1e-13) + 1e-15).all()


def _random_split_view(rng, kind):
    """(split view, x0, y0): "index" splits one of EVERY_KIND plus a random
    source by coordinates, "kernel" is the kernel split of tanh2 or of a ring-4
    source."""
    if kind == "index":
        source = f"{EVERY_KIND[rng.integers(0, len(EVERY_KIND))]} + " \
            f"{to_source(_random_node(rng, 2, 1, int(rng.integers(1, 5))))}"
        y = int(rng.integers(0, 3))
        f = index_split(system_from_expressions(source, 2, 1, components=1),
                        [i for i in range(3) if i != y], [y])
        return f, np.zeros(2), np.zeros(1)
    ring4 = "; ".join(f"-x{i} + tanh(l1*x{i % 4 + 1})" for i in range(1, 5))
    model = ({"kind": "builtin", "name": "tanh2"} if rng.integers(0, 2)
             else {"kind": "expr", "source": ring4, "n": 4, "m": 1})
    sys_ = lscert.build_system(parse_config({"model": model}).model)
    ss = lscert.build_split_system(sys_, lscert.evaluation_point(sys_, np.zeros(sys_.n), [1.0]))
    return ss.as_split_function(), ss.par_center, ss.beta0


@settings(deadline=None)  # examples: the hypothesis profile's
@given(st.integers(min_value=0, max_value=2**32 - 1))
@pytest.mark.parametrize("kind", ["index", "kernel"])
def test_dy_box_over_x_cells_encloses_dy_many(kind, seed):
    # a sampled L_y encloses cells of x-points, each times one y-box; a box of
    # zero width in x is an x-point's own
    rng = np.random.default_rng(seed)
    f, x0, y0 = _random_split_view(rng, kind)
    count, per_box = 12, 16
    x_lo, x_hi = (x0 + end for end in _boxes(rng, count, f.n_x))
    y_lo, y_hi = (y0 + end[0] for end in _boxes(rng, 1, f.n_y))
    lo, hi = f.dy_box(x_lo, x_hi, y_lo, y_hi)
    for i in range(count):
        box_lo, box_hi = np.concatenate([x_lo[i], y_lo]), np.concatenate([x_hi[i], y_hi])
        corners = rng.integers(0, 2, size=(per_box // 2, len(box_lo))).astype(bool)
        points = np.vstack([np.where(corners, box_hi, box_lo),
                            rng.uniform(box_lo, box_hi, size=(per_box // 2, len(box_lo)))])
        try:
            dy = f.dy_many(points[:, :f.n_x], points[:, f.n_x:])
        except LscertError:
            assert np.isneginf(lo[i]).all() and np.isposinf(hi[i]).all()
            continue
        assert (lo[i] <= dy).all() and (dy <= hi[i]).all(), (i, box_lo, box_hi)


def test_box_norm_bounds_hold_every_matrix_of_the_box():
    rng = np.random.default_rng(5)
    lo = rng.standard_normal((200, 3, 4))
    hi = lo + rng.uniform(0.0, 1.0, size=lo.shape)
    inside = lo + rng.uniform(size=lo.shape) * (hi - lo)
    for kind in NORM_KINDS:
        assert (induced_norms(inside, kind) <= box_norm_bounds(lo, hi, kind)).all()
    lo[0, 1, 2] = -np.inf
    assert box_norm_bounds(lo, hi)[0] == np.inf


# --- error paths: a box that may raise is never skipped or taken early --------

# x := x1 at 0 over spd-5 radius 0.2, y := x2 at 0 over spd-5 radius 0.1; each
# raises only on the product lattice, at the x-points whose boxes are unbounded
ERROR_MODELS = (
    # the kink x1 - x2 = 0.15 at (0.1, -0.05) and (0.2, 0.05)
    ("x2 + x1*abs(x1 - x2 - 0.15)", "abs argument within 1e-12 of the kink"),
    # the argument reaches 0 where x1 + x2 <= -0.25; the message names the first value
    ("x2 + x1*log(x1 + x2 + 0.25)", "log of non-positive value"),
    # x2 = 0.1 is a lattice point of every x-point's y-ball
    ("x2 + x1/(x2 - 0.1)", "division by zero"),
)


@pytest.mark.parametrize("source,text", ERROR_MODELS)
def test_a_raising_model_keeps_the_error_of_the_unpruned_sampler(source, text):
    f = index_split(system_from_expressions(source, 2, 0, components=1), [0], [1])
    x0, y0, est = np.zeros(1), np.zeros(1), SupremumEstimator(samples_per_dim=5)
    with pytest.raises(LscertError) as unpruned:
        estimate_L(dataclasses.replace(f, dy_box=None), x0, y0, 0.2, 0.1, est)
    assert text in str(unpruned.value)
    with pytest.raises(type(unpruned.value), match=re.escape(str(unpruned.value)) + "$"):
        estimate_L(f, x0, y0, 0.2, 0.1, est)
    # the x-points whose boxes hold a raising point are unbounded, and only they
    pts_x, pts_y = ball_points(x0, 0.2, 5), ball_points(y0, 0.1, 5)
    lo, hi = f.dy_box(pts_x, pts_x, pts_y.min(axis=0), pts_y.max(axis=0))
    unbounded = np.isinf(box_norm_bounds(lo, hi))
    raises = []
    for px in pts_x:
        try:
            f.dy_many(np.repeat(px[None], len(pts_y), axis=0), pts_y)
            raises.append(False)
        except LscertError:
            raises.append(True)
    assert (unbounded >= np.array(raises)).all() and any(raises)


@pytest.mark.parametrize("source,text", ERROR_MODELS)
def test_a_raising_model_on_cells_keeps_the_error_of_the_unpruned_sampler(source, text):
    # spd 65 puts 65 x-points in the x-ball, 4 cells of them (imft._cells); a
    # cell that holds a raising pair is unbounded and never dropped whole
    f = index_split(system_from_expressions(source, 2, 0, components=1), [0], [1])
    x0, y0, est = np.zeros(1), np.zeros(1), SupremumEstimator(samples_per_dim=65)
    assert len(_cells(ball_points(x0, 0.2, 65))[1]) == 4
    with pytest.raises(LscertError) as unpruned:
        estimate_L(dataclasses.replace(f, dy_box=None), x0, y0, 0.2, 0.1, est)
    assert text in str(unpruned.value)
    with pytest.raises(type(unpruned.value), match=re.escape(str(unpruned.value)) + "$"):
        estimate_L(f, x0, y0, 0.2, 0.1, est)


def test_a_stopped_midpoint_with_a_raising_box_keeps_the_error_of_the_unpruned_sampler():
    # the frontier midpoint r_x = 0.5 of the grid (0.25, 0.75) at r_y = 0.2:
    # its first x-point, -0.5, meets the kink at y = -0.1, and its last,
    # 0.5, has the largest finite bound and alone refutes the pair. Taken
    # first, it would stop the call before the kink is reached; the grid
    # balls hold no lattice pair on the kink
    sys_ = system_from_expressions("x2 + 3*x1*x2 + 0.01*abs(x1 + x2 + 0.6)", 2, 0, components=1)
    f = index_split(sys_, [0], [1])
    assert ball_points(np.zeros(1), 0.5, 5)[[0, -1], 0].tolist() == [-0.5, 0.5]
    est = SupremumEstimator(samples_per_dim=5)

    def region(view):
        return certify_grid(imft_quantities(view, np.zeros(1), np.zeros(1), est), [0.25, 0.75],
                            [0.2])

    with pytest.raises(LscertError) as unpruned:
        region(dataclasses.replace(f, dy_box=None))
    assert "abs argument within 1e-12 of the kink" in str(unpruned.value)
    with pytest.raises(type(unpruned.value), match=re.escape(str(unpruned.value)) + "$"):
        region(f)


def test_a_stopped_midpoint_on_cells_keeps_the_error_of_the_unpruned_sampler():
    # the test above at spd 65, where every x-ball holds 4 cells: the frontier
    # midpoint r_x = 0.49 of the grid (0.25, 0.73) at r_y = 0.2 meets the kink
    # at its first x-point, -0.49, and y = -0.1, so its first cell is
    # unbounded; its last x-point, 0.49, alone refutes the pair. Taken first,
    # it would stop the call before the kink is reached; the grid balls hold
    # no lattice pair on the kink
    sys_ = system_from_expressions("x2 + 3*x1*x2 + 0.01*abs(x1 + x2 + 0.59)", 2, 0, components=1)
    f = index_split(sys_, [0], [1])
    mid = ball_points(np.zeros(1), 0.5 * (0.25 + 0.73), 65)
    assert mid[[0, -1], 0].tolist() == [-0.49, 0.49] and len(_cells(mid)[1]) == 4
    est = SupremumEstimator(samples_per_dim=65)

    def region(view):
        return certify_grid(imft_quantities(view, np.zeros(1), np.zeros(1), est), [0.25, 0.73],
                            [0.2])

    with pytest.raises(LscertError) as unpruned:
        region(dataclasses.replace(f, dy_box=None))
    assert "abs argument within 1e-12 of the kink" in str(unpruned.value)
    with pytest.raises(type(unpruned.value), match=re.escape(str(unpruned.value)) + "$"):
        region(f)
