import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lscert
from lscert import (
    NonFinite,
    SingularDyf,
    SupremumEstimator,
    certify_region,
    check_conditions,
    compute_M,
    estimate_L,
    imft_quantities,
    split_function,
    witness_check,
)
from lscert import imft
from lscert.cli import _combined_split
from lscert.config import parse_config
from lscert.imft import FrontierPoint, certify_grid
from lscert.norms import NORM_KINDS, induced_norm, induced_norms
from lscert.sampling import ball_points, max_over
from lscert.system import fd_jacobians
from conftest import (
    expr_jacobian_pair,
    expr_jacobians,
    full_scan_region,
    per_point_L,
    per_point_witness,
    split_view_blocks,
    tanh2_jac_lambda,
    tanh2_jac_x,
)


def parabola():
    # f(x, y) = y - x^2: D_x f = -2x, D_y f = 1
    return split_function(
        lambda x, y: np.array([y[0] - x[0] ** 2]), 1, 1,
        jac_x=lambda x, y: np.array([[-2.0 * x[0]]]),
        jac_y=lambda x, y: np.array([[1.0]]),
    )


X0 = np.array([0.0])
Y0 = np.array([0.0])


def test_base_norms_match_closed_form():
    m_x, m_y = compute_M(parabola(), X0, Y0)
    assert m_x == 0.0
    assert m_y == 1.0


def test_deviation_bounds_match_closed_form_exactly():
    # the x-deviation |D_x f(x) - D_x f(0)| = 2|x| peaks at the axis points,
    # which the sampler contains for every samples_per_dim
    f = parabola()
    est = SupremumEstimator(samples_per_dim=5)
    for r in (0.0, 0.1, 0.25, 1.0):
        l_x, l_y = estimate_L(f, X0, Y0, r, 0.7, est)
        assert l_x == 2.0 * r
        assert l_y == 0.0


def test_certified_set_is_exactly_the_closed_form_region():
    region, q = certify_region(parabola(), X0, Y0, [0.1, 0.2, 0.3], [0.1, 0.3],
                               SupremumEstimator(samples_per_dim=5))
    got = {(e.r_x, e.r_y) for e in region.entries if e.certified}
    want = {(rx, ry) for rx in (0.1, 0.2, 0.3) for ry in (0.1, 0.3) if 2 * rx * rx < ry}
    assert got == want
    assert not region.rigorous  # sampled bounds are best effort
    assert region.any_certified


def test_strict_inequalities_fail_on_zero_margin():
    # f(x, y) = y - x has M_x = M_y = 1 and L == 0, so the domain margin is
    # exactly r_y - r_x; equality must not certify
    f = split_function(lambda x, y: np.array([y[0] - x[0]]), 1, 1,
                       jac_x=lambda x, y: np.array([[-1.0]]),
                       jac_y=lambda x, y: np.array([[1.0]]))
    q = imft_quantities(f, X0, Y0, SupremumEstimator(samples_per_dim=3))
    check = check_conditions(q, 0.25, 0.25)
    assert check.margin_domain == 0.0
    assert not check.certified
    assert check_conditions(q, 0.25, 0.2500001).certified


def test_witness_confirms_certified_pairs():
    w = witness_check(parabola(), X0, Y0, 0.2, 0.3, n_samples=100, seed=0)
    assert w.converged == w.total == 100
    assert w.max_y_norm < 0.3
    assert w.ok
    # same seed, same verdict (deterministic sampling)
    again = witness_check(parabola(), X0, Y0, 0.2, 0.3, n_samples=100, seed=0)
    assert again == w


def _witness_case(name):
    """(f, x0, y0, r_x, r_y) of a witness run; some of them have samples that fail."""
    if name == "parabola":
        return parabola(), X0, Y0, 0.2, 0.3
    if name == "exp":
        # exp(y) = x + 1 has no root for x <= -1
        f = split_function(lambda x, y: np.array([np.exp(y[0]) - x[0] - 1.0]), 1, 1,
                           jac_x=lambda x, y: np.array([[-1.0]]),
                           jac_y=lambda x, y: np.array([[np.exp(y[0])]]))
        return f, X0, Y0, 2.0, 1.0
    if name == "square":
        # D_y f = 2 y vanishes at y0 = 0: every solve from it is singular
        f = split_function(lambda x, y: np.array([y[0] ** 2 - x[0]]), 1, 1,
                           jac_x=lambda x, y: np.array([[-1.0]]),
                           jac_y=lambda x, y: np.array([[2.0 * y[0]]]))
        return f, X0, Y0, 2.0, 1.0
    f, x0, y0, _, _, ((r_x, r_y), *_), _, _ = _sampler_case(name)
    # away from the base y0 the solutions move with x
    return f, x0, y0 + np.linspace(-0.3, 0.2, len(y0)), r_x, r_y


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("norm_kind", NORM_KINDS)
@pytest.mark.parametrize("name", ["parabola", "exp", "square", "tanh2", "ring4-ls", "ring4-imft"])
def test_witness_equals_the_per_sample_loop(name, norm_kind, seed):
    f, x0, y0, r_x, r_y = _witness_case(name)
    w = witness_check(f, x0, y0, r_x, r_y, n_samples=40, norm_kind=norm_kind, seed=seed)
    converged, max_norm, ok = per_point_witness(f, x0, y0, r_x, r_y, 40, norm_kind, seed)
    assert (w.converged, w.max_y_norm.hex(), w.ok) == (converged, max_norm.hex(), ok)
    assert w.total == 40
    if name in ("exp", "square"):
        assert w.converged < w.total


@pytest.mark.parametrize("seed", [0, 3])
def test_witness_raises_the_error_of_the_first_failing_sample(seed):
    # log(l1) and log(l2) fail at samples with l1 <= 0 or l2 <= 0; a batched
    # walk meets the log(l1) node first, at every sample, while at seed 0 the
    # first failing sample fails at log(l2) only
    sys_ = lscert.system_from_expressions("x1 - log(l1); x2 - log(l2)", 2, 2)
    f = imft.index_split(sys_, [2, 3], [0, 1])
    x0 = np.array([0.4, 0.3])
    with pytest.raises(lscert.DomainError) as batched:
        witness_check(f, x0, np.log(x0), 0.5, 1.0, n_samples=40, seed=seed)
    with pytest.raises(lscert.DomainError) as per_sample:
        per_point_witness(f, x0, np.log(x0), 0.5, 1.0, 40, "spectral", seed)
    assert str(batched.value) == str(per_sample.value)
    assert ("'log(l2)'" in str(batched.value)) == (seed == 0)


def test_witness_makes_one_value_call_per_newton_evaluation(monkeypatch):
    f, x0, y0, r_x, r_y = _witness_case("ring4-imft")
    value_rows, residual_rows = [], []
    counted = dataclasses.replace(
        f, value_many=lambda X, Y: value_rows.append(len(X)) or f.value_many(X, Y))
    newton = imft.damped_newton_many

    def counting_newton(residual, *args, **kwargs):
        return newton(lambda Z, rows: residual_rows.append(len(rows)) or residual(Z, rows),
                      *args, **kwargs)

    monkeypatch.setattr(imft, "damped_newton_many", counting_newton)
    w = witness_check(counted, x0, y0, r_x, r_y, n_samples=200)
    assert w.converged == w.total == 200
    # the target f(x0, y0), then one call per residual evaluation, over its rows
    assert value_rows == [1] + residual_rows
    assert residual_rows[0] == 200 and len(residual_rows) < 20


@pytest.mark.parametrize("name", ["parabola-fd", "tanh2", "ring4-imft"])
def test_per_point_forms_are_rows_of_the_batched_calls(name):
    # split_function, the kernel split and the index split: value, dx and dy
    # at a point are its row of a many-point call, bit for bit
    f, x0, y0, _, _, ((r_x, r_y), *_), _, _ = _sampler_case(name)
    rng = np.random.default_rng(909)
    xs = x0 + rng.uniform(-r_x, r_x, size=(30, f.n_x))
    ys = y0 + rng.uniform(-r_y, r_y, size=(30, f.n_y))
    batched = f.value_many(xs, ys), f.dx_many(xs, ys), f.dy_many(xs, ys)
    assert batched[0].shape == (30, f.n_y)
    for i, (x, y) in enumerate(zip(xs, ys)):
        for one, many in zip((f.value(x, y), f.dx(x, y), f.dy(x, y)), batched):
            assert one.tobytes() == many[i].tobytes()


@pytest.mark.parametrize("x_indices, y_indices, message", [
    ([0], [0], "must partition 0..2"), ([0], [1], "must partition 0..2"),
    ([1, 2, 3], [0], "must partition 0..2"),
    ([2], [0, 1], r"model has 1 component\(s\); y_indices must have that length, got 2"),
])
def test_index_split_takes_only_a_partition_with_one_component_per_y(x_indices, y_indices,
                                                                     message):
    # an index left out would be read from uninitialised memory
    sys_ = lscert.system_from_expressions("x2 - x1^2 + l1", 2, 1, components=1)
    with pytest.raises(lscert.DimensionMismatch, match=message):
        imft.index_split(sys_, x_indices, y_indices)
    assert imft.index_split(sys_, [0, 2], [1]).n_x == 2


def test_singular_dy_is_reported():
    f = split_function(lambda x, y: np.array([x[0] * y[0]]), 1, 1)
    with pytest.raises(SingularDyf):
        compute_M(f, X0, Y0)


def test_estimator_validation():
    with pytest.raises(ValueError):
        SupremumEstimator(mode="other")
    with pytest.raises(ValueError):
        SupremumEstimator(samples_per_dim=1)
    with pytest.raises(ValueError):
        SupremumEstimator(safety_factor=0.5)
    with pytest.raises(ValueError):
        SupremumEstimator(mode="analytic")


def test_safety_factor_scales_sampled_estimates_only():
    f = parabola()
    plain = SupremumEstimator(samples_per_dim=5)
    inflated = SupremumEstimator(samples_per_dim=5, safety_factor=1.5)
    l_plain, _ = estimate_L(f, X0, Y0, 0.4, 0.1, plain)
    l_infl, _ = estimate_L(f, X0, Y0, 0.4, 0.1, inflated)
    assert l_infl == 1.5 * l_plain
    override = SupremumEstimator(mode="analytic", safety_factor=1.5,
                                 override_L_x=lambda r: 2.0 * r,
                                 override_L_y=lambda rx, ry: 0.0)
    l_over, _ = estimate_L(f, X0, Y0, 0.4, 0.1, override)
    assert l_over == 0.8  # overrides are trusted as given, not inflated


def test_override_marks_run_rigorous():
    est = SupremumEstimator(mode="analytic",
                            override_L_x=lambda r: 2.0 * r,
                            override_L_y=lambda rx, ry: 0.0)
    region, q = certify_region(parabola(), X0, Y0, [0.1], [0.1], est)
    assert q.rigorous and region.rigorous


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_sampled_L_monotone_in_radius(r1, r2):
    f = parabola()
    est = SupremumEstimator(samples_per_dim=5)
    lo, hi = sorted((r1, r2))
    l_lo, _ = estimate_L(f, X0, Y0, lo, 0.1, est)
    l_hi, _ = estimate_L(f, X0, Y0, hi, 0.1, est)
    assert l_lo <= l_hi


@pytest.mark.parametrize("spd", [2, 3, 5, 9, 17])
def test_doubling_samples_never_loses_points(spd):
    center = np.array([0.3, -0.2])
    small = ball_points(center, 0.7, spd)
    large = ball_points(center, 0.7, 2 * spd)
    small_set = {tuple(p) for p in small}
    large_set = {tuple(p) for p in large}
    assert small_set <= large_set


def test_doubling_samples_never_decreases_estimate():
    f = parabola()
    for spd in (2, 3, 5, 9):
        l_small, _ = estimate_L(f, X0, Y0, 0.33, 0.1, SupremumEstimator(samples_per_dim=spd))
        l_large, _ = estimate_L(f, X0, Y0, 0.33, 0.1,
                                SupremumEstimator(samples_per_dim=2 * spd))
        assert l_small <= l_large


def test_sampled_estimate_is_lower_bound_of_truth():
    f = parabola()
    for spd in (2, 5, 17):
        l_x, _ = estimate_L(f, X0, Y0, 0.5, 0.1, SupremumEstimator(samples_per_dim=spd))
        assert l_x <= 2.0 * 0.5 + 1e-15


def test_L_at_zero_radius_is_zero():
    l_x, l_y = estimate_L(parabola(), X0, Y0, 0.0, 0.0, SupremumEstimator(samples_per_dim=9))
    assert l_x == 0.0 and l_y == 0.0


def test_empty_y_block_certifies_on_domain_condition_alone():
    # no y variables at all: M_y = 0 by convention and the budget is infinite
    f = split_function(lambda x, y: np.zeros(0), 1, 0,
                       jac_x=lambda x, y: np.zeros((0, 1)),
                       jac_y=lambda x, y: np.zeros((0, 0)))
    q = imft_quantities(f, X0, np.zeros(0), SupremumEstimator(samples_per_dim=3))
    assert q.M_y == 0.0
    check = check_conditions(q, 1.0, 0.0)
    assert check.certified and check.margin_domain == np.inf


def test_max_over_rejects_non_finite():
    with pytest.raises(NonFinite):
        max_over([np.array([0.0])], lambda p: float("nan"))


def test_frontier_reports_largest_certified_radius_per_level():
    est = SupremumEstimator(samples_per_dim=5)
    region, _ = certify_region(parabola(), X0, Y0, [0.05, 0.1, 0.15, 0.2, 0.25],
                               [0.1], est)
    (front,) = region.frontier
    assert front.r_y == 0.1
    # true boundary is 2 r_x^2 = 0.1, i.e. r_x ~ 0.2236; one bisection step
    # from the grid brackets it within half a grid cell
    assert 0.2 <= front.r_x_max <= 0.25
    region_none, _ = certify_region(parabola(), X0, Y0, [0.5], [0.1], est)
    assert region_none.frontier[0].r_x_max is None
    assert not region_none.any_certified


def test_ball_points_holds_each_point_once():
    # odd samples_per_dim chains lattices that land on each other's points
    for dim, spd in ((1, 33), (2, 9), (3, 5), (4, 7)):
        for norm_kind in NORM_KINDS:
            pts = ball_points(np.linspace(-0.3, 0.4, dim), 0.8, spd, norm_kind)
            rows = [row.tobytes() for row in pts]
            assert len(set(rows)) == len(rows), (dim, spd, norm_kind)


# --- the chunked sampler against the per-point loop ---------------------------

RING4 = "-x1 + tanh(l1*x2); -x2 + tanh(l1*x3); -x3 + tanh(l1*x4); -x4 + tanh(l1*x1)"
RING6 = "; ".join(f"-x{i} + tanh(l1*x{i % 6 + 1})" for i in range(1, 7))


def _ls_case(model, jacs, spd, radii, weights=None):
    sys_ = lscert.build_system(parse_config({"model": model}).model)
    point = lscert.evaluation_point(sys_, np.zeros(sys_.n), [1.0])
    ss = lscert.build_split_system(sys_, point)
    return (ss.as_split_function(), ss.par_center, ss.beta0, ss.base_blocks, spd, radii, weights,
            split_view_blocks(ss, *jacs))


def _combined_blocks(jacobians, n, x_idx, y_idx):
    # per-point blocks of the combined (state ++ parameter) split;
    # jacobians(x, lam) gives both blocks of the system
    def full(x, y):
        u = np.empty(len(x_idx) + len(y_idx))
        u[x_idx], u[y_idx] = x, y
        return np.hstack(jacobians(u[:n], u[n:]))

    return (lambda x, y: full(x, y)[:, x_idx]), (lambda x, y: full(x, y)[:, y_idx])


def _fd_blocks(fun, n_x, n_y):
    return (lambda x, y: fd_jacobians(fun, n_x, n_y, x, y)[0],
            lambda x, y: fd_jacobians(fun, n_x, n_y, x, y)[1])


def _sampler_case(name):
    """(f, x0, y0, base, spd, radii, weights, per-point reference (dx, dy))."""
    tanh2 = {"kind": "builtin", "name": "tanh2"}
    tanh2_jacs = (tanh2_jac_x, tanh2_jac_lambda)
    ring4 = {"kind": "expr", "source": RING4, "n": 4, "m": 1}
    if name == "tanh2":
        return _ls_case(tanh2, tanh2_jacs, 9, [(0.5, 0.5), (1.5, 2.0)])
    if name == "tanh2-steep":
        return _ls_case(tanh2, tanh2_jacs, 5, [(1.0, 400.0)])
    if name == "tanh2-cells":
        # 145 to 289 x-points at spd 17, by norm kind: the sampled L_y bounds
        # cells of them (imft._cells) before single x-points
        return _ls_case(tanh2, tanh2_jacs, 17, [(0.75, 3.0)])
    if name == "tanh2-weights":
        return _ls_case(tanh2, tanh2_jacs, 9, [(1.0, 0.5)], weights=np.array([1.0, 0.5]))
    if name == "ring4-ls":
        return _ls_case(ring4, expr_jacobians(RING4, 4, 1), 5, [(1.0, 0.5)])
    if name == "ring4-ls-tiny":
        # deviations of about 1e-9, which the float products round by about 1e-16
        return _ls_case(ring4, expr_jacobians(RING4, 4, 1), 5, [(1e-9, 1e-9)])
    if name == "ring4-ls-foreign":
        # a base block that is not the view's own W^T J Vperp
        f, x0, y0, base, *rest = _ls_case(ring4, expr_jacobians(RING4, 4, 1), 5, [(1.0, 0.5)])
        return (f, x0, y0, dataclasses.replace(base, dy=base.dy + 1e-6), *rest)
    if name == "ring6-ls":
        # 5 x 5 y-blocks: most chunks hold a few survivors, and the Gram bound
        # rules out matrices that the cheap bounds keep
        ring6 = {"kind": "expr", "source": RING6, "n": 6, "m": 1}
        return _ls_case(ring6, expr_jacobians(RING6, 6, 1), 3, [(1.0, 0.5), (0.5, 1.5)])
    if name == "ring4-imft":
        cfg = parse_config({
            "model": ring4, "base_point": {"x0": [0.5], "y0": [0.0] * 4},
            "imft": {"x_indices": [4], "y_indices": [0, 1, 2, 3],
                     "r_x_grid": [0.4], "r_y_grid": [0.3]}})
        f = _combined_split(cfg.model, cfg.imft, cfg.base_point)
        ref = _combined_blocks(expr_jacobian_pair(RING4, 4, 1), 4, [4], [0, 1, 2, 3])
        return f, np.array([0.5]), np.zeros(4), None, 5, [(0.4, 0.3)], None, ref
    if name == "parabola-fd":
        fun = lambda x, y: np.array([y[0] - x[0] ** 2])
        return split_function(fun, 1, 1), X0, Y0, None, 9, [(0.3, 0.2)], None, _fd_blocks(fun, 1, 1)
    assert name == "empty-y"
    fun = lambda x, y: np.zeros(0)
    return (split_function(fun, 2, 0), np.zeros(2), np.zeros(0), None, 5, [(0.5, 0.0)], None,
            _fd_blocks(fun, 2, 0))


SAMPLER_CASES = ["tanh2", "tanh2-steep", "tanh2-weights", "ring4-ls", "ring6-ls", "ring4-imft",
                 "parabola-fd", "empty-y"]


@pytest.mark.parametrize("name", SAMPLER_CASES)
def test_batched_blocks_equal_per_point_blocks_bitwise(name):
    f, x0, y0, _, _, radii, _, (dx_ref, dy_ref) = _sampler_case(name)
    r_x, r_y = radii[0]
    rng = np.random.default_rng(707)
    xs = x0 + rng.uniform(-r_x, r_x, size=(50, f.n_x))
    ys = y0 + rng.uniform(-r_y, r_y, size=(50, f.n_y))
    dx, dy = f.dx_many(xs, ys), f.dy_many(xs, ys)
    for i, (x, y) in enumerate(zip(xs, ys)):
        assert dx[i].tobytes() == dx_ref(x, y).tobytes()
        assert dy[i].tobytes() == dy_ref(x, y).tobytes()
        assert f.dx(x, y).tobytes() == dx[i].tobytes()
        assert f.dy(x, y).tobytes() == dy[i].tobytes()


def test_batched_norms_equal_per_matrix_norms_bitwise():
    rng = np.random.default_rng(808)
    shapes = [(1, k) for k in range(1, 10)] + [(k, 1) for k in range(2, 10)] \
        + [(3, 3), (2, 5), (4, 4), (0, 3)]
    for rows, cols in shapes:
        stack = rng.standard_normal((60, rows, cols)) * rng.uniform(0.1, 10.0, size=(60, 1, 1))
        for norm_kind in NORM_KINDS:
            got = induced_norms(stack, norm_kind)
            for i, a in enumerate(stack):
                assert got[i] == induced_norm(a, norm_kind), (rows, cols, norm_kind)


@pytest.mark.parametrize("norm_kind", NORM_KINDS)
@pytest.mark.parametrize("name", SAMPLER_CASES)
def test_chunked_L_equals_the_per_point_loop_bitwise(name, norm_kind, monkeypatch):
    f, x0, y0, base, spd, radii, weights, (dx_ref, dy_ref) = _sampler_case(name)
    est = SupremumEstimator(samples_per_dim=spd)
    batches = []
    monkeypatch.setattr(imft, "induced_norms", lambda a, kind: batches.append(len(a))
                        or induced_norms(a, kind))
    for r_x, r_y in radii:
        want = per_point_L(dx_ref, dy_ref, x0, y0, r_x, r_y, spd, norm_kind, weights, base)
        for chunk in (1, 7, 10**9):  # 10**9: every pair in one chunk
            monkeypatch.setattr(imft, "CHUNK_PAIRS", chunk)
            batches.clear()
            got = estimate_L(f, x0, y0, r_x, r_y, est, norm_kind, weights, base)
            assert got == want, (r_x, r_y, chunk)
            # a chunk's survivors join fewer than CHUNK_PAIRS held matrices
            assert max(batches, default=0) < 2 * chunk, (r_x, r_y, chunk)


def test_a_failing_chunk_surfaces_the_first_failing_pairs_error(monkeypatch):
    # the batched block checks its rows last to first and raises a plain
    # exception, as a user's batched Jacobian may; the pair-by-pair replay
    # must still report the first failing pair in sampling order
    def jac_x_many(X, Y):
        for x in X[::-1]:
            if abs(x[0]) > 0.5:
                raise ValueError(f"bad row {float(x[0])}")
        return -2.0 * X[:, :, None]

    f = dataclasses.replace(parabola(), jac_x_many=jac_x_many)
    first = next(float(p[0]) for p in ball_points(X0, 1.0, 9, "spectral") if abs(p[0]) > 0.5)
    monkeypatch.setattr(imft, "CHUNK_PAIRS", 10**9)
    with pytest.raises(ValueError, match=re.escape(f"bad row {first}") + "$"):
        estimate_L(f, X0, Y0, 1.0, 0.1, SupremumEstimator(samples_per_dim=9))


def test_a_chunk_that_raises_while_survivors_are_held_surfaces_the_first_failing_pair(monkeypatch):
    # 2 x 2 y-blocks whose norm falls with |x|, one x per chunk: after the
    # first chunk only the zero matrix at x = 0 survives, so the survivors
    # are still held, without an SVD, when the chunk of the first failing
    # pair raises; the batched block checks its rows last to first
    def jac_y_many(X, Y):
        for x in X[::-1]:
            if x[0] > 0.5:
                raise ValueError(f"bad row {float(x[0])}")
        out = np.zeros((len(X), 2, 2))
        out[:, 0, 0], out[:, 0, 1], out[:, 1, 0] = X[:, 0], Y[:, 0], Y[:, 1]
        return out

    f = dataclasses.replace(parabola(), n_y=2, jac_y_many=jac_y_many)
    base = imft.BaseBlocks(dx=np.zeros((2, 1)), dy=np.zeros((2, 2)))
    pts_x = ball_points(X0, 1.0, 9, "spectral")
    pts_y = ball_points(np.zeros(2), 0.1, 5, "spectral")
    first = next(float(p[0]) for p in pts_x if p[0] > 0.5)
    assert pts_x[0, 0] == -1.0
    held, svds, survivors = [], [], imft.norm_survivors

    def recording(*args):
        best, keep, upper = survivors(*args)
        held.append(len(upper))
        return best, keep, upper

    monkeypatch.setattr(imft, "norm_survivors", recording)
    monkeypatch.setattr(imft, "induced_norms", lambda a, kind: svds.append(len(a)))
    monkeypatch.setattr(imft, "CHUNK_PAIRS", len(pts_y))  # one x per chunk
    with pytest.raises(ValueError, match=re.escape(f"bad row {first}") + "$"):
        imft._sampled_L(f.dy_many, base.dy, pts_x, pts_y, "spectral")
    assert held[0] > 0 and sum(held) < len(pts_y) and svds == []


# --- the frontier midpoint is sampled only as far as its verdict needs --------

# the imft-ring4-dsl benchmark grid at seed 0, spd 7: r_x 0.1 and 0.4 are
# certified, so the frontier midpoint is 0.5 * (0.4 + 0.8), and its L_y is
# refuted after the first of its three lattice chunks
RING4_GRID = ([0.1, 0.4, 0.8, 1.6], [0.3])
RING4_MID = 0.5 * (0.4 + 0.8)


def _grid_case(name, norm_kind="spectral", weighted=False, spd=5):
    """(fresh quantities, per-point (L_x, L_y), r_x range, r_y range) of a certify_grid case."""
    if name == "parabola":
        f, x0, y0, base = parabola(), X0, Y0, None
        refs = (lambda x, y: np.array([[-2.0 * x[0]]]), lambda x, y: np.array([[1.0]]))
        ranges = (0.0, 0.5), (0.0, 0.5)
    else:
        f, x0, y0, base, *_, refs = _sampler_case(name)
        ranges = ((0.0, 2.5), (0.1, 1.0)) if name == "ring4-ls" else ((0.0, 2.0), (0.1, 0.6))
    w = 0.5 + 0.25 * np.arange(f.n_x) if weighted else None
    est = SupremumEstimator(samples_per_dim=spd)
    return ((lambda: imft_quantities(f, x0, y0, est, norm_kind, w, base)),
            (lambda r_x, r_y: per_point_L(*refs, x0, y0, r_x, r_y, spd, norm_kind, w, base)),
            *ranges)


# the per-point reference takes about half a second per example at spd 5, so
# this test runs the hypothesis profile's examples up to 50
@settings(max_examples=min(settings.default.max_examples, 50), deadline=None)
@given(chunk=st.sampled_from([7, 64, 1024]), norm_kind=st.sampled_from(NORM_KINDS),
       weighted=st.booleans(), data=st.data())
@pytest.mark.parametrize("name", ["parabola", "ring4-ls", "ring4-imft"])
def test_certify_grid_equals_the_full_scan_reference(name, chunk, norm_kind, weighted, data):
    make, per_point, (x_lo, x_hi), (y_lo, y_hi) = _grid_case(name, norm_kind, weighted)
    r_x_grid = data.draw(st.lists(st.floats(x_lo, x_hi, allow_subnormal=False),
                                  min_size=1, max_size=5))
    r_y_grid = data.draw(st.lists(st.floats(y_lo, y_hi, allow_subnormal=False),
                                  min_size=1, max_size=2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(imft, "CHUNK_PAIRS", chunk)
        got = certify_grid(make(), r_x_grid, r_y_grid)
    assert got == full_scan_region(make(), r_x_grid, r_y_grid, per_point)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("norm_kind", NORM_KINDS)
@pytest.mark.parametrize("name", ["tanh2", "ring4-ls", "ring4-imft", "tanh2-cells",
                                  "ring4-ls-tiny", "ring6-ls", "ring4-ls-foreign"])
def test_pruned_L_equals_the_per_point_loop(name, norm_kind, weighted):
    # the views of DSL systems, the builtin tanh2's kernel split included,
    # have a dy enclosure: the sampled L_y skips the x-points whose box bound
    # cannot reach the floor, and stays the per-point maximum
    f, x0, y0, base, spd, ((r_x, r_y), *_), _, refs = _sampler_case(name)
    rows = []
    f = dataclasses.replace(f, jac_y_many=_counting(rows)(f.jac_y_many))
    w = 0.5 + 0.25 * np.arange(f.n_x) if weighted else None
    want = per_point_L(*refs, x0, y0, r_x, r_y, spd, norm_kind, w, base)
    assert estimate_L(f, x0, y0, r_x, r_y, SupremumEstimator(samples_per_dim=spd), norm_kind, w,
                      base) == want
    lattice = len(ball_points(x0, r_x, spd, norm_kind, w)) * len(ball_points(y0, r_y, spd, norm_kind))
    # weighted ring-6 at spd 3 has 7 x-points; the one with the largest box
    # bound, taken first, attains 0.53, below every other x-point's bound
    if (name, norm_kind, weighted) != ("ring6-ls", "spectral", True):
        assert sum(rows) < lattice


def test_full_state_bound_prunes_the_ring4_benchmark_grid(monkeypatch):
    # the ls-ring4-dsl benchmark grid at seed 0, spd 7: five L_perp calls over
    # 19,995 lattice pairs, of which the hull bound alone leaves 10,707 to
    # evaluate and the full-state spectral box bound 1,161; L_par adds 155
    rows = []
    jacobians = lscert.ParametricSystem.jacobians
    monkeypatch.setattr(lscert.ParametricSystem, "jacobians",
                        lambda self, X, Lam: rows.append(len(X)) or jacobians(self, X, Lam))
    sys_ = lscert.system_from_expressions(RING4, 4, 1)
    ss = lscert.build_split_system(sys_, lscert.evaluation_point(sys_, np.zeros(4), [1.0]))
    rows.clear()
    lscert.certify_ls_region(ss, [0.5, 1.0, 1.5, 2.0], [0.5], SupremumEstimator(samples_per_dim=7))
    assert 0 < sum(rows) <= 2000


@pytest.mark.parametrize("norm_kind", NORM_KINDS)
def test_the_cell_path_equals_the_per_point_reference(norm_kind):
    # test_pruned_L_equals_the_per_point_loop holds this case's L to
    # per_point_L. Its enclosures hold fewer boxes than its ball has
    # x-points, and every grid pair and the frontier midpoint 1.75 take cells
    f, x0, y0, base, spd, ((r_x, r_y), *_), _, refs = _sampler_case("tanh2-cells")
    boxes = []
    f = dataclasses.replace(f, dy_box=lambda *ends, box=f.dy_box: boxes.append(len(ends[0]))
                            or box(*ends))
    est = SupremumEstimator(samples_per_dim=spd)
    pts_x = ball_points(x0, r_x, spd, norm_kind)
    assert len(imft._cells(pts_x)[1]) > 1
    estimate_L(f, x0, y0, r_x, r_y, est, norm_kind, base=base)
    assert 0 < sum(boxes) < len(pts_x)
    q = imft_quantities(f, x0, y0, est, norm_kind, base=base)
    per_point = lambda r_x, r_y: per_point_L(*refs, x0, y0, r_x, r_y, spd, norm_kind, base=base)
    region = certify_grid(q, [1.0, 2.5], [r_y])
    assert region == full_scan_region(q, [1.0, 2.5], [r_y], per_point)
    assert region.frontier[0].r_x_max in (1.0, 1.75)


def _ring4_imft(jac_y_many=None, box=True):
    """(f, x0, y0, spd-7 quantities) of the ring-4 index split, jac_y_many replaced if given.

    box=False drops the view's dy enclosure: a replaced block that raises
    where the DSL does not is no longer what the enclosure encloses.
    """
    f, x0, y0, *_ = _sampler_case("ring4-imft")
    if jac_y_many is not None:
        f = dataclasses.replace(f, jac_y_many=jac_y_many(f.jac_y_many))
    if not box:
        f = dataclasses.replace(f, dy_box=None)
    return f, x0, y0, imft_quantities(f, x0, y0, SupremumEstimator(samples_per_dim=7))


def _counting(rows):
    """A wrapper of a batched block that appends each call's row count to rows."""
    return lambda jac: lambda X, Y: rows.append(len(X)) or jac(X, Y)


def _rows_per_L_y(q, rows):
    """q with an L_y that records, per radius pair, how many rows its call added to rows."""
    per_pair = {}

    def l_y(r_x, r_y, refutes=None):
        before = sum(rows)
        value = q.L_y(r_x, r_y, refutes)
        per_pair[(r_x, r_y)] = sum(rows) - before
        return value

    return dataclasses.replace(q, L_y=l_y), per_pair


def test_a_refused_midpoint_evaluates_fewer_rows_than_its_lattice_holds():
    rows = []
    f, x0, y0, q = _ring4_imft(_counting(rows))
    counted, per_pair = _rows_per_L_y(q, rows)
    region = certify_grid(counted, *RING4_GRID)
    assert region.frontier == (FrontierPoint(r_y=0.3, r_x_max=0.4),)
    # each x-ball has 7 points and the y-ball n_y = 437: the grid pairs take
    # the y-ball at the one or two x-points whose box bounds reach the floor
    n_y = len(ball_points(y0, 0.3, 7))
    for r_x, taken in zip(RING4_GRID[0], (1, 1, 2, 2)):
        assert len(ball_points(x0, r_x, 7)) == 7
        assert per_pair[(r_x, 0.3)] == taken * n_y
    # the midpoint is refuted by the x-point taken first, alone
    lattice = len(ball_points(x0, RING4_MID, 7)) * n_y
    assert per_pair[(RING4_MID, 0.3)] == n_y < imft.CHUNK_PAIRS < lattice
    # the partial value is not cached: asked again, L_y is taken in full, and
    # its full value needs a second x-point
    full = counted.L_y(RING4_MID, 0.3)
    assert per_pair[(RING4_MID, 0.3)] == 2 * n_y < lattice
    assert full == estimate_L(f, x0, y0, RING4_MID, 0.3, SupremumEstimator(samples_per_dim=7))[1]


def test_a_pair_refused_at_zero_L_y_evaluates_no_lattice_pair():
    # the parabola's L_y is 0 and its domain margin r_y - 2 r_x^2 refuses the
    # midpoint 0.25 of the bracket (0.2, 0.3) at r_y = 0.1 whatever L_y is
    rows, f = [], parabola()
    f = dataclasses.replace(f, jac_y_many=_counting(rows)(f.jac_y_many))
    counted, per_pair = _rows_per_L_y(imft_quantities(f, X0, Y0, SupremumEstimator()), rows)
    region = certify_grid(counted, [0.2, 0.3], [0.1])
    assert region.frontier == (FrontierPoint(r_y=0.1, r_x_max=0.2),)
    assert per_pair[(0.25, 0.1)] == 0 < per_pair[(0.2, 0.1)]


def test_a_pair_that_raises_past_the_refuting_chunk_no_longer_aborts_the_run():
    # the last x of the midpoint's ball lies in no grid ball, and its pairs
    # come in the last chunk, after the first chunk has refuted the pair
    f, x0, y0, _ = _ring4_imft()
    bad = ball_points(x0, RING4_MID, 7)[-1]
    assert not any((ball_points(x0, r, 7) == bad).all(axis=1).any() for r in RING4_GRID[0])

    def raising(jac):
        def jac_y_many(X, Y):
            if (X == bad).all(axis=1).any():
                raise ValueError("bad row")
            return jac(X, Y)
        return jac_y_many

    *_, q = _ring4_imft(raising, box=False)
    region = certify_grid(q, *RING4_GRID)
    refs = _sampler_case("ring4-imft")[-1]
    per_point = lambda r_x, r_y: per_point_L(*refs, x0, y0, r_x, r_y, 7)
    assert region == full_scan_region(_ring4_imft(box=False)[3], *RING4_GRID, per_point)
    # a full scan of the midpoint, as certify_grid took before it stopped early, raises
    with pytest.raises(ValueError, match="bad row"):
        q.L_y(RING4_MID, 0.3)
