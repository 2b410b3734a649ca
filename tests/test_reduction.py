import dataclasses
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lscert
from lscert import (
    NewtonDiverged,
    ReducedMap,
    SeriesCoefficients,
    SingularNewtonSystem,
    UnsupportedDimensions,
    build_split_system,
    classify_series,
    in_certified_region,
    region_note,
    series_coefficients,
    solve_phi,
    trace_branches,
)
from lscert.errors import DomainError
from lscert.ls_bounds import FrontierPoint
from lscert.report import csv_text, trace_csv
from lscert.system import _newton_steps, damped_newton_many, row_norms
from conftest import (expr_jacobians, per_point_damped_newton, per_point_reduced, per_point_trace,
                      point_state, split_view_blocks)

SQRT2 = math.sqrt(2.0)


def parabola_split():
    # Phi = (x2 - x1^2, 0): kernel e1, complement e2, phi(alpha) = alpha^2
    fun = lambda x, lam: np.array([x[1] - x[0] ** 2, 0.0])
    sys = lscert.from_callable(
        fun, 2, 0,
        jac_x=lambda x, lam: np.array([[-2.0 * x[0], 1.0], [0.0, 0.0]]),
        jac_lambda=lambda x, lam: np.zeros((2, 0)),
    )
    return build_split_system(sys, lscert.evaluation_point(sys, [0.0, 0.0], []))


def closed_form_g(alpha: float, lam: float) -> float:
    return -alpha + SQRT2 * math.tanh(lam * alpha / SQRT2)


# --- solving the range equations ---------------------------------------------


def test_solve_phi_quadratic_graph():
    ss = parabola_split()
    assert ss.q == 1 and ss.n_perp == 1
    for alpha in (-1.0, -0.3, 0.0, 0.5, 1.2):
        beta = solve_phi(ss, [alpha], [])
        assert abs(beta[0] - alpha**2) <= 1e-12


def test_solve_phi_diverges_on_tight_budget(tanh2_split):
    with pytest.raises(NewtonDiverged):
        solve_phi(tanh2_split, [1.0], [1.0], beta_init=np.array([5.0]), max_iters=1)


def test_a_wrong_sized_parameter_is_a_dimension_mismatch(tanh2_split):
    message = r"parameter has shape \(2,\), expected \(1,\)"
    with pytest.raises(lscert.DimensionMismatch, match=message):
        solve_phi(tanh2_split, [0.0], [1.0, 5.0])
    with pytest.raises(lscert.DimensionMismatch, match=message):
        ReducedMap(tanh2_split).evaluate([0.0], [1.0, 5.0])


def test_solve_phi_singular_system_is_reported():
    # the beta column of the Jacobian dies for alpha > 10, away from the base
    fun = lambda x, lam: np.array([x[1] - x[0] ** 2, 0.0])
    sys = lscert.from_callable(
        fun, 2, 0,
        jac_x=lambda x, lam: np.array(
            [[-2.0 * x[0], 0.0 if x[0] > 10.0 else 1.0], [0.0, 0.0]]),
        jac_lambda=lambda x, lam: np.zeros((2, 0)),
    )
    ss = build_split_system(sys, lscert.evaluation_point(sys, [0.0, 0.0], []))
    with pytest.raises(SingularNewtonSystem):
        solve_phi(ss, [20.0], [])


# --- the reduced map -----------------------------------------------------------


def test_reduced_map_matches_closed_form(tanh2_split):
    # the swap symmetry pins beta = 0, so g collapses to a scalar formula
    rm = ReducedMap(tanh2_split)
    for alpha in np.linspace(-1.5, 1.5, 11):
        for lam in (0.5, 1.0, 1.7):
            point = rm.evaluate([alpha], [lam])
            assert point.beta[0] == 0.0
            assert point.g[0] == pytest.approx(closed_form_g(alpha, lam), abs=1e-12)
            np.testing.assert_allclose(
                point.x, [alpha / SQRT2, alpha / SQRT2], atol=1e-15)


def test_reduced_map_does_not_depend_on_call_history():
    # on the cubic model a solve at alpha = -3.8 lands far from beta0; it must
    # not change what a later call at alpha = 0 returns
    ss, _ = cubic_split()
    grid, errors = ReducedMap(ss).g_grid(np.array([[0.0], [-3.8]]), np.array([[0.5]]))
    assert not errors
    fresh = ReducedMap(ss).g([0.0], [0.5])
    rm = ReducedMap(ss)
    far = rm.g([-3.8], [0.5])
    after = rm.g([0.0], [0.5])
    assert fresh.tobytes() == after.tobytes() == grid[0, 0].tobytes()
    assert far.tobytes() == grid[0, 1].tobytes()
    assert after[0] == 0.0
    # an explicit seed is used for that call only
    seeded = rm.evaluate([0.0], [0.5], beta_init=rm.phi([-3.8], [0.5]))
    assert seeded.beta.tobytes() == solve_phi(ss, [0.0], [0.5], rm.phi([-3.8], [0.5])).tobytes()
    assert rm.g([0.0], [0.5]).tobytes() == fresh.tobytes()


def test_one_residual_evaluation_per_node_when_every_solve_converges_at_its_seed():
    # by the swap symmetry of tanh2 every range solve converges at beta0, so
    # the evaluation that checks the seed also gives g and the lifted residual
    base = lscert.builtin_model("tanh2")
    rows = []

    def fun_many(X, Lam):
        rows.append(len(X))
        return base.fun_many(X, Lam)

    counted = dataclasses.replace(base, fun_many=fun_many)
    ss = build_split_system(counted, lscert.evaluation_point(counted, [0.0, 0.0], [1.0]))
    rm = ReducedMap(ss)
    rows.clear()
    g, errors = rm.g_grid(np.linspace(-1.6, 1.6, 41)[:, None], np.linspace(0.5, 2.0, 7)[:, None])
    assert not errors and np.all(np.isfinite(g))
    assert sum(rows) == 41 * 7
    rows.clear()
    rm.evaluate([0.3], [1.2])
    assert rows == [1]


def test_a_solved_row_was_last_evaluated_at_its_returned_iterate():
    # the contract the reduced map relies on to read g off the range solve:
    # on the cubic model some solves from beta0 backtrack and some fail
    ss, _ = cubic_split()
    alpha = np.tile(np.linspace(-4.0, 4.0, 41), 3)[:, None]
    lam = np.repeat([0.5, 1.0, 2.0], 41)[:, None]
    last, evaluations, steps = {}, np.zeros(len(alpha), int), np.zeros(len(alpha), int)

    def residual(B, rows):
        last.update((int(r), b.copy()) for r, b in zip(rows, B))
        evaluations[rows] += 1
        return ss.lifted_many(alpha[rows], B, lam[rows])[2]

    def jacobian(B, rows):
        steps[rows] += 1
        return ss.jac_perp_many(alpha[rows], B, lam[rows])

    seeds = np.broadcast_to(ss.beta0, (len(alpha), ss.n_perp))
    beta, errors = damped_newton_many(residual, jacobian, seeds)
    solved = [i for i in range(len(alpha)) if i not in errors]
    assert errors and solved
    assert any(evaluations[i] > steps[i] + 1 for i in solved)  # some took a shortened step
    for i in solved:
        assert last[i].tobytes() == beta[i].tobytes()


# --- series coefficients and classification ------------------------------------


def test_series_coefficients_match_hand_derivatives(tanh2_split):
    c = series_coefficients(ReducedMap(tanh2_split))
    assert abs(c.g_alpha) <= 1e-6
    assert abs(c.g_lambda) <= 1e-9  # g(0, lam) = 0 identically
    assert abs(c.g_alpha_alpha) <= 1e-6
    assert c.g_alpha_alpha_alpha == pytest.approx(-1.0, abs=1e-4)
    assert c.g_alpha_lambda == pytest.approx(1.0, abs=1e-5)
    assert classify_series(c) == "pitchfork_supercritical"


def test_series_requires_scalar_kernel_and_parameter():
    with pytest.raises(UnsupportedDimensions):
        series_coefficients(ReducedMap(parabola_split()))  # m = 0
    fun = lambda x, lam: np.array([x[0] ** 2, x[1] ** 2])
    sys = lscert.from_callable(
        fun, 2, 1,
        jac_x=lambda x, lam: np.array([[2.0 * x[0], 0.0], [0.0, 2.0 * x[1]]]),
        jac_lambda=lambda x, lam: np.zeros((2, 1)),
    )
    ss = build_split_system(sys, lscert.evaluation_point(sys, [0.0, 0.0], [0.0]))
    assert ss.q == 2
    with pytest.raises(UnsupportedDimensions):
        series_coefficients(ReducedMap(ss))
    with pytest.raises(UnsupportedDimensions):
        trace_branches(ReducedMap(ss), [0.0], (-1.0, 1.0))


def coefficients(**kw) -> SeriesCoefficients:
    base = dict(g_alpha=0.0, g_lambda=0.0, g_alpha_alpha=0.0,
                g_alpha_alpha_alpha=0.0, g_alpha_lambda=0.0)
    base.update(kw)
    return SeriesCoefficients(**base)


def test_classification_table():
    assert classify_series(coefficients(g_alpha=1.0)) == "regular"
    assert classify_series(coefficients(g_alpha=1e-9, g_alpha_alpha=2.0)) == "fold"
    assert classify_series(coefficients(
        g_alpha_alpha_alpha=-1.0, g_alpha_lambda=1.0)) == "pitchfork_supercritical"
    assert classify_series(coefficients(
        g_alpha_alpha_alpha=2.0, g_alpha_lambda=1.5)) == "pitchfork_subcritical"
    # second derivative too large to be a pitchfork, too small to be a fold
    assert classify_series(coefficients(
        g_alpha_alpha=1e-4, g_alpha_alpha_alpha=-1.0,
        g_alpha_lambda=1.0)) == "unclassified"
    assert classify_series(coefficients()) == "unclassified"


# --- branch tracing ------------------------------------------------------------


def bisection_oracle(ratio: float, lo: float = 0.05, hi: float = 3.0) -> float:
    """Independent scalar bisection for x = tanh(ratio * tanh(ratio * x))."""
    f = lambda x: math.tanh(ratio * math.tanh(ratio * x)) - x
    flo, fhi = f(lo), f(hi)
    assert flo > 0.0 > fhi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fm > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_positive_root_matches_independent_bisection(tanh2_split):
    rm = ReducedMap(tanh2_split)
    result = trace_branches(rm, [1.5], (0.5, 1.6), alpha_samples=201)
    roots = result.roots_at(1.5)
    assert len(roots) == 1
    x_bisect = bisection_oracle(1.5)
    assert x_bisect == pytest.approx(0.8585596366401103, abs=1e-12)
    assert roots[0].x[0] == pytest.approx(x_bisect, abs=1e-8)
    assert roots[0].alpha == pytest.approx(SQRT2 * x_bisect, abs=1e-8)
    assert roots[0].residual_full <= 1e-8


def test_frozen_roots_at_lambda_two(tanh2_split):
    rm = ReducedMap(tanh2_split)
    result = trace_branches(rm, [2.0], (-1.6, 1.6))
    roots = sorted(result.roots_at(2.0), key=lambda p: p.alpha)
    assert len(roots) == 3
    assert roots[0].alpha == pytest.approx(-1.354115176886, abs=1e-9)
    assert roots[1].alpha == pytest.approx(0.0, abs=1e-12)
    assert roots[2].alpha == pytest.approx(1.354115176886, abs=1e-9)
    assert roots[2].x[0] == pytest.approx(0.9575040240839381, abs=1e-9)


def test_branch_structure_across_the_symmetric_split(tanh2_split):
    rm = ReducedMap(tanh2_split)
    result = trace_branches(rm, [0.8, 1.0, 1.2], (-1.6, 1.6))
    assert result.n_branches == 3
    assert len(result.roots_at(0.8)) == 1
    assert len(result.roots_at(1.0)) == 1
    at_12 = sorted(p.alpha for p in result.roots_at(1.2))
    assert len(at_12) == 3
    assert at_12[0] == pytest.approx(-at_12[2], abs=1e-9)  # symmetric pair
    assert at_12[1] == pytest.approx(0.0, abs=1e-12)
    # the trunk branch spans all three parameter values
    trunk = max(result.branches, key=len)
    assert [p.lam for p in trunk] == [0.8, 1.0, 1.2]
    assert all(abs(p.alpha) <= 1e-9 for p in trunk)


def test_vanished_branches_do_not_rematch_across_gaps(tanh2_split):
    rm = ReducedMap(tanh2_split)
    result = trace_branches(rm, [1.2, 0.8, 1.2], (-1.6, 1.6))
    # the outer pair dies at 0.8 and must restart as new branches at 1.2
    assert result.n_branches == 5
    assert len(result.roots_at(0.8)) == 1


def test_degenerate_near_zero_emits_note():
    # g(alpha) = alpha^2 + 5e-13 grazes zero without a sign change
    fun = lambda x, lam: np.array([x[1], x[0] ** 2 + 5e-13])
    sys = lscert.from_callable(
        fun, 2, 1,
        jac_x=lambda x, lam: np.array([[0.0, 1.0], [2.0 * x[0], 0.0]]),
        jac_lambda=lambda x, lam: np.zeros((2, 1)),
    )
    ss = build_split_system(sys, lscert.evaluation_point(sys, [0.0, 0.0], [1.0]))
    result = trace_branches(ReducedMap(ss), [1.0], (-1.0, 1.0))
    assert result.n_branches == 0
    assert any("degenerate" in note for note in result.notes)


def test_large_lifted_residual_drops_root_with_note(tanh2_split):
    rm = ReducedMap(tanh2_split)
    result = trace_branches(rm, [1.2], (-1.6, 1.6), residual_tol=1e-30)
    # alpha = 0 lifts to the exact origin equilibrium and survives even this
    # absurd tolerance; the bisected outer roots carry ~1e-10 residual
    assert {len(b) for b in result.branches} <= {1}
    assert sum(len(b) for b in result.branches) == 1
    assert sum("dropped" in note for note in result.notes) == 2


def test_failed_newton_solves_are_gaps_in_the_trace(tanh2_split, monkeypatch):
    # at lambda = 2 the roots are alpha = 0 and +-1.354; the node alpha = 1.2
    # fails, so nothing brackets +1.354, and the first bisection step for
    # -1.354 (alpha = -1.4) fails, so that root is dropped
    rm = ReducedMap(tanh2_split)
    solve = rm._batch

    def batch(alpha, lam):
        out = solve(alpha, lam)
        fails = (np.abs(alpha[:, 0] - 1.2) < 1e-9) | ((-1.5 < alpha[:, 0]) & (alpha[:, 0] < -1.3))
        return dataclasses.replace(out, errors={
            **out.errors, **{int(i): NewtonDiverged("no descent") for i in np.flatnonzero(fails)}})

    monkeypatch.setattr(rm, "_batch", batch)
    result = trace_branches(rm, [2.0], (-1.6, 1.6), alpha_samples=9)
    assert [p.alpha for p in result.roots_at(2.0)] == [0.0]
    assert result.notes == ("lambda=2: Newton failed at 2 alpha value(s), left as gaps; "
                            "first at alpha=1.2: no descent",)


def test_trace_input_validation(tanh2_split):
    rm = ReducedMap(tanh2_split)
    with pytest.raises(ValueError):
        trace_branches(rm, [1.0], (1.0, -1.0))
    with pytest.raises(ValueError):
        trace_branches(rm, [1.0], (-1.0, 1.0), alpha_samples=2)
    empty = trace_branches(rm, [], (-1.0, 1.0))
    assert (empty.branches, empty.notes, empty.lambda_values) == ((), (), ())


# --- certified-region lookups ---------------------------------------------------


FRONTIER = (FrontierPoint(r_perp=0.5, r_par_max=1.5),
            FrontierPoint(r_perp=2.0, r_par_max=None))


def test_in_certified_region_lookup():
    assert in_certified_region(FRONTIER, 1.0, 0.4)
    assert in_certified_region(FRONTIER, 1.5, 0.5)  # frontier itself counts
    assert not in_certified_region(FRONTIER, 1.6, 0.4)
    assert not in_certified_region(FRONTIER, 1.0, 0.6)  # only the None level covers it
    assert not in_certified_region((), 0.1, 0.1)


def test_region_note_inside_and_outside(tanh2_split):
    assert region_note(tanh2_split, FRONTIER, [0.5], [1.2], [0.1]) is None
    note = region_note(tanh2_split, FRONTIER, [2.0], [1.0], [0.0])
    assert note is not None and "outside the certified region" in note
    # the ball is ||(par - c)/w|| <= r_par: a 0.05 weight on lambda puts
    # lambda - 1 = 0.2 at distance 4, past the frontier's 1.5
    note = region_note(tanh2_split, FRONTIER, [0.0], [1.2], [0.1], weights=np.array([1.0, 0.05]))
    assert note is not None and "(r_par=4," in note


# --- the batched reduced map ---------------------------------------------------


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def cubic_split():
    cfg = lscert.load_config(str(CONFIGS / "cubic_trace.json"))
    sys_ = lscert.build_system(cfg.model)
    point = lscert.evaluation_point(sys_, cfg.base_point.x0, cfg.base_point.lambda0)
    return build_split_system(sys_, point), cfg.trace


def test_batched_reduced_map_equals_the_per_point_reference_bitwise():
    # every third lambda of the cubic_trace.json march, over a window wide
    # enough that some range solves fail from beta0
    ss, t = cubic_split()
    lams = [t.lambda_min + i * t.lambda_step for i in range(0, 31, 3)]
    grid = np.linspace(-4.0, 4.0, 41)
    alpha, lam = np.tile(grid, len(lams))[:, None], np.repeat(lams, len(grid))[:, None]
    batch = ReducedMap(ss).evaluate_many(alpha, lam)
    failures = 0
    for i in range(len(alpha)):
        try:
            want = per_point_reduced(ss, alpha[i], lam[i])
        except (NewtonDiverged, SingularNewtonSystem) as exc:
            failures += 1
            assert type(batch.errors[i]) is type(exc) and str(batch.errors[i]) == str(exc)
            assert batch.point(i) is None
            continue
        assert i not in batch.errors
        got = (batch.beta[i], batch.x[i], batch.g[i], batch.residual_full[i])
        for g, w in zip(got, want):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
    assert 0 < failures < len(alpha)


def test_lockstep_newton_equals_the_per_point_loop_row_by_row():
    # rows that converge, start on a singular Jacobian, have no real root, run
    # out of iterations or start at a NaN residual; each must end as it ends
    # alone
    c = np.array([2.0, 2.0, -0.5, 2.0, 9.0, np.nan])
    z0 = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1e3, 0.0], [-3.5, 2.0], [1.0, 0.0]])
    f = lambda z, ci: np.array([z[0] ** 2 - ci, z[1] - z[0]])
    jac = lambda z: np.array([[2.0 * z[0], 0.0], [-1.0, 1.0]])
    z, errors = damped_newton_many(
        lambda Z, rows: np.stack([f(zi, c[r]) for zi, r in zip(Z, rows)]),
        lambda Z, rows: np.stack([jac(zi) for zi in Z]), z0, max_iters=6)
    kinds = []
    for i in range(len(c)):
        try:
            want = per_point_damped_newton(lambda zi: f(zi, c[i]), jac, z0[i], max_iters=6)
        except (NewtonDiverged, SingularNewtonSystem) as exc:
            assert type(errors[i]) is type(exc) and str(errors[i]) == str(exc)
            kinds.append(str(exc).split(" (")[0])
            continue
        assert i not in errors and z[i].tobytes() == want.tobytes()
    assert isinstance(errors[1].__cause__, np.linalg.LinAlgError)
    assert kinds == ["Newton linear system is singular", "no descent after 30 backtracks",
                     "residual 2.435e+02 above tolerance 1e-12 after 6 iterations",
                     "no descent after 30 backtracks"]


RING4_CUBIC = ("-x1 + tanh(l1*x2); -x2 + tanh(l1*x3); -x3 + tanh(l1*x4); "
               "-x4 + tanh(l1*x1) + 0.3*x4^3")


def test_stacked_newton_steps_equal_single_solves_at_three_complement_dimensions():
    sys_ = lscert.system_from_expressions(RING4_CUBIC, 4, 1)
    ss = build_split_system(sys_, lscert.evaluation_point(sys_, [0.0] * 4, [1.0]))
    assert ss.n_perp == 3
    rng = np.random.default_rng(1212)
    alpha = rng.uniform(-0.8, 0.8, size=(60, 1))
    beta = rng.uniform(-0.3, 0.3, size=(60, 3))
    lam = rng.uniform(0.6, 1.6, size=(60, 1))
    r = ss.lifted_many(alpha, beta, lam)[2]
    steps, singular = _newton_steps(ss.jac_perp_many(alpha, beta, lam), r, row_norms(r))
    assert not singular
    _, dy = split_view_blocks(ss, *expr_jacobians(RING4_CUBIC, 4, 1))
    for i in range(len(alpha)):
        r_i = ss.decomp.W.T @ ss.sys.phi(point_state(ss, alpha[i], beta[i]), lam[i])
        want = np.linalg.solve(dy(np.concatenate([alpha[i], lam[i]]), beta[i]), -r_i)
        assert r[i].tobytes() == r_i.tobytes() and steps[i].tobytes() == want.tobytes()
    # and whole range solves, which take Newton steps here
    batch = ReducedMap(ss).evaluate_many(alpha, lam)
    for i in range(len(alpha)):
        beta_i, x_i, g_i, res_i = per_point_reduced(ss, alpha[i], lam[i])
        assert batch.beta[i].tobytes() == beta_i.tobytes()
        assert batch.g[i].tobytes() == g_i.tobytes()


def trace_fingerprint(result):
    return ([[(p.lam, p.alpha, p.beta.tobytes(), p.x.tobytes(), p.g_value, p.residual_full)
              for p in branch] for branch in result.branches], result.notes)


def trace_cases(tanh2_split):
    # the cubic model has gaps and an exact node zero; tanh2 bisects its roots
    return [(ReducedMap(cubic_split()[0]), [0.5, 0.55, 0.6], (-4.0, 4.0)),
            (ReducedMap(tanh2_split), [0.8, 1.2, 2.0], (-1.6, 1.6))]


@pytest.mark.parametrize("chunk", [1, 7, 10**9])
def test_trace_is_the_same_at_every_chunk_size(chunk, tanh2_split, monkeypatch):
    want = [trace_fingerprint(trace_branches(rm, lams, window, alpha_samples=41))
            for rm, lams, window in trace_cases(tanh2_split)]
    monkeypatch.setattr(lscert.reduction, "CHUNK_ROWS", chunk)
    got = [trace_fingerprint(trace_branches(rm, lams, window, alpha_samples=41))
           for rm, lams, window in trace_cases(tanh2_split)]
    assert got == want
    assert want[0][1] and want[1][0]  # notes on the cubic model, branches on tanh2


@pytest.mark.parametrize("chunk", [7, 10**9])
def test_a_failing_chunk_surfaces_the_first_failing_points_error(chunk, monkeypatch):
    # the first component fails at one end of the alpha window and the second
    # at the other; a batched walk meets the first component first, while
    # point by point the first grid alpha fails in the second
    sys_ = lscert.system_from_expressions(
        "-x1 + tanh(l1*x2) + 0*sqrt(2 - x1); -x2 + tanh(l1*x1) + 0*log(2 + x1)", 2, 1)
    ss = build_split_system(sys_, lscert.evaluation_point(sys_, [0.0, 0.0], [1.0]))
    with pytest.raises(DomainError) as first:
        solve_phi(ss, [-4.0], [1.0])
    monkeypatch.setattr(lscert.reduction, "CHUNK_ROWS", chunk)
    with pytest.raises(DomainError) as err:
        trace_branches(ReducedMap(ss), [1.0], (-4.0, 4.0), alpha_samples=41)
    assert str(err.value) == str(first.value)


# --- the batched trace against the per-point trace -------------------------------


def trace_bytes(branches):
    """Every field of every point as bytes, branch by branch."""
    return [[tuple(np.asarray(v, dtype=float).tobytes() for v in point) for point in branch]
            for branch in branches]


def assert_trace_is_the_per_point_trace(ss, lambda_values, window, samples):
    result = trace_branches(ReducedMap(ss), lambda_values, window, alpha_samples=samples)
    branches, notes = per_point_trace(ss, lambda_values, window, samples)
    got = [[(p.lam, p.alpha, p.beta, p.x, p.g_value, p.residual_full) for p in branch]
           for branch in result.branches]
    assert trace_bytes(got) == trace_bytes(branches)
    assert list(result.notes) == notes
    return result


@functools.cache
def cubic_ss():
    return cubic_split()[0]


def degenerate_split():
    # g(alpha) = alpha^2 + 5e-13 grazes zero without a sign change
    fun = lambda x, lam: np.array([x[1], x[0] ** 2 + 5e-13])
    sys = lscert.from_callable(
        fun, 2, 1,
        jac_x=lambda x, lam: np.array([[0.0, 1.0], [2.0 * x[0], 0.0]]),
        jac_lambda=lambda x, lam: np.zeros((2, 1)),
    )
    return build_split_system(sys, lscert.evaluation_point(sys, [0.0, 0.0], [1.0]))


def test_trace_branches_equals_the_per_point_trace(tanh2_split):
    # tanh2 bisects every root; the cubic model over a wide window has Newton
    # gaps and a failure note per lambda; the third model grazes zero
    result = assert_trace_is_the_per_point_trace(
        tanh2_split, np.linspace(0.5, 2.0, 31).tolist(), (-1.6, 1.6), 41)
    assert result.n_branches == 3 and not result.notes
    result = assert_trace_is_the_per_point_trace(
        cubic_ss(), [0.5 + 0.01 * i for i in range(11)], (-4.0, 4.0), 41)
    assert len(result.notes) == 11 and all("Newton failed" in n for n in result.notes)
    result = assert_trace_is_the_per_point_trace(degenerate_split(), [1.0], (-1.0, 1.0), 41)
    assert result.n_branches == 0 and "degenerate" in result.notes[0]


@settings(deadline=None)  # examples: the hypothesis profile's
@given(st.booleans(), st.floats(0.3, 2.2), st.floats(0.0, 0.6), st.integers(1, 4),
       st.floats(-4.0, 1.5), st.floats(0.1, 5.0), st.integers(3, 60))
def test_trace_branches_equals_the_per_point_trace_on_random_windows(
        tanh2_split, cubic, lam_lo, lam_span, lam_count, alpha_lo, alpha_width, samples):
    lams = np.linspace(lam_lo, lam_lo + lam_span, lam_count).tolist()
    assert_trace_is_the_per_point_trace(cubic_ss() if cubic else tanh2_split, lams,
                                        (alpha_lo, alpha_lo + alpha_width), samples)


def test_numpy_floats_write_the_same_csv_cells_as_python_floats(tanh2_split):
    lams = np.linspace(0.5, 2.0, 31)
    rm = ReducedMap(tanh2_split)
    text = trace_csv(trace_branches(rm, lams, (-1.6, 1.6), alpha_samples=41), 2)
    assert text == trace_csv(trace_branches(rm, lams.tolist(), (-1.6, 1.6), alpha_samples=41), 2)
    assert "0.55000000000000004," in text
    cells = [np.float64(0.55), np.float32(0.1), np.int64(3), 7, np.True_, True, None, "w"]
    assert csv_text(["c"] * len(cells), [cells]) == \
        "c,c,c,c,c,c,c,c\r\n0.55000000000000004,0.10000000149011612,3,7,True,true,,w\r\n"
