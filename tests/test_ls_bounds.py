import dataclasses
import math

import numpy as np
import pytest

import lscert
from lscert import (
    InexactKernel,
    NotEquilibrium,
    SingularReducedJacobian,
    SupremumEstimator,
    build_split_system,
    certify_ls_region,
    check_ls_conditions,
    compute_ls_M,
    estimate_ls_L,
    ls_quantities,
)
from lscert.imft import imft_quantities
from conftest import SQRT2, xi2_closed_form

# hand-derived suprema of the complement-block deviation for the coupled
# tanh pair (closed form in conftest.xi2_closed_form); over the product ball
# the maximum sits on an axis point of the (alpha, lam) ball combined with a
# beta endpoint
CORNER_HALF_HALF = 1.0 - 0.5 / math.cosh(0.25 / SQRT2) ** 2   # lam=0.5, beta=+-0.5
CORNER_HALF_TWO = 1.0 - 1.5 / math.cosh(1.5 * SQRT2) ** 2     # lam=1.5, beta=+-2.0


def test_split_oracle_quantities(tanh2_split):
    ss = tanh2_split
    assert ss.q == 1 and ss.n_perp == 1 and ss.m == 1
    np.testing.assert_allclose(ss.alpha0, [0.0], atol=0.0)
    np.testing.assert_allclose(ss.beta0, [0.0], atol=0.0)
    assert abs(ss.reduced_block[0, 0] - 2.0) <= 1e-12
    np.testing.assert_allclose(ss.dlambda_base, [[0.0]], atol=1e-15)
    np.testing.assert_allclose(ss.par_center, [0.0, 1.0], atol=0.0)


def test_base_norms_oracle(tanh2_split):
    m_par, m_perp = compute_ls_M(tanh2_split)
    assert m_par == 0.0  # exact: hard zero alpha block, zero lambda block
    assert abs(m_perp - 0.5) <= 1e-12


def test_parallel_deviation_is_floating_noise(tanh2_split):
    # xi_1 vanishes identically at beta = 0 by the swap symmetry of the pair,
    # so any sampled estimate is pure rounding noise
    est = SupremumEstimator(samples_per_dim=9)
    for r in (0.1, 0.5, 1.0, 1.9):
        l_par, _ = estimate_ls_L(tanh2_split, r, 0.0, est)
        assert l_par <= 1e-10


def test_xi2_matches_closed_form_pointwise(tanh2_split):
    rng = np.random.default_rng(3)
    for _ in range(50):
        alpha, beta = rng.uniform(-1.5, 1.5, size=2)
        lam = rng.uniform(0.25, 1.75)
        got = abs(tanh2_split.xi2([alpha], [beta], [lam])[0, 0])
        assert got == pytest.approx(xi2_closed_form(alpha, beta, lam), abs=1e-14)


def test_sampled_complement_deviation_attains_corner_suprema(tanh2_split):
    # the true suprema sit exactly on sample points (axis boundary of the
    # (alpha, lam) ball x lattice endpoint of the beta interval), so the
    # sampled estimates agree with the closed forms to rounding
    est = SupremumEstimator(samples_per_dim=33)
    _, l_at_half = estimate_ls_L(tanh2_split, 0.5, 0.5, est)
    assert l_at_half == pytest.approx(CORNER_HALF_HALF, rel=1e-12)
    _, l_at_two = estimate_ls_L(tanh2_split, 0.5, 2.0, est)
    assert l_at_two == pytest.approx(CORNER_HALF_TWO, rel=1e-12)


def test_sampled_estimates_never_exceed_true_supremum(tanh2_split):
    # lower-bound property against an independent dense scan of the closed form
    r_par, r_perp = 1.0, 1.0
    est = SupremumEstimator(samples_per_dim=9)
    _, l_perp = estimate_ls_L(tanh2_split, r_par, r_perp, est)
    a = np.linspace(-r_par, r_par, 201)
    span = np.sqrt(np.maximum(r_par**2 - a**2, 0.0))
    lam = np.linspace(1.0 - span, 1.0 + span, 41, axis=1)
    b = np.linspace(-r_perp, r_perp, 81)
    best = float(xi2_closed_form(a[:, None, None], b, lam[:, :, None]).max())
    assert l_perp <= best + 1e-12


def test_specialised_quantities_match_generic_view(tanh2_split):
    ss = tanh2_split
    est = SupremumEstimator(samples_per_dim=5)
    q_ls = ls_quantities(ss, est)
    q_gen = imft_quantities(ss.as_split_function(), ss.par_center, ss.beta0, est)
    # the generic view recomputes the alpha block of the base Jacobian and
    # keeps its rounding noise; the specialisation replaces it by a hard zero
    assert q_ls.M_par == 0.0
    assert 0.0 < q_gen.M_x <= 1e-14
    assert q_gen.M_y == q_ls.M_perp
    for r in (0.25, 0.75, 1.5):
        assert abs(q_ls.L_par(r) - q_gen.L_x(r)) <= 1e-14
        assert q_ls.L_perp(r, 0.5) == q_gen.L_y(r, 0.5)


def test_split_view_accepts_a_scalar_beta(tanh2_split):
    # n - q = 1 here, so beta may be a scalar, as it may for jac_perp
    f = tanh2_split.as_split_function()
    p = np.array([0.3, 1.2])
    np.testing.assert_array_equal(f.value(p, 0.25), f.value(p, [0.25]))
    np.testing.assert_array_equal(f.dx(p, 0.25), f.dx(p, [0.25]))
    np.testing.assert_array_equal(f.dy(p, 0.25), f.dy(p, [0.25]))
    witness = lscert.witness_check(f, p, 0.25, 0.5, 0.5, n_samples=10)
    assert witness.converged == 10
    assert witness == lscert.witness_check(f, p, [0.25], 0.5, 0.5, n_samples=10)


def test_build_rejects_non_equilibrium(tanh2_system):
    point = lscert.evaluation_point(tanh2_system, [0.3, 0.1], [1.0])
    with pytest.raises(NotEquilibrium) as err:
        build_split_system(tanh2_system, point)
    assert "refine" in str(err.value)


def test_build_rejects_a_basis_that_j_does_not_annihilate(monkeypatch, tanh2_system):
    # with V and Vperp swapped, ||J V|| = ||J|| = 2, so the hard zero alpha
    # block of M_par would be false; the check must hold under python -O too
    decompose = lscert.ls_bounds.compute_decomposition

    def swapped(jac, rank_tol):
        d = decompose(jac, rank_tol)
        return dataclasses.replace(d, V=d.Vperp, Vperp=d.V)

    monkeypatch.setattr(lscert.ls_bounds, "compute_decomposition", swapped)
    point = lscert.evaluation_point(tanh2_system, [0.0, 0.0], [1.0])
    with pytest.raises(InexactKernel) as err:
        build_split_system(tanh2_system, point)
    assert "||J V||" in str(err.value)


def test_singular_reduced_block_is_reported(tanh2_split):
    broken = dataclasses.replace(tanh2_split, reduced_block=np.array([[0.0]]))
    with pytest.raises(SingularReducedJacobian):
        compute_ls_M(broken)


ANALYTIC = SupremumEstimator(
    mode="analytic",
    override_L_x=lambda r: 0.0,
    override_L_y=lambda r_par, r_perp: 1.0 - min(0.0, 1.0 - r_par),
)


def test_certified_region_boundary_with_analytic_overrides(tanh2_split):
    # with L_perp = 1 - min(0, 1 - r_par) both inequalities reduce to
    # r_par < 2 independently of r_perp; 2.0 itself is a zero-margin failure
    region, q = certify_ls_region(
        tanh2_split, [1.9, 1.99, 2.0, 2.1], [0.1, 1.0, 10.0], ANALYTIC)
    assert region.rigorous and q.rigorous
    for e in region.entries:
        assert e.certified == (e.r_par < 2.0)
    for f in region.frontier:
        assert f.r_par_max == pytest.approx(1.995)  # one bisection level past 1.99
    assert region.max_certified_r_par() == pytest.approx(1.995)


def test_condition_margins_spot_values(tanh2_split):
    q = ls_quantities(tanh2_split, ANALYTIC)
    check = check_ls_conditions(q, 1.0, 1.0)
    # budget r_perp / M_perp = 2, deviation terms L_par*r_par + L_perp*r_perp = 1
    assert check.certified
    assert check.margin_domain == pytest.approx(1.0)
    assert check.margin_contraction == pytest.approx(0.5)
    zero = check_ls_conditions(q, 2.0, 1.0)
    assert not zero.certified
    assert zero.margin_domain == pytest.approx(0.0)
    assert zero.margin_contraction == pytest.approx(0.0)


def test_parameter_weights_scale_the_base_norm():
    # two copies of x1 - x2 + lam: J has the known kernel (1,1)/sqrt2 and the
    # lambda column survives into the base norm, so weights act linearly on it
    fun = lambda x, lam: np.array([x[0] - x[1] + lam[0], x[0] - x[1] + lam[0]])
    sys = lscert.from_callable(
        fun, 2, 1,
        jac_x=lambda x, lam: np.array([[1.0, -1.0], [1.0, -1.0]]),
        jac_lambda=lambda x, lam: np.array([[1.0], [1.0]]),
    )
    point = lscert.evaluation_point(sys, [0.0, 0.0], [0.0])
    ss = build_split_system(sys, point)
    assert ss.q == 1
    m_plain, _ = compute_ls_M(ss)
    assert m_plain == pytest.approx(SQRT2, rel=1e-12)
    m_weighted, _ = compute_ls_M(ss, par_weights=np.array([1.0, 2.0]))
    assert m_weighted == pytest.approx(2.0 * SQRT2, rel=1e-12)
    m_shrunk, _ = compute_ls_M(ss, par_weights=np.array([7.0, 0.5]))
    assert m_shrunk == pytest.approx(0.5 * SQRT2, rel=1e-12)


def test_region_uses_split_spellings(tanh2_split):
    region, _ = certify_ls_region(tanh2_split, [0.5], [0.5],
                                  SupremumEstimator(samples_per_dim=3))
    entry = region.entries[0]
    assert hasattr(entry, "r_par") and hasattr(entry, "r_perp")
    assert hasattr(region.frontier[0], "r_perp")
    assert hasattr(region.frontier[0], "r_par_max")
