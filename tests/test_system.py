import math

import numpy as np
import pytest

import lscert
from lscert import (
    UnknownModel,
    builtin_model,
    evaluation_point,
    from_callable,
    is_bifurcation_candidate,
    newton_full,
    refine_equilibrium,
    system_from_expressions,
)
from lscert import expr as expr_mod
from lscert.expr import default_names
from lscert.system import fd_jacobians
from conftest import (
    expr_jacobians,
    per_point_eval_values,
    tanh2_fun,
    tanh2_jac_lambda,
    tanh2_jac_x,
)


@pytest.mark.parametrize("name,params,n,m", [
    ("tanh2", {}, 2, 1),
    ("pitchfork_normal_form", {}, 1, 1),
    ("linear", {"A": [[2.0, 1.0], [0.0, 3.0]], "b": [[1.0], [0.5]]}, 2, 1),
])
def test_builtin_jacobians_match_finite_differences(name, params, n, m):
    sys_ = builtin_model(name, params)
    assert (sys_.n, sys_.m) == (n, m)
    rng = np.random.default_rng(404)
    for _ in range(100):
        x = rng.uniform(-1.5, 1.5, size=n)
        lam = rng.uniform(-1.5, 1.5, size=m)
        jx_fd, jl_fd = fd_jacobians(sys_.phi, n, m, x, lam)
        assert np.abs(sys_.dphi_dx(x, lam) - jx_fd).max() <= 1e-5
        assert np.abs(sys_.dphi_dlambda(x, lam) - jl_fd).max() <= 1e-5


_LINEAR = {"A": [[2.0, 1.0], [0.0, 3.0]], "b": [[1.0], [0.5]]}
_EXPR = "x1*sech(l1) - exp(x2/3); sin(x1)*x2^3 - l1*l2"
_FD = lambda x, lam: np.array([x[0] ** 3 - lam[0], x[0] * x[1]])
_CUSTOM = (lambda x, lam: np.array([[lam[0]]]), lambda x, lam: np.array([[x[0]]]))


def _pair(jac_x, jac_lambda):
    return lambda x, lam: (jac_x(x, lam), jac_lambda(x, lam))


# each system with a per-point reference (x, lam) -> (D_x Phi, D_lambda Phi)
@pytest.mark.parametrize("make,reference", [
    (lambda: builtin_model("tanh2"), _pair(tanh2_jac_x, tanh2_jac_lambda)),
    (lambda: builtin_model("pitchfork_normal_form"),
     lambda x, lam: (np.array([[lam[0] - 3.0 * x[0] ** 2]]), np.array([[x[0]]]))),
    (lambda: builtin_model("linear", _LINEAR),
     lambda x, lam: (np.array(_LINEAR["A"]), np.array(_LINEAR["b"]))),
    (lambda: system_from_expressions(_EXPR, 2, 2), _pair(*expr_jacobians(_EXPR, 2, 2))),
    (lambda: from_callable(_FD, 2, 1), lambda x, lam: fd_jacobians(_FD, 2, 1, x, lam)),
    (lambda: from_callable(lambda x, lam: np.array([x[0] * lam[0]]), 1, 1, *_CUSTOM),
     _pair(*_CUSTOM)),
], ids=["tanh2", "pitchfork", "linear", "expr", "fd", "custom"])
def test_batched_jacobians_equal_per_point_bitwise(make, reference):
    sys_ = make()
    rng = np.random.default_rng(606)
    xs = rng.uniform(-2.0, 2.0, size=(40, sys_.n))
    lams = rng.uniform(-2.0, 2.0, size=(40, sys_.m))
    jx, jl = sys_.jacobians(xs, lams)
    assert jx.shape == (40, sys_.n, sys_.n) and jl.shape == (40, sys_.n, sys_.m)
    for i, (x, lam) in enumerate(zip(xs, lams)):
        want_x, want_l = reference(x, lam)
        assert jx[i].tobytes() == want_x.tobytes()
        assert jl[i].tobytes() == want_l.tobytes()
        assert sys_.dphi_dx(x, lam).tobytes() == jx[i].tobytes()
        assert sys_.dphi_dlambda(x, lam).tobytes() == jl[i].tobytes()


def test_tanh2_residual_is_exactly_odd(tanh2_system):
    rng = np.random.default_rng(505)
    for _ in range(50):
        x = rng.uniform(-2.0, 2.0, size=2)
        lam = rng.uniform(-2.0, 2.0, size=1)
        plus = tanh2_system.phi(x, lam)
        minus = tanh2_system.phi(-x, lam)
        assert np.array_equal(plus, -minus)


def test_unknown_model_lists_registered_names():
    with pytest.raises(UnknownModel) as err:
        builtin_model("nope")
    msg = str(err.value)
    for name in ("tanh2", "pitchfork_normal_form", "linear"):
        assert name in msg


def test_expression_system_matches_builtin_bit_for_bit(tanh2_system):
    source = "-x1 + tanh(l1*x2); -x2 + tanh(l1*x1)"
    expr_sys = system_from_expressions(source, 2, 1)
    rng = np.random.default_rng(606)
    for _ in range(50):
        x = rng.uniform(-2.0, 2.0, size=2)
        lam = rng.uniform(-2.0, 2.0, size=1)
        assert np.array_equal(expr_sys.phi(x, lam), tanh2_system.phi(x, lam))
        assert np.array_equal(expr_sys.dphi_dx(x, lam), tanh2_system.dphi_dx(x, lam))
        assert np.array_equal(expr_sys.dphi_dlambda(x, lam), tanh2_system.dphi_dlambda(x, lam))


def test_from_callable_fills_jacobians_by_differencing():
    sys_ = from_callable(lambda x, lam: np.array([x[0] ** 2 - lam[0]]), 1, 1)
    jx = sys_.dphi_dx(np.array([1.5]), np.array([0.0]))
    jl = sys_.dphi_dlambda(np.array([1.5]), np.array([0.0]))
    assert abs(jx[0, 0] - 3.0) <= 1e-7
    assert abs(jl[0, 0] + 1.0) <= 1e-9


def test_evaluation_point_and_equilibrium_check(tanh2_system):
    pt = evaluation_point(tanh2_system, [0.0, 0.0], [1.0])
    assert pt.residual == 0.0
    assert pt.is_equilibrium()
    off = evaluation_point(tanh2_system, [0.3, -0.2], [1.0])
    assert not off.is_equilibrium()


def test_refine_equilibrium_polishes_a_nearby_guess(tanh2_system):
    # the nontrivial symmetric equilibrium at lambda = 1.5
    refined = refine_equilibrium(tanh2_system, [0.8, 0.8], [1.5])
    assert refined.residual <= 1e-12
    a = refined.x0[0]
    assert abs(a - math.tanh(1.5 * a)) <= 1e-12
    # an exact equilibrium passes through untouched
    exact = refine_equilibrium(tanh2_system, [0.0, 0.0], [1.0])
    assert np.array_equal(exact.x0, np.zeros(2)) and exact.residual == 0.0


def test_newton_full_converges_to_equilibrium(tanh2_system):
    x = newton_full(tanh2_system, np.array([0.9, 0.7]), np.array([1.5]))
    assert x is not None
    assert np.linalg.norm(tanh2_system.phi(x, np.array([1.5]))) <= 1e-12


def test_bifurcation_candidate_detection(tanh2_system):
    flagged, q = is_bifurcation_candidate(tanh2_system, evaluation_point(tanh2_system, [0, 0], [1.0]))
    assert flagged and q == 1
    clear, q0 = is_bifurcation_candidate(tanh2_system, evaluation_point(tanh2_system, [0, 0], [0.5]))
    assert not clear and q0 == 0


def test_shape_validation_on_wrappers(tanh2_system):
    with pytest.raises(lscert.DimensionMismatch):
        tanh2_system.phi(np.zeros(3), np.zeros(1))
    with pytest.raises(lscert.DimensionMismatch):
        tanh2_system.phi(np.zeros(2), np.zeros(2))
    for stacks, message in (
        ((np.zeros((4, 3)), np.zeros((4, 1))), r"state has shape \(3,\), expected \(2,\)"),
        ((np.zeros((3, 4)), np.ones((6, 1))), r"state has shape \(4,\), expected \(2,\)"),
        ((np.zeros((4, 2)), np.zeros((4, 2))), r"parameter has shape \(2,\), expected \(1,\)"),
        ((np.zeros((4, 2)), np.zeros((3, 1))), "4 states but 3 parameters"),
    ):
        for method in (tanh2_system.residuals, tanh2_system.jacobians):
            with pytest.raises(lscert.DimensionMismatch, match=message):
                method(*stacks)


def test_linear_model_requires_params():
    with pytest.raises(UnknownModel):
        builtin_model("linear")


def test_parameter_jacobian_shape_is_checked():
    fun = lambda x, lam: np.array([x[0] - lam[0], x[1]])
    ok = from_callable(fun, 2, 1, jac_lambda=lambda x, lam: np.array([-1.0, 0.0]))
    assert ok.dphi_dlambda([0.0, 0.0], [0.0]).tolist() == [[-1.0], [0.0]]
    for jacs, message in (
        ({"jac_lambda": lambda x, lam: np.zeros(3)}, r"parameter Jacobian has shape \(3,\)"),
        ({"jac_x": lambda x, lam: np.zeros((2, 3))}, r"state Jacobian has shape \(2, 3\)"),
    ):
        bad = from_callable(fun, 2, 1, **jacs)
        with pytest.raises(lscert.DimensionMismatch, match=message):
            bad.dphi_dlambda([0.0, 0.0], [0.0])


def _dsl_reference(source, n, m):
    names = default_names(n, m)
    asts = expr_mod.parse_components(source, n, *names)
    return lambda x, lam: per_point_eval_values(asts, x, lam, names)


_TIES = "min(x1, x2) * l1; max(x1, x2) - x1 / l1"


# each system with its per-point residual, at random points plus the
# signed-zero ties where min/max must pick as Python's min/max do
@pytest.mark.parametrize("make,reference", [
    (lambda: builtin_model("tanh2"), tanh2_fun),
    (lambda: builtin_model("pitchfork_normal_form"),
     lambda x, lam: np.array([lam[0] * x[0] - x[0] ** 3])),
    (lambda: builtin_model("linear", _LINEAR),
     lambda x, lam: np.array(_LINEAR["A"]) @ x + np.array(_LINEAR["b"]) @ lam),
    (lambda: system_from_expressions(_EXPR, 2, 2), _dsl_reference(_EXPR, 2, 2)),
    (lambda: system_from_expressions(_TIES, 2, 1), _dsl_reference(_TIES, 2, 1)),
    (lambda: from_callable(_FD, 2, 1), _FD),
], ids=["tanh2", "pitchfork", "linear", "expr", "expr-ties", "fd"])
def test_batched_residuals_equal_per_point_bitwise(make, reference):
    sys_ = make()
    rng = np.random.default_rng(707)
    xs = rng.uniform(-2.0, 2.0, size=(40, sys_.n))
    lams = rng.uniform(0.5, 2.0, size=(40, sys_.m))
    if sys_.n == 2:
        xs[:2] = [[0.0, -0.0], [-0.0, 0.0]]
    got = sys_.residuals(xs, lams)
    assert got.shape == (40, sys_.k)
    for i, (x, lam) in enumerate(zip(xs, lams)):
        assert got[i].tobytes() == reference(x, lam).tobytes()
        assert got[i].tobytes() == sys_.phi(x, lam).tobytes()


def test_tanh2_slope_is_zero_where_cosh_squared_overflows():
    # cosh(l x)^2 overflows past |l x| ~ 355; those elements are replayed
    # through sech_power, whose limit is 0.0, and the others keep their bits
    sys_ = builtin_model("tanh2")
    xs = np.array([[0.5, 400.0], [300.0, -0.1], [-800.0, 1.0], [0.25, -0.75]])
    lams = np.array([[1.0], [1.2], [1.0], [1.5]])
    jx, jl = sys_.jacobians(xs, lams)
    res = sys_.residuals(xs, lams)
    for i, (x, lam) in enumerate(zip(xs, lams)):
        assert jx[i].tobytes() == tanh2_jac_x(x, lam).tobytes()
        assert jl[i].tobytes() == tanh2_jac_lambda(x, lam).tobytes()
        assert res[i].tobytes() == tanh2_fun(x, lam).tobytes()
    assert jx[0, 0, 1] == jx[1, 1, 0] == jx[2, 1, 0] == 0.0


def test_from_callable_differences_each_point_once():
    # one central-difference pass per point gives both blocks: two calls per
    # coordinate, 2 * (n + m) = 6 here
    calls = []

    def fun(x, lam):
        calls.append(1)
        return np.array([x[0] ** 2 - lam[0], x[0] * x[1]])

    sys_ = from_callable(fun, 2, 1)
    rng = np.random.default_rng(909)
    sys_.jacobians(rng.uniform(-1.0, 1.0, size=(10, 2)), rng.uniform(-1.0, 1.0, size=(10, 1)))
    assert len(calls) == 60
