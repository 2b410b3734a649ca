import itertools
import math

import numpy as np
import pytest

import lscert
from lscert import expr as expr_mod
from lscert.imft import BaseBlocks
from lscert.norms import induced_norm
from lscert.sampling import ball_points


@pytest.fixture(scope="session")
def tanh2_system():
    return lscert.builtin_model("tanh2")


@pytest.fixture(scope="session")
def tanh2_split(tanh2_system):
    point = lscert.evaluation_point(tanh2_system, [0.0, 0.0], [1.0])
    return lscert.build_split_system(tanh2_system, point)


def random_singular_matrix(rng: np.random.Generator, n: int, q: int) -> np.ndarray:
    """Random n x n matrix with an exactly q-dimensional kernel.

    Built as U diag(s) V^T from random orthogonal factors with q singular
    values set to zero, so the intended rank is known by construction.
    """
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.sort(rng.uniform(0.5, 3.0, size=n))[::-1]
    s[n - q:] = 0.0
    return u @ np.diag(s) @ v.T


# --- closed-form complement deviation of the coupled tanh pair ----------------

SQRT2 = math.sqrt(2.0)


def xi2_closed_form(alpha, beta, lam):
    """||xi_2(alpha, beta, lam)|| for tanh2 at the symmetric point, in closed form.

    ||xi_2|| = |(s1 + s2)/2 - 1| with s_i = lam / cosh(lam * x_i)^2 and
    x = ((alpha+beta)/sqrt2, (alpha-beta)/sqrt2). Takes scalars or arrays
    that broadcast against each other.
    """
    x1 = (alpha + beta) / SQRT2
    x2 = (alpha - beta) / SQRT2
    s1 = lam / np.cosh(lam * x1) ** 2
    s2 = lam / np.cosh(lam * x2) ** 2
    return np.abs((s1 + s2) / 2.0 - 1.0)


def xi2_supremum(r_par: float, r_perp: float) -> float:
    """Dense-scan supremum of ``xi2_closed_form`` over the closed product ball.

    The (alpha, lam) disk of radius r_par about (0, 1) is scanned on a polar
    grid (41 radii from the centre to the rim, angles in one-degree steps,
    so the four axis points of the rim are on it) and the beta
    interval [-r_perp, r_perp] on 101 points that include both endpoints
    and 0. Independent of the library's lattice and maximisation code.
    """
    rho = np.linspace(0.0, r_par, 41)[:, None]
    theta = np.linspace(0.0, 2.0 * np.pi, 361)[None, :]
    alpha = (rho * np.cos(theta)).reshape(-1, 1)
    lam = (1.0 + rho * np.sin(theta)).reshape(-1, 1)
    beta = np.linspace(-r_perp, r_perp, 101)[None, :]
    return float(xi2_closed_form(alpha, beta, lam).max())


# --- random expression generator for dual-vs-difference checks ---------------

_LEAF_P = 0.45


def _random_node(rng: np.random.Generator, n: int, m: int, depth: int):
    if depth <= 0 or rng.uniform() < _LEAF_P:
        pick = rng.integers(0, 3)
        if pick == 0 or (pick == 2 and m == 0):
            return expr_mod.Const(round(float(rng.uniform(-2.0, 2.0)), 3))
        if pick == 1:
            return expr_mod.StateVar(int(rng.integers(0, n)))
        return expr_mod.ParamVar(int(rng.integers(0, m)))
    kind = rng.integers(0, 4)
    if kind == 0:
        op = "+-*/"[rng.integers(0, 4)]
        return expr_mod.Binary(op, _random_node(rng, n, m, depth - 1),
                               _random_node(rng, n, m, depth - 1))
    if kind == 1:
        arg = _random_node(rng, n, m, depth - 1)
        # the parser folds unary minus over literals, so canonical trees
        # never contain Neg(Const); generate the folded form directly
        if isinstance(arg, expr_mod.Const):
            return expr_mod.Const(-arg.value)
        return expr_mod.Neg(arg)
    if kind == 2:
        return expr_mod.Pow(_random_node(rng, n, m, depth - 1), int(rng.integers(0, 4)))
    name = expr_mod.UNARY_FUNCTIONS[rng.integers(0, len(expr_mod.UNARY_FUNCTIONS))] \
        if rng.uniform() < 0.8 else expr_mod.BINARY_FUNCTIONS[rng.integers(0, 2)]
    if name in expr_mod.BINARY_FUNCTIONS:
        return expr_mod.Func(name, (_random_node(rng, n, m, depth - 1),
                                    _random_node(rng, n, m, depth - 1)))
    return expr_mod.Func(name, (_random_node(rng, n, m, depth - 1),))


def _guard_distance(node, x, lam, names) -> float:
    """Smallest margin to any kink / domain edge / denominator zero.

    A guarded sample keeps finite differences honest: steps of ~1e-6 must not
    cross an abs/min/max kink, a log/sqrt domain edge, or a pole.
    """
    worst = math.inf

    def value(nd) -> float:
        return float(expr_mod.eval_values([nd], x, lam, names=names)[0])

    def walk(nd):
        nonlocal worst
        if isinstance(nd, expr_mod.Func):
            if nd.name == "abs":
                worst = min(worst, abs(value(nd.args[0])))
            elif nd.name in ("min", "max"):
                worst = min(worst, abs(value(nd.args[0]) - value(nd.args[1])))
            elif nd.name in ("log", "sqrt"):
                worst = min(worst, value(nd.args[0]))
            for a in nd.args:
                walk(a)
        elif isinstance(nd, expr_mod.Binary):
            if nd.op == "/":
                worst = min(worst, abs(value(nd.right)))
            walk(nd.left)
            walk(nd.right)
        elif isinstance(nd, expr_mod.Neg):
            walk(nd.arg)
        elif isinstance(nd, expr_mod.Pow):
            walk(nd.base)

    walk(node)
    return worst


def generate_expression_cases(count: int, seed: int = 20240917):
    """Deterministic (ast, names, x, lam) tuples safe for 1e-6 differencing.

    Candidates whose value/derivative blow up or that sit too close to a
    kink or domain edge are discarded and regenerated, so the yielded cases
    are exactly `count` many and identical across runs.
    """
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(0, 3))
        names = expr_mod.default_names(n, m)
        node = _random_node(rng, n, m, depth=int(rng.integers(1, 4)))
        x = rng.uniform(-1.5, 1.5, size=n)
        lam = rng.uniform(-1.5, 1.5, size=m)
        try:
            if _guard_distance(node, x, lam, names) < 1e-3:
                continue
            vals, jx, jl = expr_mod.eval_dual([node], x, lam, names=names)
        except lscert.LscertError:
            continue
        if abs(vals[0]) > 1e4 or max(np.abs(jx).max(initial=0.0),
                                     np.abs(jl).max(initial=0.0)) > 1e4:
            continue
        cases.append((node, names, x, lam))
    return cases


def central_difference_jacobian(node, names, x, lam, h: float = 1e-6):
    """Plain-value central differences of a single expression component."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)

    def f(xv, lv) -> float:
        return float(expr_mod.eval_values([node], xv, lv, names=names)[0])

    dx = np.empty(x.size)
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = h * max(1.0, abs(x[i]))
        dx[i] = (f(x + step, lam) - f(x - step, lam)) / (2.0 * step[i])
    dl = np.empty(lam.size)
    for j in range(lam.size):
        step = np.zeros(lam.size)
        step[j] = h * max(1.0, abs(lam[j]))
        dl[j] = (f(x, lam + step) - f(x, lam - step)) / (2.0 * step[j])
    return dx, dl


# --- per-point reference for the sampled deviation suprema --------------------


def per_point_L(f, x0, y0, r_x, r_y, samples_per_dim, norm_kind="spectral", x_weights=None,
                base=None):
    """(L_x, L_y) as the per-point loop takes them, one pair at a time.

    The reference the chunked sampler in lscert.imft is held to bit for bit:
    max of ||(block(px, py) - base_block) diag(w)|| over
    itertools.product(pts_x, pts_y), on the same ball points, with
    L_x over the x-ball at y0 and L_y over the x-ball times the y-ball.
    """
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    base = base or BaseBlocks.at(f, x0, y0)
    w = None if x_weights is None else np.asarray(x_weights, dtype=float)

    def sup(block, base_block, pts_x, pts_y, weights=None):
        def deviation(pair):
            d = block(*pair) - base_block
            if weights is not None:
                d = d * weights[None, :]
            return induced_norm(d, norm_kind)

        return max(map(deviation, itertools.product(pts_x, pts_y)), default=0.0)

    pts_x = ball_points(x0, r_x, samples_per_dim, norm_kind, weights=w)
    pts_y = ball_points(y0, r_y, samples_per_dim, norm_kind)
    return sup(f.dx, base.dx, pts_x, [y0], w), sup(f.dy, base.dy, pts_x, pts_y)
