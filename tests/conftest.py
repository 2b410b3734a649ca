import itertools
import math

import numpy as np
import pytest

import lscert
from lscert import expr as expr_mod
from lscert import norms as norms_mod
from lscert.errors import DomainError, NewtonDiverged, NonFinite, SingularNewtonSystem
from lscert.expr import (
    BINARY_FUNCTIONS,
    KINK_TOL,
    Binary,
    Const,
    Func,
    Neg,
    Node,
    ParamVar,
    Pow,
    StateVar,
    default_names,
    sech_power,
    to_source,
)
from lscert.imft import BaseBlocks, CertifiedRegion, FrontierPoint, RegionEntry, check_conditions
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


# --- per-point references for the batched residual and Jacobians -------------
#
# The per-point forms the batched callables replaced, kept as they were: the
# references the batched paths are held to bit for bit.


def tanh2_fun(x, lam):
    l = lam[0]
    return np.array([-x[0] + math.tanh(l * x[1]), -x[1] + math.tanh(l * x[0])])


def tanh2_jac_x(x, lam):
    l = lam[0]
    return np.array([
        [-1.0, l * sech_power(l * x[1], 2)],
        [l * sech_power(l * x[0], 2), -1.0],
    ])


def tanh2_jac_lambda(x, lam):
    l = lam[0]
    return np.array([
        [x[1] * sech_power(l * x[1], 2)],
        [x[0] * sech_power(l * x[0], 2)],
    ])


def expr_jacobians(source, n, m):
    """Per-point (jac_x, jac_lambda) of a DSL system through per_point_eval_dual."""
    names = default_names(n, m)
    asts = expr_mod.parse_components(source, n, *names)
    return (lambda x, lam: per_point_eval_dual(asts, x, lam, n, names)[1],
            lambda x, lam: per_point_eval_dual(asts, x, lam, n, names)[2])


def point_state(ss, alpha, beta):
    """The state V alpha + Vperp beta of a SplitSystem at one point, as 2-D products."""
    return ss.decomp.V @ alpha + ss.decomp.Vperp @ beta


def split_view_blocks(ss, jac_x, jac_lambda):
    """Per-point (dx, dy) of ss.as_split_function() as 2-D products.

    jac_x and jac_lambda are per-point Jacobian blocks of ss.sys; the state is
    point_state(ss, alpha, beta).
    """
    w_t, v, v_perp, q = ss.decomp.W.T, ss.decomp.V, ss.decomp.Vperp, ss.q

    def dx(p, beta):
        x, lam = point_state(ss, p[:q], np.atleast_1d(beta)), p[q:]
        return np.hstack([w_t @ jac_x(x, lam) @ v, w_t @ jac_lambda(x, lam)])

    def dy(p, beta):
        x, lam = point_state(ss, p[:q], np.atleast_1d(beta)), p[q:]
        return w_t @ jac_x(x, lam) @ v_perp

    return dx, dy


# --- per-point reference for the sampled deviation suprema --------------------


def per_point_L(dx, dy, x0, y0, r_x, r_y, samples_per_dim, norm_kind="spectral", x_weights=None,
                base=None):
    """(L_x, L_y) as the per-point loop takes them, one pair at a time.

    The reference the chunked sampler in lscert.imft is held to bit for bit:
    max of ||(block(px, py) - base_block) diag(w)|| over
    itertools.product(pts_x, pts_y), on the same ball points, with
    L_x over the x-ball at y0 and L_y over the x-ball times the y-ball. dx
    and dy are per-point references for the blocks; the base blocks default
    to their values at (x0, y0).
    """
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    base = base or BaseBlocks(dx=dx(x0, y0), dy=dy(x0, y0))
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
    return sup(dx, base.dx, pts_x, [y0], w), sup(dy, base.dy, pts_x, pts_y)


def full_scan_region(q, r_x_grid, r_y_grid):
    """certify_grid's region with every L taken in full, the frontier midpoint's too.

    The reference the early-stopping frontier of lscert.imft is held to with
    ==: the sorted distinct radii, each pair's check_conditions, and per r_y
    the last certified radius of the first certified run, refined by one
    bisection step toward the failure that ends the run.
    """
    r_xs = sorted({float(r) for r in r_x_grid})
    entries, frontier = [], []
    for r_y in sorted({float(r) for r in r_y_grid}):
        checks = [check_conditions(q, r_x, r_y) for r_x in r_xs]
        entries += [RegionEntry(r_x, r_y, c.certified, c.margin_domain, c.margin_contraction)
                    for r_x, c in zip(r_xs, checks)]
        passed = [c.certified for c in checks]
        r_max = None
        if any(passed):
            last = passed.index(True)
            while last + 1 < len(passed) and passed[last + 1]:
                last += 1
            r_max = r_xs[last]
            if last + 1 < len(passed):
                mid = 0.5 * (r_max + r_xs[last + 1])
                if check_conditions(q, mid, r_y).certified:
                    r_max = mid
        frontier.append(FrontierPoint(r_y, r_max))
    return CertifiedRegion(tuple(entries), tuple(frontier), q.rigorous)


def max_induced_norm(a, kind="spectral", floor=0.0):
    """max(floor, induced_norms(a, kind).max()) of a stack (N, r, c), through the bounds.

    The norms are taken only of the matrices norm_survivors keeps, as the
    sampled L takes them; tests/test_norms.py holds this to the maximum of
    every norm, bit for bit, and counts the norms taken through
    lscert.norms.induced_norms.
    """
    a = np.asarray(a, dtype=float)
    _, keep, _ = norms_mod.norm_survivors(a, kind, floor)
    norms = norms_mod.induced_norms(a[keep], kind)
    return max(floor, float(norms.max())) if len(norms) else floor


# --- per-point reference for the compiled expression trees --------------------
#
# The per-point forward-mode walker the compiled trees in lscert.expr replaced,
# kept as it was: the reference they are held to bit for bit, errors included.


class DualVector:
    """Value plus a dense vector of partials with respect to all inputs.

    The batched walker stores N points at once: (N,) values, (N, total) partials.
    """

    __slots__ = ("val", "der")

    def __init__(self, val: float, der: np.ndarray):
        self.val = val
        self.der = der


def _offending(node: Node, names) -> str:
    return to_source(node, *names)


def _eval(node: Node, xs, ls, dual: bool, names, total: int = 0) -> "DualVector | float":
    """Shared recursive walker; `xs`/`ls` hold DualVector or float leaves."""

    def ev(nd: Node):
        if isinstance(nd, Const):
            return DualVector(nd.value, np.zeros(total)) if dual else nd.value
        if isinstance(nd, StateVar):
            return xs[nd.index]
        if isinstance(nd, ParamVar):
            return ls[nd.index]
        if isinstance(nd, Neg):
            a = ev(nd.arg)
            return DualVector(-a.val, -a.der) if dual else -a
        if isinstance(nd, Pow):
            a = ev(nd.base)
            k = nd.exponent
            try:
                if not dual:
                    return a**k
                if k == 0:
                    return DualVector(1.0, np.zeros_like(a.der))
                return DualVector(a.val**k, (k * a.val ** (k - 1)) * a.der)
            except OverflowError as exc:
                raise NonFinite(f"overflow evaluating '{_offending(nd, names)}'") from exc
        if isinstance(nd, Binary):
            a, b = ev(nd.left), ev(nd.right)
            if not dual:
                if nd.op == "+":
                    return a + b
                if nd.op == "-":
                    return a - b
                if nd.op == "*":
                    return a * b
                if b == 0.0:
                    raise DomainError(f"division by zero in '{_offending(nd, names)}'")
                return a / b
            if nd.op == "+":
                return DualVector(a.val + b.val, a.der + b.der)
            if nd.op == "-":
                return DualVector(a.val - b.val, a.der - b.der)
            if nd.op == "*":
                return DualVector(a.val * b.val, a.der * b.val + a.val * b.der)
            if b.val == 0.0:
                raise DomainError(f"division by zero in '{_offending(nd, names)}'")
            q = a.val / b.val
            return DualVector(q, (a.der - q * b.der) / b.val)
        assert isinstance(nd, Func)
        if nd.name in BINARY_FUNCTIONS:
            a, b = ev(nd.args[0]), ev(nd.args[1])
            if not dual:
                return min(a, b) if nd.name == "min" else max(a, b)
            if abs(a.val - b.val) <= KINK_TOL:
                raise DomainError(
                    f"{nd.name} arguments tie within {KINK_TOL:g} in '{_offending(nd, names)}'; "
                    "derivative undefined at the kink")
            pick_a = (a.val < b.val) == (nd.name == "min")
            return a if pick_a else b
        a = ev(nd.args[0])
        v = a.val if dual else a
        try:
            if nd.name == "tanh":
                out = math.tanh(v)
                if dual:
                    return DualVector(out, a.der * sech_power(v, 2))
                return out
            if nd.name == "sech":
                out = sech_power(v, 1)
                if dual:
                    return DualVector(out, a.der * (-out * math.tanh(v)))
                return out
            if nd.name == "sin":
                return DualVector(math.sin(v), a.der * math.cos(v)) if dual else math.sin(v)
            if nd.name == "cos":
                return DualVector(math.cos(v), a.der * (-math.sin(v))) if dual else math.cos(v)
            if nd.name == "exp":
                out = math.exp(v)
                return DualVector(out, a.der * out) if dual else out
            if nd.name == "log":
                if v <= 0.0:
                    raise DomainError(f"log of non-positive value {v!r} in '{_offending(nd, names)}'")
                return DualVector(math.log(v), a.der / v) if dual else math.log(v)
            if nd.name == "sqrt":
                if v < 0.0 or (dual and v == 0.0):
                    raise DomainError(
                        f"sqrt of {'negative value' if v < 0 else 'zero (derivative singular)'} "
                        f"{v!r} in '{_offending(nd, names)}'")
                out = math.sqrt(v)
                return DualVector(out, a.der / (2.0 * out)) if dual else out
            assert nd.name == "abs"
            if dual and abs(v) <= KINK_TOL:
                raise DomainError(
                    f"abs argument within {KINK_TOL:g} of the kink in '{_offending(nd, names)}'; "
                    "derivative undefined there")
            return DualVector(abs(v), a.der * math.copysign(1.0, v)) if dual else abs(v)
        except (OverflowError, ValueError) as exc:  # ValueError: sin or cos of an overflowed inf
            raise NonFinite(f"overflow evaluating '{_offending(nd, names)}'") from exc

    return ev(node)


def per_point_eval_dual(
    asts: list[Node],
    x: np.ndarray,
    lam: np.ndarray,
    n_state: int | None = None,
    names: tuple[tuple[str, ...], tuple[str, ...]] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate all components and both Jacobian blocks in one dual pass.

    Returns (values, d_values/d_x, d_values/d_lambda) with shapes
    (k,), (k, n), (k, m) for k components.
    """
    x = np.asarray(x, dtype=float).ravel()
    lam = np.asarray(lam, dtype=float).ravel()
    n = x.size if n_state is None else n_state
    m = lam.size
    if names is None:
        names = default_names(n, m)
    total = n + m
    xs = [DualVector(float(x[i]), _seed(total, i)) for i in range(n)]
    ls = [DualVector(float(lam[j]), _seed(total, n + j)) for j in range(m)]
    vals = np.empty(len(asts))
    jac = np.empty((len(asts), total))
    for row, ast in enumerate(asts):
        out = _eval(ast, xs, ls, dual=True, names=names, total=total)
        vals[row] = out.val
        jac[row] = out.der
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(jac))):
        raise NonFinite("expression evaluation produced a non-finite value or derivative")
    return vals, jac[:, :n], jac[:, n:]


def _seed(total: int, hot: int) -> np.ndarray:
    der = np.zeros(total)
    der[hot] = 1.0
    return der


def per_point_eval_values(
    asts: list[Node],
    x: np.ndarray,
    lam: np.ndarray = (),
    names: tuple[tuple[str, ...], tuple[str, ...]] | None = None,
) -> np.ndarray:
    """Plain float evaluation of all components (no derivatives, kink-safe)."""
    x = np.asarray(x, dtype=float).ravel()
    lam = np.asarray(lam, dtype=float).ravel()
    if names is None:
        names = default_names(x.size, lam.size)
    xs = [float(v) for v in x]
    ls = [float(v) for v in lam]
    vals = np.array([_eval(ast, xs, ls, dual=False, names=names) for ast in asts], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NonFinite("expression evaluation produced a non-finite value")
    return vals


# --- per-point references for the lockstep Newton -----------------------------


def per_point_damped_newton(residual, jacobian, z0, tol=1e-12, max_iters=50, max_backtracks=30):
    """The per-point damped Newton loop damped_newton_many replaced, kept as it was."""
    z = np.array(z0, dtype=float)
    r = residual(z)
    rnorm = float(np.linalg.norm(r))
    for _ in range(max_iters):
        if rnorm <= tol:
            return z
        try:
            step = np.linalg.solve(jacobian(z), -r)
        except np.linalg.LinAlgError as exc:
            raise SingularNewtonSystem(
                f"Newton linear system is singular (residual {rnorm:.3e})") from exc
        t = 1.0
        for _ in range(max_backtracks):
            z_new = z + t * step
            r_new = residual(z_new)
            rnorm_new = float(np.linalg.norm(r_new))
            if np.isfinite(rnorm_new) and rnorm_new < rnorm:
                break
            t *= 0.5
        else:
            raise NewtonDiverged(
                f"no descent after {max_backtracks} backtracks (residual {rnorm:.3e})")
        z, r, rnorm = z_new, r_new, rnorm_new
    if rnorm <= tol:
        return z
    raise NewtonDiverged(
        f"residual {rnorm:.3e} above tolerance {tol:g} after {max_iters} iterations")


_VECTOR_ORD = {"spectral": 2, "one": 1, "infinity": np.inf}


def per_point_witness(f, x0, y0, r_x, r_y, n_samples=100, norm_kind="spectral", seed=0):
    """(converged, max_y_norm, ok) as the per-sample witness loop takes them.

    The loop witness_check replaced, kept as it was: each sample is drawn and
    then solved by per_point_damped_newton from y0 before the next is drawn,
    and a singular or diverged solve counts as not converged.
    """
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    target = f.value(x0, y0)
    rng = np.random.default_rng(seed)
    converged, max_norm = 0, 0.0
    for _ in range(n_samples):
        while True:
            u = rng.uniform(-1.0, 1.0, size=x0.size)
            if np.linalg.norm(u, _VECTOR_ORD[norm_kind]) <= 1.0:
                break
        x = x0 + r_x * u
        try:
            y = per_point_damped_newton(lambda y: f.value(x, y) - target, lambda y: f.dy(x, y),
                                        y0.reshape(-1))
        except (SingularNewtonSystem, NewtonDiverged):
            continue
        converged += 1
        max_norm = max(max_norm, float(np.linalg.norm(y - y0, _VECTOR_ORD[norm_kind])))
    return converged, max_norm, converged == n_samples and max_norm < r_y


def per_point_reduced(ss, alpha, lam):
    """(beta, x, g, residual_full) of the reduced map at one point, solved from beta0.

    Uses per_point_damped_newton, the per-point residual and 2-D products; a
    failed solve raises its error worded as solve_phi words it.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    w_t, v, v_perp = ss.decomp.W.T, ss.decomp.V, ss.decomp.Vperp
    try:
        beta = per_point_damped_newton(
            lambda b: w_t @ ss.sys.phi(v @ alpha + v_perp @ b, lam),
            lambda b: w_t @ ss.sys.dphi_dx(v @ alpha + v_perp @ b, lam) @ v_perp, ss.beta0)
    except (NewtonDiverged, SingularNewtonSystem) as exc:
        raise type(exc)(f"range block: {exc} at alpha={alpha}, lambda={lam}") from exc
    x = v @ alpha + v_perp @ beta
    full = ss.sys.phi(x, lam)
    return beta, x, ss.decomp.Wperp.T @ full, float(np.linalg.norm(full))
