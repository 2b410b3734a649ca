"""Interval enclosures of DSL Jacobians over boxes, and of the split views' linear maps.

The third arithmetic table of expr's one tree walker (expr.compile_tree),
beside the float and dual tables: an interval forward-mode walk (Moore,
Kearfott & Cloud, Introduction to Interval Analysis, SIAM 2009, chapters 5
and 8). compile_boxes turns a component list into one function over a
stack of boxes that returns, per box, an interval of every entry of both
Jacobian blocks. Node by node, the table takes the dual table's operation
over boxes, so each interval holds the exact derivative over its box and
also the float the dual walk computes at any point of the box:

* + - * / take the extremes of the end-point results and round them outward
  by one ulp with np.nextafter; negation, abs, selection and a product with
  a variable's 0/1 seed are exact;
* a math call (tanh, cosh, pow, sin, cos, exp, log) is taken at the ends of
  each monotone piece of its argument interval, or at its extreme value where
  the interval holds a critical point, and widened by MATH_ULPS ulps;
* a box gets the unbounded interval (-inf, inf) in every entry where it may
  hold a point at which the dual walk raises, or where the enclosure
  overflows: an abs/min/max argument within KINK_TOL of its kink, a divisor
  interval that holds 0, a log or sqrt argument interval that reaches 0, an
  argument with a non-finite end, or a non-finite derivative.

matvec_box and sandwich_box carry boxes through the split views' linear maps
in midpoint-radius form (Rump, "Fast and parallel interval arithmetic", BIT
39, 1999), with the rounding of the float products in the radius (Higham,
Accuracy and Stability of Numerical Algorithms, 2002, section 3.5).
sandwich_deviation bounds the spectral norm of such a product's deviation
through the whole box of J, which the kernel split takes where the product's
entrywise hull mixes signs.
"""

from __future__ import annotations

import math

import numpy as np

from .expr import KINK_TOL, Binary, Func, Neg, Node, ParamVar, Pow, StateVar, compile_tree
from .norms import box_norm_bounds

EPS = float(np.finfo(float).eps)  # 2^-52, twice the unit roundoff

# ulps by which each end of a math call's interval is widened. glibc documents
# at most 2 ulp of error for every function used here on x86-64 (tanh and cosh;
# sin, cos, exp, log and pow have 1): the end point and the point the dual walk
# takes may each be off by that much, in opposite directions
MATH_ULPS = 4

# where |argument| exceeds this, sin and cos get [-1, 1]: below it the
# number of turns to a critical point is known far inside _TURN_SLACK
_PERIODIC_LIMIT = 1e6
_TURN_SLACK = 1e-9


# the direction each end of an interval rounds to, by the number of dimensions
# of the stacked (2, ...) array that holds the interval
_OUTWARD = {d: np.array([-np.inf, np.inf]).reshape((2,) + (1,) * (d - 1)) for d in (1, 2, 3)}
# the relative widening of each end by `ulps` ulps, for a value interval (2, N)
_SPREAD = {ulps: np.array([[-ulps * EPS], [ulps * EPS]]) for ulps in (MATH_ULPS, 2 * MATH_ULPS,
                                                                      3 * MATH_ULPS)}


def _outward(a):
    """Each end of the interval a (lo, hi stacked on axis 0) rounded outward by one ulp."""
    return np.nextafter(a, _OUTWARD[a.ndim])


def _widen(a, ulps=MATH_ULPS):
    """The value interval a widened by at least `ulps` ulps of each end, and one more."""
    return _outward(a + np.abs(a) * _SPREAD[ulps])


def _add(a, b):
    return _outward(a + b)


def _sub(a, b):
    return _outward(a - b[::-1])


def _neg(a):
    return -a[::-1]


def _extremes(products):
    """The least and the largest of the four end-point products (2, 2, ...), rounded outward."""
    p = products.reshape((4,) + products.shape[2:])
    p.sort(axis=0)  # a NaN sorts last, so it reaches the upper end
    return _outward(p[::3])


def _mul(a, b):
    return _extremes(a[:, None] * b[None])


def _div(a, b):
    """a / b for a divisor interval b that does not hold 0 (callers flag the others)."""
    return _extremes(a[:, None] / b[None])


def _at(fn, a: np.ndarray, *args) -> np.ndarray:
    """fn(v, *args) at each end of a, one math call each; +inf where the call overflows."""
    lst = a.ravel().tolist()
    consts = [[c] * len(lst) for c in args]
    try:
        out = np.fromiter(map(fn, lst, *consts), float, len(lst))
    except (OverflowError, ValueError):
        def one(*v):
            try:
                return fn(*v)
            except OverflowError:
                return math.inf
            except ValueError:
                return math.nan
        out = np.array([one(*v) for v in zip(lst, *consts)], dtype=float)
    return out.reshape(a.shape)


def _magnitudes(a):
    """The least and the largest |v| over each interval: the least is 0 where it holds 0."""
    m = np.sort(np.abs(a), axis=0)
    m[0][a[0] * a[1] <= 0.0] = 0.0
    return m


def _pow(a, k: int):
    """v**k for a nonnegative integer k, through libm pow on |v| (pow(-x, k) is +-pow(x, k))."""
    if k == 0:
        return np.ones_like(a)
    if k % 2 == 0:
        return _widen(_at(math.pow, _magnitudes(a), float(k)))
    return _widen(np.copysign(_at(math.pow, np.abs(a), float(k)), a))


def _sech_power(a, k: int):
    """1 / cosh(v)**k (k = 1, 2) as expr takes it: cosh, then libm pow, then a reciprocal.

    cosh's error, raised to the k-th power, and pow's own are covered by one
    widening of (k + 1) MATH_ULPS ulps. A cosh or pow that overflows is +inf
    here, so its reciprocal is the 0.0 that expr.sech_power returns there.
    """
    powers = _at(math.pow, _at(math.cosh, _magnitudes(a)), float(k))
    return _outward(1.0 / _widen(powers, (k + 1) * MATH_ULPS)[::-1])


def _periodic(fn, a, peak: float):
    """sin or cos over each interval: its peak (1) at peak + 2 pi j, its trough (-1) at peak + pi + 2 pi j."""
    ends = np.sort(_at(fn, np.where(np.isfinite(a), a, 0.0)), axis=0)

    def holds(shift):
        turns = (a - shift) / (2.0 * math.pi)
        return np.floor(turns[1] + _TURN_SLACK) >= np.ceil(turns[0] - _TURN_SLACK)

    # a NaN end fails every comparison and so gets the whole range
    wide = ~((a[1] - a[0] < 2.0 * math.pi) & (np.abs(a) < _PERIODIC_LIMIT).all(axis=0))
    ends[1][wide | holds(peak)] = 1.0
    ends[0][wide | holds(peak + math.pi)] = -1.0
    return _widen(ends)


def _flag_nonfinite(bad, v):
    """Flag the boxes where the value interval v has a non-finite end (or a width that overflows)."""
    bad |= ~np.isfinite(v[0] - v[1])


def _slotted(nd: Node, n: int, slots: list[int]) -> Node:
    """nd with each variable replaced by StateVar(slot), slots numbered in order of first use.

    slots[k] is the input (x1..xn, then l1..lm) that slot k stands for.
    Components that differ only in which inputs they read have equal slotted
    trees, and compile_boxes walks them once, side by side.
    """
    if isinstance(nd, (StateVar, ParamVar)):
        i = nd.index if isinstance(nd, StateVar) else n + nd.index
        if i not in slots:
            slots.append(i)
        return StateVar(slots.index(i))
    if isinstance(nd, Neg):
        return Neg(_slotted(nd.arg, n, slots))
    if isinstance(nd, Binary):
        return Binary(nd.op, _slotted(nd.left, n, slots), _slotted(nd.right, n, slots))
    if isinstance(nd, Pow):
        return Pow(_slotted(nd.base, n, slots), nd.exponent)
    if isinstance(nd, Func):
        return Func(nd.name, tuple(_slotted(a, n, slots) for a in nd.args))
    return nd


class _Boxes:
    """The interval table: closures f(xs, bad) over slotted variables (_slotted).

    xs[k] is slot k's (value, derivative) pair. An interval stacks its lower
    and upper ends on axis 0: a value is a (2, N) array, a derivative a
    (2, N, n+m) one; constants hold (2, 1) and (2, 1, n+m) arrays that
    broadcast. `bad` is the (N,) mask of boxes whose enclosure is
    unbounded; a node adds to it in place the boxes where the dual walk may
    raise (see the module docstring), and the other boxes' intervals are not
    read past it. A value that is not demanded may be None, and is taken
    exactly where the dual table takes it. + - * and negation carry a
    non-finite end on to their parent; every node that could turn one back
    into a finite end (a division, a selection, a power, a function) flags
    the boxes where its arguments have one, and the roots' derivatives are
    checked last.
    """

    def __init__(self, zero):
        self.zero = zero

    def const(self, value):
        pair = (np.full((2, 1), value), self.zero)
        return lambda xs, bad: pair

    def variable(self, nd):
        slot = nd.index
        return lambda xs, bad: xs[slot]

    def neg(self, fa, demand):
        def negate(xs, bad):
            v, d = fa(xs, bad)
            return (_neg(v) if demand else None), _neg(d)
        return negate

    def add(self, nd, fa, fb, demand):
        op = _add if nd.op == "+" else _sub

        def add(xs, bad):
            (av, ad), (bv, bd) = fa(xs, bad), fb(xs, bad)
            return (op(av, bv) if demand else None), op(ad, bd)
        return add

    def mul(self, nd, fa, fb, demand):
        # a variable's derivative is its seed, a 0/1 point: its product with
        # an interval is exact, end by end
        left = np.multiply if isinstance(nd.left, StateVar) else _mul
        right = np.multiply if isinstance(nd.right, StateVar) else _mul

        def multiply(xs, bad):
            (av, ad), (bv, bd) = fa(xs, bad), fb(xs, bad)
            return ((_mul(av, bv) if demand else None),
                    _add(left(ad, bv[..., None]), right(bd, av[..., None])))
        return multiply

    def div(self, nd, fa, fb, demand):
        def divide(xs, bad):
            (av, ad), (bv, bd) = fa(xs, bad), fb(xs, bad)
            _flag_nonfinite(bad, av)
            apart = (bv[0] > 0.0) | (bv[1] < 0.0)  # False for a NaN end
            bad |= ~apart
            bv = np.where(apart, bv, 1.0)
            q = _div(av, bv)
            return q, _div(_sub(ad, _mul(q[..., None], bd)), bv[..., None])
        return divide

    def select(self, nd, fa, fb, demand):
        want_less = nd.name == "min"

        def select(xs, bad):
            (av, ad), (bv, bd) = fa(xs, bad), fb(xs, bad)
            _flag_nonfinite(bad, av)
            _flag_nonfinite(bad, bv)
            diff = _sub(av, bv)
            below, above = diff[1] < -KINK_TOL, diff[0] > KINK_TOL
            bad |= ~(below | above)
            pick_a = below if want_less else above
            return ((np.where(pick_a, av, bv) if demand else None),
                    np.where(pick_a[:, None], ad, bd))
        return select

    def call(self, nd, fa, demand):
        zero = self.zero
        if isinstance(nd, Pow):
            k = nd.exponent

            def power(xs, bad):
                av, ad = fa(xs, bad)
                _flag_nonfinite(bad, av)
                out = _pow(av, k) if demand else None
                if k == 0:
                    return out, zero
                return out, _mul(ad, _mul(np.full((2, 1), float(k)), _pow(av, k - 1))[..., None])
            return power
        name = nd.name

        def chain(xs, bad):
            av, ad = fa(xs, bad)
            _flag_nonfinite(bad, av)
            if name == "log" or name == "sqrt":
                positive = av[0] > 0.0
                bad |= ~positive
                av = np.where(positive, av, 1.0)
                if name == "log":
                    return (_widen(_at(math.log, av)) if demand else None), _div(ad, av[..., None])
                out = _outward(np.sqrt(av))  # sqrt is correctly rounded
                return out, _div(ad, _mul(np.full((2, 1), 2.0), out)[..., None])
            if name == "abs":
                below, above = av[1] < -KINK_TOL, av[0] > KINK_TOL
                bad |= ~(below | above)
                return ((np.where(above, av, -av[::-1]) if demand else None),
                        np.where(above[:, None], ad, -ad[::-1]))
            out = None
            if name == "exp":
                out = slope = _widen(_at(math.exp, av))
            elif name == "sech":
                out = _sech_power(av, 1)
                slope = _mul(_neg(out), _widen(_at(math.tanh, av)))
            elif name == "tanh":
                slope = _sech_power(av, 2)
                if demand:
                    out = _widen(_at(math.tanh, av))
            elif name == "sin":
                slope = _periodic(math.cos, av, 0.0)
                if demand:
                    out = _periodic(math.sin, av, 0.5 * math.pi)
            else:
                slope = _neg(_periodic(math.sin, av, 0.5 * math.pi))
                if demand:
                    out = _periodic(math.cos, av, 0.0)
            return out, _mul(ad, slope[..., None])
        return chain


def compile_boxes(asts: list[Node], n: int, m: int):
    """Enclosures of both Jacobian blocks over boxes, as one function boxes(Xlo, Xhi, Llo, Lhi).

    The four arguments are (N, n), (N, n), (N, m) and (N, m) float arrays: N
    boxes of states and parameters. Returns ((jx_lo, jx_hi), (jl_lo, jl_hi)),
    (N, k, n) and (N, k, m) arrays, such that for any point of box i the
    exact Jacobian blocks, and the blocks expr.compile_duals computes there,
    lie between row i of lo and of hi. A box where the dual walk may raise
    gets -inf and inf in every entry. Components with equal slotted trees
    (_slotted), such as the rows of a ring, are walked once over their boxes
    side by side.
    """
    total = n + m
    table = _Boxes(np.zeros((2, 1, total)))
    eye = np.eye(total)
    groups: dict[Node, list[tuple[int, list[int]]]] = {}
    for row, ast in enumerate(asts):
        slots: list[int] = []
        groups.setdefault(_slotted(ast, n, slots), []).append((row, slots))
    walks = [(compile_tree(key, table, demand=False), [row for row, _ in members],
              np.array([slots for _, slots in members], dtype=int).reshape(len(members), -1))
             for key, members in groups.items()]

    def boxes(Xlo, Xhi, Llo, Lhi):
        count = len(Xlo)
        ends = np.stack((np.hstack((Xlo, Llo)), np.hstack((Xhi, Lhi))))  # (2, N, n+m)
        bad = np.zeros(count, dtype=bool)
        jac = np.empty((2, count, len(asts), total))
        # overflow and NaN propagate and are flagged
        with np.errstate(all="ignore"):
            for tree, rows, slots in walks:
                # the group's boxes side by side, component-major: (2, G N, ...)
                side = len(rows) * count
                values = ends[:, :, slots].transpose(0, 2, 1, 3).reshape(2, side, -1)
                seeds = np.broadcast_to(eye[slots][:, None], (len(rows), count) + slots.shape[1:]
                                        + (total,)).reshape(side, -1, total)
                xs = [(values[:, :, k], np.broadcast_to(seeds[:, k], (2, side, total)))
                      for k in range(slots.shape[1])]
                flags = np.zeros(side, dtype=bool)
                d = np.broadcast_to(tree(xs, flags)[1], (2, side, total))
                jac[:, :, rows] = d.reshape(2, len(rows), count, total).transpose(0, 2, 1, 3)
                bad |= flags.reshape(len(rows), count).any(axis=0)
            bad |= ~np.isfinite(jac).all(axis=(0, 2, 3))
        jac[0, bad], jac[1, bad] = -np.inf, np.inf
        return (jac[0, :, :, :n], jac[1, :, :, :n]), (jac[0, :, :, n:], jac[1, :, :, n:])

    return boxes


# --- linear maps in midpoint-radius form --------------------------------------


def _gamma(k: int) -> float:
    """At least gamma_k = k u / (1 - k u), u = 2^-53: the relative rounding of a k-term dot product."""
    return (k + 1) * EPS


def _up(v):
    return np.nextafter(v, np.inf)


def _mid_rad(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint and radius of [lo, hi], with [mid - rad, mid + rad] holding it."""
    mid = 0.5 * lo + 0.5 * hi
    return mid, _up(np.maximum(hi - mid, mid - lo))


def _around(center, radius, terms):
    """[center - radius, center + radius], where radius is a float sum and product of at
    most `terms` nonnegative terms: it is rounded up past that rounding first."""
    radius = _up(radius * (1.0 + _gamma(terms)))
    return np.nextafter(center - radius, -np.inf), _up(center + radius)


def matvec_box(a: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An enclosure of a z for each row box lo <= z <= hi of the stacks (N, c).

    a is (r, c). Each row of the result holds the exact a z for every z in its
    box, and also any float evaluation of it whose dot products are split into
    partial sums and added (error at most gamma_{c+1} |a| |z|), as the kernel
    split's states V alpha + Vperp beta are.
    """
    with np.errstate(all="ignore"):  # an unbounded box gives NaN ends, read as unbounded
        mid, rad = _mid_rad(lo, hi)
        mag, width = np.abs(a).T, a.shape[1]
        radius = rad @ mag + 2.0 * _gamma(width + 1) * ((np.abs(mid) + rad) @ mag)
        return _around(mid @ a.T, radius, 2 * width + 4)


def sandwich_box(left: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An enclosure of left J right for each box lo <= J <= hi of the stacks (N, r, c).

    Each result holds the exact product for every J in its box, and also the
    float (left J) right, as the kernel split's W^T J Vperp is taken: that
    rounds by at most gamma_{r+c} |left| |J| |right|.
    """
    with np.errstate(all="ignore"):  # an unbounded box gives NaN ends, read as unbounded
        mid, rad = _mid_rad(lo, hi)
        mag_l, mag_r = np.abs(left)[None], np.abs(right)[None]
        inner = left.shape[1] + right.shape[0]
        radius = (mag_l @ rad) @ mag_r + 2.0 * _gamma(inner) * ((mag_l @ (np.abs(mid) + rad)) @ mag_r)
        return _around((left[None] @ mid) @ right[None], radius, 2 * inner + 4)


def _frobenius_up(a: np.ndarray) -> np.ndarray:
    """At least the Frobenius norm of each matrix of a stack (..., r, c).

    The squares and their sum round by at most gamma_{rc}. A square that
    underflows loses at most 2^-1074, far inside PRUNE_MARGIN of any bound
    a pruning compares past SAFE_SCALE[0].
    """
    terms = a.shape[-2] * a.shape[-1]
    return _up(np.sqrt(_up(np.square(a).sum(axis=(-2, -1)) * (1.0 + _gamma(terms)))))


def _spectral_up(a: np.ndarray) -> float:
    """At least ||a||_2 of one matrix: sqrt(|| |G| ||_inf) for its smaller Gram matrix G.

    With a taken wide (k columns, at least as many as rows), G = a a^T and
    ||a||_2^2 = lambda_max(G), which is at most any induced norm of G. The
    float G rounds by at most gamma_k |a| |a|^T, which is added, twice over
    to cover the rounding of that product too.
    """
    if len(a) > a.shape[1]:
        a = a.T
    mag = np.abs(a)
    rows = (np.abs(a @ a.T) + 2.0 * _gamma(a.shape[1]) * (mag @ mag.T)).sum(axis=1)
    return float(_up(np.sqrt(_up(rows.max() * (1.0 + _gamma(len(rows) + 2))))))


def sandwich_deviation(left: np.ndarray, center: np.ndarray, right: np.ndarray):
    """Spectral bounds of the float (left J) right's deviation from a block, over boxes of J.

    Returns deviation(lo, hi, block), which gives for each box lo <= J <= hi
    of the stacks (N, r, c) an upper bound of ||fl(fl(left J) right) -
    block||_2 over the box. It bounds the whole J's deviation from the fixed
    center instead of the product's entrywise hull (sandwich_box), which mixes
    the signs of J's entries: with P = fl(fl(left center) right),

        ||left||_2 ||right||_2 B + gamma_{r+c} ||left||_F ||right||_F (||M||_F + ||center||_F)
            + ||P - block||_F,

    where B, box_norm_bounds over [lo - center, hi - center] rounded outward,
    bounds ||J - center||_2, M = max(|lo|, |hi|) bounds |J| entrywise, and
    the gamma term bounds the rounding of the float products at J and at
    center, gamma_{r+c} |left| |J| |right| each (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 3.5). The norms of
    left, right and center are taken here, once. Each term rounds a few
    times and the sum is rounded up past that; a box with a non-finite end
    gets inf.
    """
    inner = left.shape[1] + right.shape[0]
    scale = _up(_spectral_up(left) * _spectral_up(right))
    rounding = _up(_up(_gamma(inner) * _frobenius_up(left)) * _frobenius_up(right))
    center_size = _frobenius_up(center)
    product = (left @ center) @ right

    def deviation(lo: np.ndarray, hi: np.ndarray, block: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):  # a non-finite end gives an inf bound
            spread = box_norm_bounds(np.nextafter(lo - center, -np.inf),
                                     np.nextafter(hi - center, np.inf))
            size = _frobenius_up(np.maximum(np.abs(lo), np.abs(hi)))
            bound = _up((scale * spread + rounding * (size + center_size)
                         + _frobenius_up(block - product)) * (1.0 + _gamma(6)))
        return np.where(np.isfinite(bound), bound, np.inf)

    return deviation
