"""Quantitative implicit-function bounds for a split system f(x, y).

Given f with f(x0, y0) = z0 and an invertible D_y f at the base point, the
implicit map y(x) with f(x, y(x)) = z0 exists on B(x0, r_x) with values in
B(y0, r_y) whenever both strict inequalities hold:

    L_x * r_x + L_y * r_y  <  r_y / M_y - M_x * r_x      (domain condition)
    M_y * L_y              <  1                          (contraction condition)

where M_x, M_y are base-point operator norms and L_x, L_y are suprema of
Jacobian deviations over the stated balls. Where the map solves f = 0
instead of f = f(x0, y0), the domain margin also absorbs the base residual
||f(x0, y0)||. Sampled L estimates are maxima over finite subsets and
therefore lower bounds on the true suprema; analytic overrides restore
rigour when a closed form is available. Every L value, sampled or
overridden, passes one check: finite and nonnegative, or the run fails with
NonFinite. The frontier's bisection midpoint is read only for its verdict,
so its sampled L_y stops as soon as a lower bound of it refutes the pair.
Where the split view encloses its y-block over boxes (dy_box, DSL systems),
a sampled L_y bounds cells of neighbouring x-points first and single
x-points after, and skips the cells and x-points whose enclosure proves
they cannot hold the maximum; every value stays the one of the full
lattice, bit for bit.

This is the only certification engine. The kernel-split certificate of the
ls_bounds module is this one with x := (alpha, lambda), y := beta and the
exact base blocks passed as BaseBlocks; the result types therefore also
answer to the kernel-split spellings (M_par, L_perp, r_par, r_par_max, ...).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, LscertError, NonFinite, SingularDyf
from .norms import (PRUNE_MARGIN, SAFE_SCALE, box_norm_bounds, can_reach, check_norm_kind,
                    induced_norm, induced_norms, inverse_norm, norm_survivors, vector_norm)
from .sampling import DEFAULT_SAMPLES_PER_DIM, ball_points, max_over
from .system import damped_newton_many, from_callable

# lattice pairs per batched pass of a sampled L, and the number of held
# matrices that triggers an SVD pass. Each DSL node holds an (N, n + m)
# derivative array and norm_survivors one (r, c, N) copy of the stack.
# Against 256 pairs, 1,024 cut op_s by 10-25 % on the three lattice
# benchmark workloads and kept worker peak RSS within 0.6 % (traced peak
# about 0.2-0.3 MB higher); 4,096 pairs raised it by 1.0-1.5 MB on ring-4
CHUNK_PAIRS = 1024
# x-points per cell of a sampled L_y's first enclosure (_cells). On the
# ls-tanh2-dense benchmark workload (799 x-points per call) an op encloses
# 558, 291, 261, 333 and 402 boxes at 4, 9, 16, 25 and 36 (2,397 with one
# box per x-point), with the same 198 Jacobian rows; in-process op times
# at 9 to 36 lay within the host's noise
CELL_POINTS = 16


@dataclass(frozen=True)
class SplitFunction:
    """f : R^{n_x} x R^{n_y} -> R^{n_y} with both Jacobian blocks.

    value_many, jac_x_many and jac_y_many take point stacks X (N, n_x) and
    Y (N, n_y) and return the value and the blocks at every row, (N, n_y),
    (N, n_y, n_x) and (N, n_y, n_y). value, dx and dy are row 0 of a
    one-point call. split_function adapts per-point callables, system_split
    views a ParametricSystem.

    dy_box, where given, encloses the dy block: dy_box(x_lo, x_hi, y_lo,
    y_hi) takes the ends of N x-boxes, each (N, n_x), and the ends of one
    y-box, each (n_y,), and returns (lo, hi), each (N, n_y, n_y), such that
    dy_many at (x, y) lies between lo[i] and hi[i] for every x in the i-th
    x-box and every y in the y-box; it is -inf and inf throughout lo[i] and
    hi[i] where jac_y_many may raise at such a point. A point is the box
    whose ends are equal: dy_box(X, X, y_lo, y_hi) encloses the block at
    each point X[i]. Only the views of DSL systems have one. It encloses jac_y_many as built: a copy whose
    jac_y_many returns other values or raises elsewhere
    (dataclasses.replace) must replace dy_box too, or set it to None.
    """

    n_x: int
    n_y: int
    value_many: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac_x_many: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac_y_many: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dy_box: Callable[..., tuple[np.ndarray, np.ndarray]] | None = None

    def value(self, x, y) -> np.ndarray:
        return self.value_many(*self._one_point(x, y))[0]

    def dx(self, x, y) -> np.ndarray:
        return self.dx_many(*self._one_point(x, y))[0]

    def dy(self, x, y) -> np.ndarray:
        return self.dy_many(*self._one_point(x, y))[0]

    def dx_many(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return np.asarray(self.jac_x_many(X, Y), dtype=float).reshape(len(X), self.n_y, self.n_x)

    def dy_many(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return np.asarray(self.jac_y_many(X, Y), dtype=float).reshape(len(X), self.n_y, self.n_y)

    def _one_point(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        # a scalar y is accepted when n_y = 1
        return (np.asarray(x, float).reshape(1, self.n_x),
                np.asarray(y, float).reshape(1, self.n_y))


def split_function(fun, n_x: int, n_y: int, jac_x=None, jac_y=None) -> SplitFunction:
    """Wrap a callable and per-point Jacobian callables into a split function.

    It is the index split of from_callable's system with state y and
    parameter x, so jac_y must return (n_y, n_y) and a missing block comes
    from the one central-difference pass per point that both blocks share.
    """
    def swapped(g):
        return None if g is None else (lambda y, x: g(x, y))

    sys = from_callable(swapped(fun), n_y, n_x, jac_x=swapped(jac_y), jac_lambda=swapped(jac_x))
    return index_split(sys, range(n_y, n_y + n_x), range(n_y))


def system_split(sys, n_x: int, n_y: int, embed, x_chain, y_chain,
                 project=None, *, embed_box, y_chain_box) -> SplitFunction:
    """The split view f(x, y) = P Phi(E(x, y)) of a ParametricSystem.

    embed(X, Y) maps point stacks (N, n_x) and (N, n_y) to the states and
    parameters sys is evaluated at. project, if given, applies the left
    projection P to each (k, c) block of a stack (N, k, c). x_chain and
    y_chain build the blocks P [D_x Phi | D_lambda Phi] dE/dx and dE/dy from
    part(0) = P D_x Phi and part(1) = P D_lambda Phi, each projected only
    when asked for, so as (P J) V. A chain that selects coordinates gathers
    them: a 0/1 matmul turns -0.0 into 0.0, inf into NaN.

    Where sys has a jac_box, embed_box and y_chain_box give the view its
    dy_box: embed_box(x_lo, x_hi, y_lo, y_hi) returns the ends of the state
    and parameter boxes, each (N, n) or (N, m), that hold E(x, y) for every
    x of the i-th x-box and every y of the y-box, and y_chain_box(part) the
    (lo, hi) enclosure of dE/dy's block from part(0) and part(1), the
    (lo, hi) enclosures of D_x Phi and D_lambda Phi.
    """
    def projected(stack):
        return stack if project is None else project(stack)

    def value_many(X, Y):
        return projected(sys.residuals(*embed(X, Y))[:, :, None])[..., 0]

    def blocks(chain):
        def many(X, Y):
            jacs = sys.jacobians(*embed(X, Y))
            return chain(lambda i: projected(jacs[i]))
        return many

    dy_box = None
    if sys.jac_box is not None:
        def dy_box(x_lo, x_hi, y_lo, y_hi):
            parts = sys.jac_box(*embed_box(x_lo, x_hi, y_lo, y_hi))
            return y_chain_box(parts.__getitem__)

    return SplitFunction(n_x, n_y, value_many, blocks(x_chain), blocks(y_chain), dy_box)


def index_split(sys, x_indices, y_indices) -> SplitFunction:
    """The split view of sys with u[x_indices] = x and u[y_indices] = y, u = (state ++ lambda).

    Raises DimensionMismatch unless sys has one residual component per y
    coordinate, and then unless the indices partition 0..n + m - 1.
    """
    n, x_idx, y_idx = sys.n, np.array(x_indices, dtype=int), np.array(y_indices, dtype=int)
    if sys.k != len(y_idx):
        raise DimensionMismatch(f"model has {sys.k} component(s); y_indices must have that "
                                f"length, got {len(y_idx)}")
    if sorted([*x_idx, *y_idx]) != list(range(n + sys.m)):
        raise DimensionMismatch(f"x_indices and y_indices must partition 0..{n + sys.m - 1} "
                                "of the combined (state ++ parameter) vector")

    def embed(X, Y):
        u = np.empty((len(X), n + sys.m))
        u[:, x_idx], u[:, y_idx] = X, Y
        return u[:, :n], u[:, n:]

    def gather(idx):
        return lambda part: np.concatenate([part(0), part(1)], axis=2)[:, :, idx]

    # the scatter and the gather only move coordinates, so each end of a box
    # goes through them as a point does
    def embed_box(x_lo, x_hi, y_lo, y_hi):
        (s_lo, l_lo), (s_hi, l_hi) = embed(x_lo, y_lo[None]), embed(x_hi, y_hi[None])
        return s_lo, s_hi, l_lo, l_hi

    def y_chain_box(part):
        return tuple(gather(y_idx)(lambda i: part(i)[end]) for end in (0, 1))

    return system_split(sys, len(x_idx), len(y_idx), embed, gather(x_idx), gather(y_idx),
                        embed_box=embed_box, y_chain_box=y_chain_box)


@dataclass(frozen=True)
class SupremumEstimator:
    """How deviation suprema are obtained.

    mode "sampled" maximises over the deterministic ball sample set and is a
    lower bound on the true supremum (best effort, flagged non-rigorous).
    mode "analytic" uses the provided closed-form overrides where present
    and falls back to sampling for the rest. safety_factor (>= 1) inflates
    sampled estimates only; overrides are trusted as given.
    """

    mode: str = "sampled"
    samples_per_dim: int = DEFAULT_SAMPLES_PER_DIM
    safety_factor: float = 1.0
    override_L_x: Callable[[float], float] | None = None
    override_L_y: Callable[[float, float], float] | None = None

    def __post_init__(self):
        if self.mode not in ("sampled", "analytic"):
            raise ValueError(f"estimator mode must be 'sampled' or 'analytic', got {self.mode!r}")
        if self.samples_per_dim < 2:
            raise ValueError("samples_per_dim must be at least 2")
        if not (np.isfinite(self.safety_factor) and self.safety_factor >= 1.0):
            raise ValueError("safety_factor must be finite and >= 1")
        if self.mode == "analytic" and self.override_L_x is None and self.override_L_y is None:
            raise ValueError("analytic mode requires at least one override")

    def uses_override_x(self) -> bool:
        return self.mode == "analytic" and self.override_L_x is not None

    def uses_override_y(self) -> bool:
        return self.mode == "analytic" and self.override_L_y is not None


def _aliased(**aliases: str):
    """Give a result type the kernel-split spellings of its generic fields.

    Each alias reads the field it names and is accepted by the constructor in
    its place, so FrontierPoint(r_perp=0.5, r_par_max=1.5) equals
    FrontierPoint(r_y=0.5, r_x_max=1.5).
    """
    def wrap(cls):
        init = cls.__init__

        @functools.wraps(init)
        def __init__(self, *args, **kwargs):
            for alias, name in aliases.items():
                if alias in kwargs:
                    kwargs[name] = kwargs.pop(alias)
            init(self, *args, **kwargs)

        cls.__init__ = __init__
        for alias, name in aliases.items():
            setattr(cls, alias, property(attrgetter(name), doc=f"Alias of {name}."))
        return cls
    return wrap


@_aliased(M_par="M_x", M_perp="M_y", L_par="L_x", L_perp="L_y",
          L_par_rigorous="L_x_rigorous", L_perp_rigorous="L_y_rigorous")
@dataclass(frozen=True)
class ImftQuantities:
    """Base-point norms plus deviation-bound evaluators for one run.

    L_y(r_x, r_y, refutes=None) may stop sampling early and return a lower
    bound of the full value once refutes(lower bound) is true; the full value
    is the one cached. base_residual is ||f(x0, y0)|| where the implicit map
    solves f = 0, and 0.0 where it solves f = f(x0, y0).
    """

    M_x: float
    M_y: float
    L_x: Callable[[float], float]
    L_y: Callable[..., float]
    norm_kind: str
    L_x_rigorous: bool
    L_y_rigorous: bool
    base_residual: float = 0.0

    @property
    def rigorous(self) -> bool:
        return self.L_x_rigorous and self.L_y_rigorous


@dataclass(frozen=True)
class ConditionCheck:
    """Strict-inequality verdict; a zero margin fails."""

    certified: bool
    margin_domain: float
    margin_contraction: float


@_aliased(r_par="r_x", r_perp="r_y")
@dataclass(frozen=True)
class RegionEntry:
    r_x: float
    r_y: float
    certified: bool
    margin_domain: float
    margin_contraction: float


@_aliased(r_perp="r_y", r_par_max="r_x_max")
@dataclass(frozen=True)
class FrontierPoint:
    r_y: float
    r_x_max: float | None  # None when nothing certified at this r_y


@dataclass(frozen=True)
class CertifiedRegion:
    """Grid verdicts, the certified frontier and the rigour flag."""

    entries: tuple[RegionEntry, ...]
    frontier: tuple[FrontierPoint, ...]
    rigorous: bool

    @property
    def any_certified(self) -> bool:
        return any(e.certified for e in self.entries)

    def max_certified_r_par(self) -> float | None:
        radii = [f.r_x_max for f in self.frontier if f.r_x_max is not None]
        return max(radii) if radii else None


@dataclass(frozen=True)
class BaseBlocks:
    """The Jacobian blocks at the base point that the bounds are measured from.

    By default they are f.dx(x0, y0) and f.dy(x0, y0). A caller that knows
    them exactly passes its own: the kernel split keeps its alpha block a
    hard zero this way. `singular` is the error raised when dy is
    numerically singular.
    """

    dx: np.ndarray
    dy: np.ndarray
    singular: type[LscertError] = SingularDyf

    @classmethod
    def at(cls, f: SplitFunction, x0: np.ndarray, y0: np.ndarray) -> BaseBlocks:
        return cls(dx=f.dx(x0, y0), dy=f.dy(x0, y0))


def compute_M(
    f: SplitFunction,
    x0: np.ndarray,
    y0: np.ndarray,
    norm_kind: str = "spectral",
    x_weights: np.ndarray | None = None,
    base: BaseBlocks | None = None,
) -> tuple[float, float]:
    """Base-point norms M_x = ||D_x f||, M_y = ||(D_y f)^-1||.

    Raises base.singular (SingularDyf by default) when D_y f is numerically
    singular (cond > 1e14). Optional x_weights stretch the domain ball per
    coordinate, which turns the induced norm into ||D_x f diag(w)||.
    """
    check_norm_kind(norm_kind)
    if base is None:
        base = BaseBlocks.at(f, x0, y0)
    dx = base.dx
    if x_weights is not None:
        dx = dx * np.asarray(x_weights, dtype=float)[None, :]
    m_x = induced_norm(dx, norm_kind)
    m_y = inverse_norm(base.dy, norm_kind, error=base.singular)
    return m_x, m_y


def _cells(points):
    """(cell of each point, lower ends, upper ends of each cell's bounding box) of a stack (N, d).

    The points' range on each axis is cut into k runs of equal width,
    k = floor((N / CELL_POINTS)^(1/d)) but at least 1, and a cell is the
    points of one run per axis: about CELL_POINTS of them where the points
    fill the runs' grid, as a lattice does. A stack of fewer than
    2^d CELL_POINTS points is one cell. Each box is the points' own minimum
    and maximum per coordinate.
    """
    count, dim = points.shape
    runs = max(1, int((count / CELL_POINTS) ** (1.0 / dim)))
    columns = points.T.copy()  # numpy reduces its rows about 7x faster than (N, d) columns
    low, high = columns.min(axis=1), columns.max(axis=1)
    if runs == 1:
        return np.zeros(count, dtype=int), low[None], high[None]
    span = np.where(high > low, high - low, 1.0)
    index = np.minimum(((points - low) / span * runs).astype(int), runs - 1)
    key = np.ravel_multi_index(tuple(index.T), (runs,) * dim)
    cell = (np.cumsum(np.bincount(key, minlength=runs ** dim) > 0) - 1)[key]  # the runs held
    order = np.argsort(cell, kind="stable")
    grouped, starts = points[order], np.searchsorted(cell[order], np.arange(cell.max() + 1))
    return cell, np.minimum.reduceat(grouped, starts), np.maximum.reduceat(grouped, starts)


def _sampled_L(blocks, base_block, pts_x, pts_y, norm_kind, weights=None, stop=None,
               box=None) -> float:
    """Max of ||(blocks(px, py) - base_block) diag(weights)|| over pts_x x pts_y.

    The pairs are taken CHUNK_PAIRS at a time, each chunk one call of the
    batched `blocks`. The bounds of norm_survivors carry one floor across the
    chunks, the best lower bound so far, and each chunk's survivors, the
    matrices whose upper bound still reaches it, are held rather than given
    an SVD at once. Once CHUNK_PAIRS of them are held, and after the last
    chunk, the held matrices that the floor has since ruled out are dropped
    and the rest go to one batched induced_norms, whose maximum raises the
    floor. So the SVD runs only on the matrices that the whole call's bounds
    cannot rule out, and the maximum is the per-point one bit for bit
    (norm_survivors gives the reason).

    Without a box the pairs run in the order of itertools.product(pts_x,
    pts_y). box, if given (and pts_x has two points or more), is the dy_box
    of an unweighted call (L_y), and box_norm_bounds bounds the deviation
    norm over each box it encloses, always times the bounding box of pts_y.
    The x-points are grouped into cells (_cells), and it is called at most
    three times:

    1. once over the cells' bounding boxes, where there are two cells or
       more; each x-point starts with its cell's bound;
    2. once over the x-points of the cell with the largest finite bound
       (every x-point where none is finite), each point its own box. Of
       these, the one with the largest finite bound is taken first, in
       chunks of its own; its box holds no point where blocks raises, so
       the floor rises before any other x-point is reached;
    3. once the floor is past SAFE_SCALE[0], where a norm is accurate in
       relative terms, and that first x-point, if any, is taken: over the
       other x-points whose cell's bound, times (1 + PRUNE_MARGIN), still
       reaches the floor (can_reach, the test norm_survivors applies to one
       matrix). The cells that do not reach it are dropped whole.

    The other pairs follow in lattice order, queued once that first x-point
    is taken and built over the x-points not yet dropped, and before each
    chunk the x-points whose bound no longer reaches the floor are dropped.
    So every skipped pair's norm lies below a norm the call attains, and the
    maximum is the same bit for bit. A box that may hold a raising point has
    an infinite bound, so such a cell is never dropped whole and such an
    x-point is never skipped, and only those can raise: a chunk that raises
    is replayed one pair at a time and the error that surfaces is the one of
    the first failing pair in lattice order, also while earlier chunks'
    survivors are held. A call given stop reaches a raising pair or not
    depending on where its chunks end, so such a call with an infinite cell
    or x-point bound takes the pairs in lattice order without skipping any,
    as a call without a box does.

    stop, if given, is asked about a lower bound of the maximum,
    max(floor, 0) (1 - PRUNE_MARGIN), where the factor covers the few ulps a
    bound rounds by: before the first chunk, and after each chunk's bounds
    have raised the floor, before any held SVD is taken. Once it answers
    true, the held matrices are dropped, no later pair is evaluated, and
    that lower bound is returned.
    """
    per_x = len(pts_y)
    floor = best = -np.inf  # the best lower bound and the largest norm taken
    held: list[tuple[np.ndarray, np.ndarray]] = []  # survivors and their upper bounds

    def deviations(xs, ys):
        d = blocks(xs, ys) - base_block
        return d if weights is None else d * weights

    def raise_to(norms):
        nonlocal floor, best
        best = max(best, norms.max(initial=-np.inf))
        floor = max(floor, best)

    def lower() -> float:
        return max(floor, 0.0) * (1.0 - PRUNE_MARGIN)

    def refuted() -> bool:
        return stop is not None and stop(lower())

    def pairs_of(points):
        return (points[:, None] * per_x + np.arange(per_x)).ravel()

    stopped = refuted()  # a pair refuted at 0 evaluates no lattice pair
    live = np.ones(len(pts_x), dtype=bool)  # the x-points whose pairs may still be taken
    coarse = ~live  # the x-points whose bound is still their cell's
    bound = first = None  # per x-point, an upper bound of its deviation norms; the first x-point
    if box is not None and len(pts_x) > 1 and not stopped:
        y_lo, y_hi = pts_y.min(axis=0), pts_y.max(axis=0)

        def enclose(points):  # bounds over the boxes {x} x (y box) of the chosen x-points
            x = pts_x[points]
            return _box_bounds(box, base_block, x, x, y_lo, y_hi, norm_kind)

        cell, cell_lo, cell_hi = _cells(pts_x)
        bound = np.full(len(pts_x), np.inf)
        if len(cell_lo) > 1:
            bound = _box_bounds(box, base_block, cell_lo, cell_hi, y_lo, y_hi, norm_kind)[cell]
        finite = np.isfinite(bound)
        top = cell == cell[np.argmax(np.where(finite, bound, -np.inf))] if finite.any() \
            else np.ones_like(finite)
        bound[top], coarse = enclose(top), ~top
        own = np.where(top & np.isfinite(bound), bound, -np.inf)
        if stop is not None and not np.isfinite(bound).all():
            bound = None
        elif np.isfinite(own).any():
            first = np.argmax(own)
    # the pairs queued, in the order they are taken: the first x-point's, in
    # chunks of their own (the first `alone` pairs), and then the others'
    rest = first is not None  # whether the others are still to be queued
    order = pairs_of(np.array([first]) if rest else np.arange(len(pts_x)))
    alone = per_x if rest else 0

    def chunk_max(_):
        nonlocal order, alone, floor, stopped, rest
        size = min(alone, CHUNK_PAIRS) if alone else CHUNK_PAIRS
        pairs, order, alone = order[:size], order[size:], max(alone - size, 0)
        xs, ys = pts_x[pairs // per_x], pts_y[pairs % per_x]
        try:
            d = deviations(xs, ys)
            floor, keep, upper = norm_survivors(d, norm_kind, floor)
        except Exception:
            raise_to(np.array([induced_norm(deviations(xs[i:i + 1], ys[i:i + 1])[0], norm_kind)
                               for i in range(len(pairs))]))
        else:
            if upper is None:  # no bounds for this kind or shape
                raise_to(induced_norms(d, norm_kind))
            else:
                held.append((d[keep], upper))
        stopped = refuted()
        if bound is not None and not stopped and floor > SAFE_SCALE[0]:
            reach = can_reach(bound, floor)
            if coarse.any() and not alone:
                # the x-points of the cells that still reach the floor get their own boxes
                refine = coarse & live & reach
                if refine.any():
                    bound[refine] = enclose(refine)
                    reach = can_reach(bound, floor)
                coarse[:] = False
            # the floor only rises, so an x-point that fails once stays out,
            # and order is filtered only when one fails for the first time
            if (live & ~reach).any():
                live[~reach] = False
                alive = live[order // per_x]
                order, alone = order[alive], np.count_nonzero(alive[:alone])
        if rest and not len(order) and not stopped:  # the first x-point is taken: queue the others
            live[first] = rest = False
            order = pairs_of(np.flatnonzero(live))
        if held and not stopped and (not len(order)
                                     or sum(len(u) for _, u in held) >= CHUNK_PAIRS):
            stack, uppers = (np.concatenate(parts) for parts in zip(*held))
            held.clear()
            raise_to(induced_norms(stack[can_reach(uppers, floor)], norm_kind))
        return max(best, 0.0)  # best is -inf until a norm is taken; a stopped call may take none

    value = max_over(iter(lambda: bool(len(order)) and not stopped, False), chunk_max)
    return lower() if stopped else value


def _box_bounds(box, base_block, x_lo, x_hi, y_lo, y_hi, norm_kind):
    """box_norm_bounds of the deviation from base_block over each box box(...) encloses."""
    lo, hi = box(x_lo, x_hi, y_lo, y_hi)
    with np.errstate(all="ignore"):  # a non-finite end gives an inf bound
        return box_norm_bounds(np.nextafter(lo - base_block, -np.inf),
                               np.nextafter(hi - base_block, np.inf), norm_kind)


def _deviation_bound(which, radii, f, x0, y0, base, est, norm_kind, x_weights, balls,
                     refutes=None) -> float:
    """L_x(r_x) for which = "x", L_y(r_x, r_y) for "y": override or sampled.

    Every L the package uses comes through here, so this is where both checks
    live: the radii must be finite and nonnegative (ValueError), and so must
    the bound (NonFinite), because a negative or NaN L would certify radius
    pairs that no true bound allows. L_x samples the x-ball at y0, L_y the
    product of the x- and y-balls. `balls` memoises the lattices by centre,
    radius and weights, so the calls that share it build each ball once, also
    where an x-ball and a y-ball coincide. A sampled L_y stops once
    refutes(safety_factor * lower bound) is true and returns that product.
    """
    for name, r in zip(("r_x", "r_y"), radii):
        if not (np.isfinite(r) and r >= 0):
            raise ValueError(f"{name} must be finite and nonnegative, got {r}")
    if which == "x" and est.uses_override_x():
        value = est.override_L_x(*radii)
    elif which == "y" and est.uses_override_y():
        value = est.override_L_y(*radii)
    else:
        w = None if x_weights is None else np.asarray(x_weights, dtype=float)

        def ball(center, radius, weights=None):
            center = np.asarray(center, float)
            key = (center.tobytes(), radius, None if weights is None else weights.tobytes())
            if key not in balls:
                balls[key] = ball_points(center, radius, est.samples_per_dim, norm_kind,
                                         weights=weights)
            return balls[key]

        pts_x = ball(x0, radii[0], w)
        if which == "x":
            pts_y = np.asarray(y0, float).reshape(1, -1)
            value = _sampled_L(f.dx_many, base.dx, pts_x, pts_y, norm_kind, w)
        else:
            pts_y = ball(y0, radii[1])
            stop = None if refutes is None else lambda lower: refutes(est.safety_factor * lower)
            value = _sampled_L(f.dy_many, base.dy, pts_x, pts_y, norm_kind, stop=stop, box=f.dy_box)
        value = est.safety_factor * value
    value = float(value)
    if not (np.isfinite(value) and value >= 0.0):
        label = "L_x (L_par)" if which == "x" else "L_y (L_perp)"
        raise NonFinite(f"deviation bound {label} at radii {radii} must be finite and "
                        f"nonnegative, got {value}")
    return value


def estimate_L(
    f: SplitFunction,
    x0: np.ndarray,
    y0: np.ndarray,
    r_x: float,
    r_y: float,
    estimator: SupremumEstimator,
    norm_kind: str = "spectral",
    x_weights: np.ndarray | None = None,
    base: BaseBlocks | None = None,
) -> tuple[float, float]:
    """Deviation bounds (L_x, L_y) for the given radii."""
    check_norm_kind(norm_kind)
    if base is None:
        base = BaseBlocks.at(f, x0, y0)
    context = (f, x0, y0, base, estimator, norm_kind, x_weights, {})
    return _deviation_bound("x", (r_x,), *context), _deviation_bound("y", (r_x, r_y), *context)


def imft_quantities(
    f: SplitFunction,
    x0: np.ndarray,
    y0: np.ndarray,
    estimator: SupremumEstimator,
    norm_kind: str = "spectral",
    x_weights: np.ndarray | None = None,
    base: BaseBlocks | None = None,
    base_residual: float = 0.0,
) -> ImftQuantities:
    """Bundle M values with cached L evaluators for repeated grid queries (see ImftQuantities)."""
    if base is None:
        base = BaseBlocks.at(f, x0, y0)
    m_x, m_y = compute_M(f, x0, y0, norm_kind, x_weights, base)
    context = (f, x0, y0, base, estimator, norm_kind, x_weights, {})  # one ball memo
    cache_x: dict[float, float] = {}
    cache_y: dict[tuple[float, float], float] = {}

    def l_x(r: float) -> float:
        if r not in cache_x:
            cache_x[r] = _deviation_bound("x", (r,), *context)
        return cache_x[r]

    def l_y(rx: float, ry: float, refutes=None) -> float:
        key = (rx, ry)
        if key in cache_y:
            return cache_y[key]
        value = _deviation_bound("y", key, *context, refutes=refutes)
        if refutes is None or not refutes(value):  # a refuting value may be a partial one
            cache_y[key] = value
        return value

    return ImftQuantities(
        M_x=m_x, M_y=m_y, L_x=l_x, L_y=l_y, norm_kind=norm_kind,
        L_x_rigorous=estimator.uses_override_x(),
        L_y_rigorous=estimator.uses_override_y(),
        base_residual=base_residual,
    )


def _verdict(q: ImftQuantities, r_x: float, r_y: float, l_x: float, l_y: float) -> ConditionCheck:
    """Both margins at one radius pair, from the given L values.

    Both fall as l_y grows, in floating point too (every step rounds
    monotonically), so a pair that a lower bound of L_y refutes, L_y refutes.
    """
    budget = np.inf if q.M_y == 0.0 else r_y / q.M_y
    margin_domain = budget - q.M_x * r_x - (l_x * r_x + l_y * r_y) - q.base_residual
    margin_contraction = 1.0 - q.M_y * l_y
    return ConditionCheck(
        certified=bool(margin_domain > 0.0 and margin_contraction > 0.0),
        margin_domain=float(margin_domain),
        margin_contraction=float(margin_contraction),
    )


def check_conditions(q: ImftQuantities, r_x: float, r_y: float) -> ConditionCheck:
    """Evaluate both certification inequalities at one radius pair.

    Inequalities are strict with zero tolerance: a margin of exactly zero is
    a failure. M_y = 0 only occurs for the empty y-block, where the domain
    budget r_y / M_y is +inf by convention. The domain margin also subtracts
    q.base_residual.
    """
    return _verdict(q, r_x, r_y, q.L_x(r_x), q.L_y(r_x, r_y))


def _refine_frontier(
    q: ImftQuantities, r_y: float, last_pass: float | None, first_fail: float | None
) -> float | None:
    """One bisection level between the last certified radius and the first failure.

    Only the midpoint's verdict is read, so its L_y is asked to stop as soon
    as a lower bound of it refutes the pair (a pair refuted at L_y = 0
    evaluates no lattice pair). The verdict is the one check_conditions
    gives, bit for bit, and the partial L_y is not cached.
    """
    if last_pass is None:
        return None
    if first_fail is None:
        return last_pass
    mid = 0.5 * (last_pass + first_fail)
    l_x = q.L_x(mid)

    def refutes(l_y: float) -> bool:
        return not _verdict(q, mid, r_y, l_x, l_y).certified

    return last_pass if refutes(q.L_y(mid, r_y, refutes)) else mid


def certify_grid(q: ImftQuantities, r_x_grid, r_y_grid) -> CertifiedRegion:
    """Verdicts over the radius grid plus the certified frontier.

    The grid's sorted distinct radii are walked, as the report tabulates
    them. The frontier records, per r_y, the largest certified r_x, refined
    by one bisection step between the neighbouring pass/fail grid radii;
    every grid pair's L is taken in full, the midpoint's only as far as its
    verdict needs (_refine_frontier).
    """
    r_x_grid = sorted({float(r) for r in r_x_grid})
    r_y_grid = sorted({float(r) for r in r_y_grid})
    entries: list[RegionEntry] = []
    frontier: list[FrontierPoint] = []
    for r_y in r_y_grid:
        last_pass, first_fail = None, None
        for r_x in r_x_grid:
            check = check_conditions(q, r_x, r_y)
            entries.append(RegionEntry(r_x, r_y, check.certified,
                                       check.margin_domain, check.margin_contraction))
            if check.certified:
                if first_fail is None:
                    last_pass = r_x
            elif last_pass is not None and first_fail is None:
                first_fail = r_x
        frontier.append(FrontierPoint(r_y, _refine_frontier(q, r_y, last_pass, first_fail)))
    return CertifiedRegion(entries=tuple(entries), frontier=tuple(frontier), rigorous=q.rigorous)


def certify_region(
    f: SplitFunction,
    x0: np.ndarray,
    y0: np.ndarray,
    r_x_grid,
    r_y_grid,
    estimator: SupremumEstimator | None = None,
    norm_kind: str = "spectral",
    x_weights: np.ndarray | None = None,
) -> tuple[CertifiedRegion, ImftQuantities]:
    estimator = estimator or SupremumEstimator()
    q = imft_quantities(f, x0, y0, estimator, norm_kind, x_weights)
    return certify_grid(q, r_x_grid, r_y_grid), q


@dataclass(frozen=True)
class WitnessResult:
    converged: int
    total: int
    max_y_norm: float
    ok: bool


def witness_check(
    f: SplitFunction,
    x0: np.ndarray,
    y0: np.ndarray,
    r_x: float,
    r_y: float,
    n_samples: int = 100,
    norm_kind: str = "spectral",
    seed: int = 0,
) -> WitnessResult:
    """Empirical check that the implicit map exists and stays in the y-ball.

    Solves f(x, y) = f(x0, y0) by Newton from y0 at fixed-seed random x in
    B(x0, r_x) and reports whether every solve converged with
    ||y - y0|| < r_y. The samples are drawn first and then solved in one
    lockstep Newton, one value_many call per residual evaluation; each
    converges or fails as it would alone. A residual evaluation that raises
    is replayed sample by sample, so the error is the first failing sample's.
    """
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    target = f.value(x0, y0)
    rng = np.random.default_rng(seed)
    xs = np.empty((n_samples, x0.size))
    for i in range(n_samples):
        # rejection sample the unit ball of the chosen norm, then scale
        while True:
            u = rng.uniform(-1.0, 1.0, size=x0.size)
            if vector_norm(u, norm_kind) <= 1.0:
                break
        xs[i] = x0 + r_x * u

    def residual(Y, rows):
        try:
            return f.value_many(xs[rows], Y) - target
        except Exception:
            # one sample at a time, so the first failing sample's error surfaces
            return np.array([f.value(xs[i], y) for i, y in zip(rows, Y)]) - target

    ys, errors = damped_newton_many(
        residual, lambda Y, rows: f.dy_many(xs[rows], Y),
        np.broadcast_to(y0, (n_samples, f.n_y)))
    norms = [vector_norm(y - y0, norm_kind) for i, y in enumerate(ys) if i not in errors]
    max_norm = max(norms, default=0.0)
    ok = len(norms) == n_samples and max_norm < r_y
    return WitnessResult(converged=len(norms), total=n_samples, max_y_norm=max_norm, ok=ok)
