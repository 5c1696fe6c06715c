"""Adaptive tensor-product Gauss-Legendre quadrature over curve parameter
domains and products of two of them.

Panels carry an embedded error estimate (difference of the panel_order and
2*panel_order rules; the finer value is kept). There is one refinement
rule: every panel whose error is positive and within a fixed factor of the
current worst is halved. With curves on both sides, a panel whose two curve
pieces could touch between their sample points also counts as hot, whatever
its error: a close approach narrower than the node spacing is invisible to
the error estimate.

A refinement round first resolves proximity, then integrates. It checks
the pending panels' curve pieces, halves the unresolved ones that are
short of max_depth without integrating them, and checks their halves
again, until every pending panel is resolved or at max_depth; only then
does it integrate all of them. These proximity samples are the only
curve-distance sampler: they cover every initial cell in the first pass and
then follow the unresolved panels down to wherever the curves come close,
and a sampled distance below 1e-6 raises CurvesTooClose before any
integrand call of the round. The panel filtration does not depend on tol:
tightening tol only extends the same deterministic refinement sequence.

Compact domains (Interval, Rect) are integrated as given, and a panel is
halved along the axis of its largest spatial extent, measured on the curves
when the caller supplies curve sides and on the parameter chart otherwise.
An unbounded curve is integrated whole, with no window and no tail: Plane
maps the whole complex parameter plane and RealLine the whole real line
onto a compact chart, u = c + s^2 e^{i phi} and t = +-s^2 with
s = rho / (1 - rho), whose jacobians fold into the node weights (Davis &
Rabinowitz, Methods of Numerical Integration, 2nd ed., 1984, ch. 3). A run
that contains such a whole domain halves each panel along its longest chart
axis instead, and takes its proximity samples on the finite part of the
chart, rho <= 1 - 1e-4, comparing them after the map x -> (x - o) /
(1 + |x - o|) of each point, o the first curve's point at parameter 0,
which keeps the far field's pieces and gaps bounded. The CurvesTooClose
guard still reads true distances. The plane's area jacobian vanishes at
its centre and cancels a simple pole there, so integrate_pv integrates a
declared simple pole on the plane centred on it; every plane starts from
one full turn. integrate_pv alone decides which domains are punctured;
which poles are simple is the caller's decision, made from the form's
polynomials before any integrand runs.

A side maps a parameter array to a tuple of arrays, curve positions first;
the default side is the parameters alone. A round integrates its panels
with one call of each side per rule and one call of the integrand per
rule. The integrand receives each side's jacobian-folded weights (P, n)
before that side's arrays (P, n, ...), stacked over the round's P panels,
and returns the (P,) weighted panel sums, so it can contract its values
however is cheapest. per_panel adapts a kernel written for one panel; it
holds the only per-panel loop. Each proximity check pass and each spatial
halving takes one call per side for its samples, and a pass's distances
are one stacked _kernels.min_dist call. Errors, covering radii and flags
are array operations over the round, and the round's panel sums are
checked for finiteness together. Panel results are reduced by a fixed
pairwise tree over geometrically sorted panels, so values do not depend on
how a round is batched. Everything runs on one thread. Every result carries
a QuadTrace saying how it was produced.
"""

import cmath
from dataclasses import dataclass
import itertools
import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import _kernels
from .errors import CurvesTooClose, NonFiniteIntegrand, PVNotConverging
from .geometry import TWO_PI, realify

_MARK_FACTOR = 8.0     # refine panels with err >= max panel err / this
_MIN_DIST = 1e-6       # CurvesTooClose threshold
_POWER = 2             # the whole-domain charts' exponent: u = c + s^2 e^{i phi}
_RIM = 1.0 - 1e-4      # proximity samples of a whole domain stop at rho <= this


@dataclass(frozen=True)
class QuadConfig:
    tol: float = 1e-6
    max_depth: int = 24
    panel_order: int = 8

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("QuadConfig invariant violated: tol > 0")
        if not (1 <= self.max_depth <= 40):
            raise ValueError("QuadConfig invariant violated: max_depth in [1, 40]")
        if not (4 <= self.panel_order <= 32):
            raise ValueError("QuadConfig invariant violated: panel_order in [4, 32]")


@dataclass(frozen=True)
class QuadTrace:
    """How an integral was produced. panels_per_round lists the panels
    integrated in each refinement round, over every engine run in order,
    skipped_per_round the panels halved in that round without being
    integrated, because their curve pieces could still touch, and
    checks_per_round the proximity check passes the round ran before it
    integrated (0 once every panel is resolved); deepest_split is the most
    halvings of any final panel; max_depth_hit says whether max_depth kept
    a hot panel from being refined."""

    panels_per_round: tuple = ()
    skipped_per_round: tuple = ()
    checks_per_round: tuple = ()
    deepest_split: int = 0
    max_depth_hit: bool = False

    def to_dict(self):
        return {"rounds": len(self.panels_per_round),
                "panels_per_round": list(self.panels_per_round),
                "skipped_per_round": list(self.skipped_per_round),
                "checks_per_round": list(self.checks_per_round),
                "deepest_split": self.deepest_split,
                "max_depth_hit": self.max_depth_hit}


@dataclass(frozen=True)
class QuadResult:
    """An integral's value and error estimate. tail_estimate is always 0:
    every domain is integrated whole or as given, with no truncation."""

    value: complex
    err_estimate: float
    panels_evaluated: int
    tail_estimate: float = 0.0
    converged: bool = True
    trace: QuadTrace = QuadTrace()


def workers_from_env():
    """Worker threads the engine uses: always 1. HOLOLINK_WORKERS is no
    longer read, because two threads were slower than one on whole-round
    batches (L0 and a near torus pair, on a 2-core host)."""
    return 1


def pairwise_tree_sum(values):
    """Fixed pairwise reduction; the only summation order used for panels."""
    vals = np.asarray(values)
    if vals.size == 0:
        return 0.0
    while vals.size > 1:
        even = vals.size - vals.size % 2
        vals = np.concatenate([vals[0:even:2] + vals[1:even:2], vals[even:]])
    return vals[0]


# ---------------------------------------------------------------------------
# parameter domains

class Interval:
    """Real parameter interval (compact)."""

    naxes = 1
    whole = False

    def __init__(self, lo, hi):
        self.lo = float(lo)
        self.hi = float(hi)

    def initial_cells(self):
        """The chart bounds (lo, hi) per axis of each initial cell."""
        return [((self.lo, self.hi),)]

    def chart(self, cols):
        return cols[0], np.ones_like(cols[0])


class RealLine:
    """The whole real line on the compact chart t = sign(x) s^2,
    s = |x| / (1 - |x|), x in [-1, 1]; the jacobian dt/dx = 2 s / (1 - |x|)^2
    folds into the node weights, and the ends x = +-1, which lie at
    infinity, are never nodes."""

    naxes = 1
    whole = True
    reach = ((-_RIM, _RIM),)  # the chart range proximity samples may reach

    def initial_cells(self):
        return [((-1.0, 1.0),)]

    def chart(self, cols):
        x = cols[0]
        a = np.abs(x)
        s = a / (1.0 - a)
        return (np.sign(x) * s ** _POWER,
                _POWER * s ** (_POWER - 1) / (1.0 - a) ** 2)


class Plane:
    """The whole complex parameter plane on a compact chart about c:
    u = c + s^2 e^{i phi}, s = rho / (1 - rho), rho = x / 2 pi, with x and
    phi both in [0, 2 pi], so that the two chart axes have one length. The
    area jacobian r dr/dx, r = s^2, folds into the node weights; it
    vanishes at c and cancels a simple pole there, and the rim x = 2 pi,
    which lies at infinity, is never a node."""

    naxes = 2
    whole = True
    # the chart ranges the proximity samples may reach
    reach = ((0.0, TWO_PI * _RIM), (0.0, TWO_PI))

    def __init__(self, centre=0):
        self.centre = complex(centre)

    def initial_cells(self):
        """One full turn, about any centre: two half-turns give pv_lines at
        tol 1e-4 the same value and err from one panel more, and L0 36
        panels where one turn takes 22."""
        return [((0.0, TWO_PI), (0.0, TWO_PI))]

    def chart(self, cols):
        x, phi = cols
        rho = x / TWO_PI
        gap = 1.0 - rho
        s = rho / gap
        r = s ** _POWER
        jac = r * _POWER * s ** (_POWER - 1) / (TWO_PI * gap * gap)
        return self.centre + r * np.exp(1j * phi), jac


class Rect:
    """Axis-aligned rectangle in the complex parameter plane (compact)."""

    naxes = 2
    whole = False

    def __init__(self, x0, x1, y0, y1):
        self.x0, self.x1, self.y0, self.y1 = map(float, (x0, x1, y0, y1))

    def initial_cells(self):
        return [((self.x0, self.x1), (self.y0, self.y1))]

    def chart(self, cols):
        x, y = cols
        return x + 1j * y, np.ones_like(x)


_GENERIC_FRACTIONS = np.array([0.29, 0.57, 0.83])


def generic_params(dom):
    """Three generic parameters of a domain: the fractions (0.29, 0.57,
    0.83) of its first initial cell, rotated by one place per axis, mapped
    through its chart."""
    cols = tuple(lo + (hi - lo) * np.roll(_GENERIC_FRACTIONS, -a)
                 for a, (lo, hi) in enumerate(dom.initial_cells()[0]))
    params, _ = dom.chart(cols)
    return params


def domain_for_curve(curve):
    """Quadrature domain of a curve: [0, 1] for a closed real curve, the
    whole plane for a whole complex curve, or its declared rectangle."""
    if curve.kind == "real_closed":
        return Interval(0.0, 1.0)
    if curve.whole:
        return Plane()
    x0, x1, y0, y1 = curve.domain[1:]
    return Rect(x0, x1, y0, y1)


# ---------------------------------------------------------------------------
# panels

_gl_cache = {}


def _gl(order):
    if order not in _gl_cache:
        _gl_cache[order] = leggauss(order)
    return _gl_cache[order]


def _identity(params):
    """The default side: the parameters themselves, with no curve."""
    return (params,)


def _mesh(rows):
    """Per-panel ij meshgrid of a domain's one or two axes: node arrays
    (P, n) -> arrays (P, n**k), the first axis varying slowest."""
    if len(rows) == 1:
        return rows
    first, second = rows
    n = first.shape[1]
    return [np.repeat(first, n, axis=1), np.tile(second, (1, n))]


class _Panels(NamedTuple):
    """Panels as parallel arrays: bounds (P, axes, 2) as (lo, hi) per axis,
    halvings so far, whether the curve pieces could still touch, and the
    value and error estimate (None while pending)."""

    bounds: np.ndarray
    splits: np.ndarray
    unresolved: np.ndarray
    value: np.ndarray = None
    err: np.ndarray = None

    def take(self, index):
        return _Panels(*(None if x is None else x[index] for x in self))

    @staticmethod
    def join(parts):
        """One panel set from parts that have the same fields set."""
        return _Panels(*(None if f[0] is None else np.concatenate(f)
                         for f in zip(*parts)))


class _Engine:
    """One adaptive integration over dom_a (x dom_b), a round at a time.

    Each round first resolves proximity: check passes over the pending
    panels, halving the unresolved ones short of max_depth, until none is
    left to halve. It then integrates every pending panel with one call of
    each side and one call of the integrand per rule, on the round's
    stacked weights and arrays; the integrand returns the (P,) panel sums.
    The split-axis samples of a spatial halving and the proximity samples
    of a check pass likewise take one call per side, a pass's distances one
    stacked min_dist call, and the errors and flags are array operations.
    A run with a whole domain (Plane, RealLine) halves along the longest
    chart axis and compares its proximity samples in the bounded image of
    _compress.
    """

    def __init__(self, integrand, dom_a, dom_b, cfg, side_a=None, side_b=None):
        self.f = integrand
        self.cfg = cfg
        self.doms = (dom_a,) if dom_b is None else (dom_a, dom_b)
        self.sides = (side_a or _identity, side_b or _identity)
        # the curve distance rules need a curve on both sides
        self.curves = dom_b is not None and None not in (side_a, side_b)
        cuts = np.cumsum([0] + [d.naxes for d in self.doms])
        self.axes = [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
        self.whole = any(d.whole for d in self.doms)
        if self.whole:
            # per axis; a compact domain's one cell is all of it
            reach = np.array([ax for d in self.doms for ax in
                              (d.reach if d.whole else d.initial_cells()[0])])
            self.reach = reach[:, 0], reach[:, 1]
            self.origin = (self._points(0, np.zeros(1))[0]
                           if self.curves else None)

    # -- evaluation --------------------------------------------------------

    def _eval_side(self, s, params):
        """Side s's arrays at a parameter array of any shape; each array is
        shaped params.shape + its per-point shape."""
        out = self.sides[s](params.ravel())
        return [np.asarray(a).reshape(params.shape + np.shape(a)[1:])
                for a in out]

    def _points(self, s, params):
        """Real point rows, params.shape + (dim,): the first array of side
        s, realified."""
        first = self._eval_side(s, params)[0]
        return realify(first.reshape(params.shape + (-1,)))

    def _rule(self, s, lo, hi, order):
        """Chart parameters and jacobian-folded weights, both (P, order**k),
        of the order-n tensor Gauss-Legendre rule on side s of each panel."""
        nodes, weights = _gl(order)
        lo, hi = lo[:, self.axes[s]], hi[:, self.axes[s]]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        cols = _mesh([mid[:, a, None] + half[:, a, None] * nodes
                      for a in range(lo.shape[1])])
        wgts = _mesh([half[:, a, None] * weights for a in range(lo.shape[1])])
        params, jac = self.doms[s].chart(tuple(cols))
        return params, math.prod(wgts) * jac

    def _values(self, lo, hi, order):
        """Each panel's value under the order-n rule: the integrand's
        weighted sum over the panel's nodes, from one integrand call for
        the round. The round's values are checked for finiteness together;
        a bad one raises NonFiniteIntegrand naming the first non-finite
        node of its panel or, when every node is finite, the overflowing
        sum."""
        rules = [self._rule(s, lo, hi, order) for s in range(len(self.doms))]
        blocks = [(wgts, *self._eval_side(s, params))
                  for s, (params, wgts) in enumerate(rules)]
        # one errstate for the round; an overflow or NaN shows in out below
        with np.errstate(over="ignore", invalid="ignore"):
            out = _panel_sums(self.f, [a for blk in blocks for a in blk],
                              len(lo))
            for i in np.flatnonzero(~np.isfinite(out))[:1]:
                self._raise_nonfinite(rules, blocks, i, lo[i], hi[i])
        return out

    def _raise_nonfinite(self, rules, blocks, i, lo, hi):
        """Raise NonFiniteIntegrand for panel i (bounds lo, hi), naming its
        first non-finite node, or node pair, in row-major order, or its sum
        when every node is finite. Each node costs one call of the
        integrand on a one-panel round of one node per side, with unit
        weights."""
        sides = [[a[i] for a in blk[1:]] for blk in blocks]
        one = np.ones((1, 1))
        ranges = [range(len(arrays[0])) for arrays in sides]
        for idx in itertools.product(*ranges):
            args = [a for arrays, j in zip(sides, idx)
                    for a in (one, *(x[None, j:j + 1] for x in arrays))]
            if cmath.isfinite(complex(_panel_sums(self.f, args, 1)[0])):
                continue
            param = tuple(params[i][j] for (params, _), j in zip(rules, idx))
            if len(param) == 1:
                param = param[0]
            raise NonFiniteIntegrand(
                f"integrand not finite at parameter {param}", param=param)
        raise NonFiniteIntegrand(
            f"weighted sum not finite on the panel from {lo.tolist()} to "
            f"{hi.tolist()}, although every integrand value there is finite")

    # -- geometry ----------------------------------------------------------

    def _split_axes(self, lo, hi):
        """Per panel, the axis to halve: in a run with a whole domain, the
        longest chart axis; otherwise the axis of largest spatial extent,
        the bounding-box diagonal of the points at the axis ends and
        midpoint, other axes at their midpoints."""
        if self.whole:
            return np.argmax(hi - lo, axis=1)
        mid = 0.5 * (lo + hi)
        extents = []
        for s, ax in enumerate(self.axes):
            k = ax.stop - ax.start
            # cols[panel, varied axis, sample, chart column]
            cols = np.repeat(mid[:, None, None, ax], 3, axis=2)
            cols = np.repeat(cols, k, axis=1)
            for a in range(k):
                cols[:, a, 0, a] = lo[:, ax.start + a]
                cols[:, a, 2, a] = hi[:, ax.start + a]
            params, _ = self.doms[s].chart(tuple(np.moveaxis(cols, -1, 0)))
            pts = self._points(s, params)
            extents.append(np.linalg.norm(pts.max(axis=2) - pts.min(axis=2),
                                          axis=-1))
        return np.argmax(np.concatenate(extents, axis=1), axis=1)

    def _unresolved(self, lo, hi):
        """Per panel, True while the sampled pieces of the two curves could
        touch: the closest sampled approach is no larger than the sum of the
        pieces' covering radii. A close approach narrower than the node
        spacing can then hide between all nodes of both rules. These
        samples are also the CurvesTooClose guard: a sampled approach below
        _MIN_DIST on any panel raises it. In a run with a whole domain the
        samples stop at the reach of each chart, and distances and radii are
        measured between compressed points (_compress); the guard reads the
        true distances of the panels whose compressed ones are below
        _MIN_DIST, which are all that can be, since _compress is
        1-Lipschitz."""
        m = self.cfg.panel_order + 1
        if self.whole:
            lo, hi = (np.clip(x, *self.reach) for x in (lo, hi))
        pieces, points = [], []
        for s, ax in enumerate(self.axes):
            grid = [np.linspace(lo[:, a], hi[:, a], m, axis=-1)
                    for a in range(ax.start, ax.stop)]
            params, _ = self.doms[s].chart(tuple(_mesh(grid)))
            points.append(self._points(s, params))
            pieces.append(self._sample_pieces(self._compress(points[-1]), m,
                                              len(grid)))
        (pts_a, cover_a), (pts_b, cover_b) = pieces
        dists = _kernels.min_dist(pts_a, pts_b)
        true = dists
        if self.whole:
            near = dists < _MIN_DIST
            true = _kernels.min_dist(points[0][near], points[1][near])
        close = true[true < _MIN_DIST]
        if close.size:
            raise CurvesTooClose(f"minimum sampled curve distance "
                                 f"{close.min():.3e} < {_MIN_DIST:.0e}")
        return dists <= cover_a + cover_b

    def _compress(self, pts):
        """Points as given in a compact run; in a run with a whole domain,
        their images y / (1 + |y|), y = x - origin, in the unit ball."""
        if not self.whole:
            return pts
        y = pts - self.origin
        return y / (1.0 + np.linalg.norm(y, axis=-1, keepdims=True))

    @staticmethod
    def _sample_pieces(pts, m, k):
        """Points (P, m**k, dim) on end-inclusive parameter grids, and each
        grid's covering radius: half the largest gap between neighbouring
        points along each axis, combined in quadrature."""
        count = pts.shape[0]
        block = pts.reshape((count,) + (m,) * k + (-1,))
        gaps = np.stack([np.linalg.norm(np.diff(block, axis=1 + a), axis=-1)
                         .reshape(count, -1).max(axis=1) for a in range(k)],
                        axis=1)
        cover = 0.5 * np.hypot.reduce(gaps, axis=1)
        return np.ascontiguousarray(pts, dtype=np.float64), cover

    # -- main loop ---------------------------------------------------------

    def _resolve(self, pending):
        """The pending panels once proximity is resolved, the number of
        panels halved on the way and the number of check passes. A pass
        checks the panels not yet found resolved and halves, without
        integrating them, those still unresolved and short of max_depth;
        their halves are checked by the next pass. An unresolved panel's
        error is unknown, so halving it whatever its value loses nothing.
        The passes end when no panel is left to halve."""
        ready, halved, passes = [], 0, 0
        while True:
            check = np.flatnonzero(pending.unresolved)
            if not check.size:
                break
            bounds = pending.bounds[check]
            pending.unresolved[check] = self._unresolved(bounds[..., 0],
                                                         bounds[..., 1])
            passes += 1
            split = pending.unresolved & (pending.splits < self.cfg.max_depth)
            if not split.any():
                break
            ready.append(pending.take(~split))
            halved += int(split.sum())
            pending = self._halves(pending.take(split))
        return _Panels.join([*ready, pending]), halved, passes

    def _evaluate(self, pending):
        """The pending panels, resolved (_resolve) and then integrated: the
        values (the finer rule) and errors (against the coarser one) of
        every panel, with the number of panels halved unintegrated and of
        check passes. Resolving comes first, so curves that meet fail as
        CurvesTooClose before any integrand call of the round."""
        pending, halved, passes = self._resolve(pending)
        lo, hi = pending.bounds[..., 0], pending.bounds[..., 1]
        coarse = self._values(lo, hi, self.cfg.panel_order)
        value = self._values(lo, hi, 2 * self.cfg.panel_order)
        diff = value - coarse
        # the bits of abs(complex), which np.abs does not always give
        err = np.hypot(diff.real, diff.imag)
        return pending._replace(value=value, err=err), halved, passes

    def _halves(self, panels):
        """Both halves of each panel, cut along its split axis; they inherit
        its unresolved flag."""
        bounds = panels.bounds
        rows = np.arange(len(bounds))
        axis = self._split_axes(bounds[..., 0], bounds[..., 1])
        mid = 0.5 * (bounds[rows, axis, 0] + bounds[rows, axis, 1])
        left, right = bounds.copy(), bounds.copy()
        left[rows, axis, 1] = mid
        right[rows, axis, 0] = mid
        return _Panels(np.concatenate([left, right]),
                       np.tile(panels.splits + 1, 2),
                       np.tile(panels.unresolved, 2))

    def _initial(self):
        """The pending initial cells: products of the domains' cells."""
        bounds = np.array([sum(c, ()) for c in itertools.product(
            *(d.initial_cells() for d in self.doms))], dtype=float)
        return _Panels(bounds, np.zeros(len(bounds), dtype=int),
                       np.full(len(bounds), self.curves))

    def run(self):
        """Refine until the summed panel error is within tol of the total
        and no panel is unresolved. Each round resolves proximity and then
        integrates all its pending panels (_evaluate), so the integrand
        runs twice per round, plus the probe; panels_evaluated counts the
        integrated panels, not those halved while resolving. A panel is hot
        by its error only when that error is positive, so an integrand that
        vanishes on every panel refines nothing by error.
        """
        pending = self._initial()
        done = None
        rounds, skipped, checks = [], [], []
        depth_hit = converged = False
        while True:
            panels, halved, passes = self._evaluate(pending)
            rounds.append(len(panels.bounds))
            skipped.append(halved)
            checks.append(passes)
            if done is not None:
                panels = _Panels.join([done, panels])
            # bounds rows flatten to the (lo, hi) per axis sort key
            flat = panels.bounds.reshape(len(panels.bounds), -1)
            panels = panels.take(np.lexsort(flat.T[::-1]))
            total = complex(pairwise_tree_sum(panels.value))
            err = float(pairwise_tree_sum(panels.err))
            if (err <= self.cfg.tol * max(1.0, abs(total))
                    and not panels.unresolved.any()):
                converged = True
                break
            cutoff = panels.err.max() / _MARK_FACTOR
            hot = ((panels.err >= cutoff) & (panels.err > 0.0)
                   | panels.unresolved)
            at_max = panels.splits >= self.cfg.max_depth
            depth_hit = depth_hit or bool(np.any(hot & at_max))
            refine = hot & ~at_max
            if not refine.any():
                break  # every hot panel is at max_depth: report converged=False
            done = panels.take(~refine)
            pending = self._halves(panels.take(refine))
        trace = QuadTrace(panels_per_round=tuple(rounds),
                          skipped_per_round=tuple(skipped),
                          checks_per_round=tuple(checks),
                          deepest_split=int(panels.splits.max()),
                          max_depth_hit=depth_hit)
        return QuadResult(value=total, err_estimate=err,
                          panels_evaluated=sum(rounds), converged=converged,
                          trace=trace)


def _panel_sums(f, args, count):
    """f's weighted panel sums on a round of count panels, whose stacked
    weights and arrays are args: a (count,) complex array. Anything else
    raises TypeError naming its shape."""
    sums = np.asarray(f(*args))
    if sums.shape != (count,):
        raise TypeError("integrand must return one weighted sum per panel, "
                        f"shape ({count},); got shape {sums.shape}")
    return sums.astype(complex, copy=False)


def _check_batch(f, side_a, side_b=None):
    """Raise TypeError unless f maps a one-panel round, unit weights and
    side_a's arrays at a parameter array (with side_b, the weights and
    arrays of both sides), to its weighted sum, a (1,) array. Calls f once;
    only the shape is checked, so an overflow in the probe's sum is
    ignored."""
    sides = [side_a(np.array([0.123, 0.456]))]
    if side_b is not None:
        sides.append(side_b(np.array([0.234, 0.567, 0.891])))
    args = [np.asarray(a)[None] for arrays in sides
            for a in (np.ones(len(arrays[0])), *arrays)]
    with np.errstate(over="ignore", invalid="ignore"):
        _panel_sums(f, args, 1)


def per_panel(kernel):
    """The round integrand of a per-panel kernel: kernel(w, *side) (with two
    domains, kernel(wa, *side_a, wb, *side_b)) takes one panel's weights
    and arrays and returns that panel's weighted sum, a scalar. It is
    called once per panel of the round; this is the only per-panel loop."""
    def integrand(*stacked):
        return np.array([kernel(*args) for args in zip(*stacked)])
    return integrand


# ---------------------------------------------------------------------------
# public entry points

def integrate_curve(integrand, domain, cfg):
    """Integrate a single-parameter integrand over a domain.

    The integrand f(w, t) maps a round's jacobian-folded weights w and
    parameters t, both (P, n) for its P panels of n nodes, to the (P,)
    weighted panel sums, each panel's w @ values; anything but a (P,)
    array raises TypeError. per_panel adapts an f written for one panel.
    MaxDepthExceeded is reported as converged=False per the quadrature
    contract, with the best available value.
    """
    _check_batch(integrand, _identity)
    return _Engine(integrand, domain, None, cfg).run()


def integrate_product(integrand, dom_a, dom_b, cfg, side_a=None, side_b=None):
    """Integrate the integrand over dom_a x dom_b.

    A side maps a parameter array to a tuple of arrays, curve positions
    first (default: the parameters alone, with no curve). The integrand is
    called once per rule per refinement round as f(wa, *side_a_arrays, wb,
    *side_b_arrays), stacked over the round's P panels: wa (P, na) and wb
    (P, nb) are the jacobian-folded weights and each array is (P, na, ...)
    or (P, nb, ...). It returns the (P,) weighted panel sums, each panel's
    wa @ K @ wb of its pair values K, which it need not form; anything but
    a (P,) array raises TypeError. per_panel adapts a kernel written for
    one panel's slices. On compact domains positions measure panel extents
    for the split axis. With both sides given, panels whose curve pieces
    could touch are halved, before any of the round's integrand calls,
    until the samples resolve the gap, and those proximity samples raise
    CurvesTooClose where the curves come within 1e-6. A Plane or RealLine
    domain is integrated whole.
    """
    _check_batch(integrand, side_a or _identity, side_b or _identity)
    return _Engine(integrand, dom_a, dom_b, cfg, side_a, side_b).run()


def integrate_pv(integrand, dom_a, dom_b, punctures, cfg, side_a=None,
                 side_b=None):
    """Integral over a product of domains whose integrand may have simple
    poles at declared punctures.

    The round integrand and sides are those of integrate_product, and so
    are the TypeError and CurvesTooClose checks. punctures = (on_a, on_b).
    Under the area measure a simple pole is absolutely integrable, so the
    "principal value" is an ordinary integral: a whole plane with one
    puncture p is integrated as Plane(p), the chart centred on p, whose
    jacobian cancels the pole. One engine run covers the product. Raises
    PVNotConverging for a puncture on an Interval or a Rect and for more
    than one puncture on one plane. The integrand is trusted to have at most simple poles there: the
    caller decides each pole's order from its own data (for a rational
    form, holo_linking_integral reads it off the polynomials).
    """
    doms = []
    for dom, punct in zip((dom_a, dom_b), punctures):
        punct = list(punct or ())
        if punct and not isinstance(dom, Plane):
            raise PVNotConverging(
                f"puncture {punct[0]} on a {type(dom).__name__} domain: "
                "principal values are taken on whole planes only")
        if len(punct) > 1:
            raise PVNotConverging(
                "principal values support exactly one puncture per complex "
                f"curve; got {len(punct)}")
        doms.append(Plane(punct[0]) if punct else dom)
    _check_batch(integrand, side_a or _identity, side_b or _identity)
    return _Engine(integrand, *doms, cfg, side_a, side_b).run()
