"""Adaptive tensor-product Gauss-Legendre quadrature over curve parameter
domains and products of two of them.

Panels carry an embedded error estimate (difference of the panel_order and
2*panel_order rules; the finer value is kept). There is one refinement
rule: every panel whose error is within a fixed factor of the current worst
is halved along the axis of its largest spatial extent, measured on the
curves when the caller supplies curve sides and on the parameter chart
otherwise. With curves on both sides, a panel whose two curve pieces could
touch between their sample points also counts as hot, whatever its error:
a close approach narrower than the node spacing is invisible to the error
estimate.

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

A side maps a parameter array to a tuple of arrays, curve positions first;
the default side is the parameters alone. A round integrates its panels
with one call of each side per rule and one call of the integrand per
rule. The integrand receives each side's jacobian-folded weights (P, n)
before that side's arrays (P, n, ...), stacked over the round's P panels,
and returns the (P,) weighted panel sums, so it can contract its values
however is cheapest. per_panel adapts a kernel written for one panel; it
holds the only per-panel loop. Each proximity check pass and each halving
takes one call per side for its samples, and a pass's distances are one
stacked _kernels.min_dist call. Errors, covering radii and flags are array
operations over the round, and the round's panel sums are checked for
finiteness together. Panel results are reduced by a fixed pairwise tree
over geometrically sorted panels, so values do not depend on how a round
is batched. Everything runs on one thread.

A truncated (non-compact) domain of radius R is integrated in one run over
its doubled window. R is the curve's own: domain_for_curve reads it from
the curve's declared ("disk", R) domain, and no setting overrides it. The
doubled window's initial cells are cut at R: the panels descending
from the inner cells sum to I(R), all panels to I(2R), and the outer panels
to the tail I(2R) - I(R), which a one-step Richardson extrapolation adds
back. Every disk is such a window, in one polar chart centred on its
puncture when it has one and on the origin otherwise; the chart's area
jacobian cancels a simple pole at the centre, so a declared simple pole is
integrated directly. Only the starting cells depend on the centre: one
full turn per window about the origin (L0 at tol 1e-6 takes 34 panels,
and 236 from two half-turns) and two half-turns about a puncture
(pv_lines at tol 1e-4 takes 192 panels, and 741 from one full turn).
integrate_pv alone decides which domains are punctured. Which poles are
simple is the caller's decision, made from the form's polynomials before
any integrand runs; this module only integrates. Every result carries a
QuadTrace saying how it was produced.
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
    a hot panel from being refined; err_source names the largest part of
    the error budget: "quadrature" (summed panel errors) or "tail" (the
    outer panels' sum, I(2R) - I(R))."""

    panels_per_round: tuple = ()
    skipped_per_round: tuple = ()
    checks_per_round: tuple = ()
    deepest_split: int = 0
    max_depth_hit: bool = False
    err_source: str = "quadrature"

    def to_dict(self):
        return {"rounds": len(self.panels_per_round),
                "panels_per_round": list(self.panels_per_round),
                "skipped_per_round": list(self.skipped_per_round),
                "checks_per_round": list(self.checks_per_round),
                "deepest_split": self.deepest_split,
                "max_depth_hit": self.max_depth_hit,
                "err_source": self.err_source}


@dataclass(frozen=True)
class QuadResult:
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
    """Real parameter interval; truncated=True marks it as a window
    [lo, hi] = [-R, R] on a non-compact curve, integrated together with the
    outer cells [-2R, -R] and [R, 2R] of its doubled window for the tail
    step."""

    naxes = 1

    def __init__(self, lo, hi, truncated=False):
        self.lo = float(lo)
        self.hi = float(hi)
        self.truncated = bool(truncated)

    def initial_cells(self):
        """(axes, inner) per initial cell: the window is inner, the rest of
        the doubled window outer."""
        cells = [(((self.lo, self.hi),), True)]
        if self.truncated:
            cells += [(((2.0 * self.lo, self.lo),), False),
                      (((self.hi, 2.0 * self.hi),), False)]
        return cells

    def chart(self, cols):
        return cols[0], np.ones_like(cols[0])


class Disk:
    """Truncation window |u| <= R (R = radius) in the complex parameter
    plane, integrated together with its outer ring out to 2R, in a polar
    chart centred on c, the puncture when one is given and the origin
    otherwise: u = c + r e^{i phi}, r = x rmax_R(phi) for x in [0, 1],
    where rmax_R(phi) reaches the radius-R circle, and r = rmax_R + (x - 1)
    (rmax_2R - rmax_R) on the ring x in [1, 2]. The area jacobian r dr/dx
    vanishes at c and cancels a simple pole there, so the integral is an
    ordinary one; no quadrature node lies on x = 0."""

    naxes = 2

    def __init__(self, radius, puncture=None):
        self.radius = float(radius)
        self.puncture = None if puncture is None else complex(puncture)
        self.centre = self.puncture or 0j
        if abs(self.centre) >= self.radius:
            raise PVNotConverging(
                f"puncture {puncture} does not lie inside the radius-{radius} disk")

    def initial_cells(self):
        """(axes, inner) per initial cell: the window x <= 1 is inner, the
        ring outer. About the origin each is one full turn; two half-turns
        take L0 from 34 panels to 236 at tol 1e-6. About a puncture each
        is two half-turns; one full turn takes pv_lines from 192 panels to
        741 at tol 1e-4."""
        if self.puncture is None:
            turns = [(0.0, TWO_PI)]
        else:
            turns = [(0.0, math.pi), (math.pi, TWO_PI)]
        return [((x, turn), inner)
                for x, inner in (((0.0, 1.0), True), ((1.0, 2.0), False))
                for turn in turns]

    def _rmax(self, rot, radius):
        if not self.centre:
            return radius  # what the formula gives, without its square roots
        a = np.real(np.conj(self.centre) * rot)
        return -a + np.sqrt(radius ** 2 - abs(self.centre) ** 2 + a * a)

    def chart(self, cols):
        x, phi = cols
        rot = np.exp(1j * phi)
        rmax = self._rmax(rot, self.radius)
        ring = self._rmax(rot, 2.0 * self.radius) - rmax
        inner = x <= 1.0
        r = np.where(inner, x * rmax, rmax + (x - 1.0) * ring)
        return self.centre + r * rot, r * np.where(inner, rmax, ring)


class Rect:
    """Axis-aligned rectangle in the complex parameter plane (compact)."""

    naxes = 2

    def __init__(self, x0, x1, y0, y1):
        self.x0, self.x1, self.y0, self.y1 = map(float, (x0, x1, y0, y1))

    def initial_cells(self):
        return [(((self.x0, self.x1), (self.y0, self.y1)), True)]

    def chart(self, cols):
        x, y = cols
        return x + 1j * y, np.ones_like(x)


_GENERIC_FRACTIONS = np.array([0.29, 0.57, 0.83])


def generic_params(dom):
    """Three generic parameters of a domain: the fractions (0.29, 0.57,
    0.83) of its first initial cell, rotated by one place per axis, mapped
    through its chart."""
    axes, _ = dom.initial_cells()[0]
    cols = tuple(lo + (hi - lo) * np.roll(_GENERIC_FRACTIONS, -a)
                 for a, (lo, hi) in enumerate(axes))
    params, _ = dom.chart(cols)
    return params


def domain_for_curve(curve):
    """Quadrature domain of a curve: [0, 1] for a closed real curve, the
    truncation window Disk(R) of the curve's declared ("disk", R) domain,
    or its declared rectangle, which is exact. The curve is the only owner
    of its window, so each curve of a pair is integrated over its own."""
    if curve.kind == "real_closed":
        return Interval(0.0, 1.0)
    if curve.window is not None:
        return Disk(curve.window)
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
    halvings so far, whether the curve pieces could still touch, whether
    the panel lies in the inner cells (the windows as given, not the outer
    ring of a doubled one), and the value and error estimate (None while
    pending)."""

    bounds: np.ndarray
    splits: np.ndarray
    unresolved: np.ndarray
    inner: np.ndarray
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
    The split-axis samples of a halving and the proximity samples of a
    check pass likewise take one call per side, a pass's distances one
    stacked min_dist call, and the errors and flags are array operations.
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
        """Per panel, the axis of largest spatial extent: the bounding-box
        diagonal of the points at the axis ends and midpoint, other axes at
        their midpoints."""
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
        _MIN_DIST on any panel raises it."""
        m = self.cfg.panel_order + 1
        pieces = []
        for s, ax in enumerate(self.axes):
            grid = [np.linspace(lo[:, a], hi[:, a], m, axis=-1)
                    for a in range(ax.start, ax.stop)]
            params, _ = self.doms[s].chart(tuple(_mesh(grid)))
            pieces.append(self._sample_pieces(self._points(s, params), m,
                                              len(grid)))
        (pts_a, cover_a), (pts_b, cover_b) = pieces
        dists = _kernels.min_dist(pts_a, pts_b)
        close = dists[dists < _MIN_DIST]
        if close.size:
            raise CurvesTooClose(f"minimum sampled curve distance "
                                 f"{close.min():.3e} < {_MIN_DIST:.0e}")
        return dists <= cover_a + cover_b

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
        its unresolved and inner flags."""
        bounds = panels.bounds
        rows = np.arange(len(bounds))
        axis = self._split_axes(bounds[..., 0], bounds[..., 1])
        mid = 0.5 * (bounds[rows, axis, 0] + bounds[rows, axis, 1])
        left, right = bounds.copy(), bounds.copy()
        left[rows, axis, 1] = mid
        right[rows, axis, 0] = mid
        return _Panels(np.concatenate([left, right]),
                       np.tile(panels.splits + 1, 2),
                       np.tile(panels.unresolved, 2), np.tile(panels.inner, 2))

    def _initial(self, doubled):
        """The pending initial cells: products of the domains' cells, inner
        when every factor is; the outer ones only for a doubled run."""
        cells = list(itertools.product(*(d.initial_cells() for d in self.doms)))
        inner = np.array([all(flag for _, flag in c) for c in cells])
        keep = inner | doubled
        bounds = np.array([sum((axes for axes, _ in c), ()) for c in cells],
                          dtype=float)[keep]
        return _Panels(bounds, np.zeros(len(bounds), dtype=int),
                       np.full(len(bounds), self.curves), inner[keep])

    def run(self, decay_order=None):
        """Refine until the summed panel error is within tol of the total
        and no panel is unresolved. Each round resolves proximity and then
        integrates all its pending panels (_evaluate), so the integrand
        runs twice per round, plus the probe; panels_evaluated counts the
        integrated panels, not those halved while resolving.

        Without a decay order every domain is integrated over its window as
        given. With a decay order k, truncated domains are integrated over
        their doubled window: the inner panels sum to I(R), all panels to
        I(2R), and the outer panels to the tail I(2R) - I(R) ~ R^-k, which
        is Richardson-extrapolated, value = I(2R) + tail / (2^k - 1).
        """
        pending = self._initial(decay_order is not None)
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
            hot = (panels.err >= cutoff) | panels.unresolved
            at_max = panels.splits >= self.cfg.max_depth
            depth_hit = depth_hit or bool(np.any(hot & at_max))
            refine = hot & ~at_max
            if not refine.any():
                break  # every hot panel is at max_depth: report converged=False
            done = panels.take(~refine)
            pending = self._halves(panels.take(refine))
        inner, outer = panels.inner, ~panels.inner
        tail = complex(pairwise_tree_sum(panels.value[outer]))
        # the Richardson weight of the tail; there is no tail without a decay
        # order, because no outer cell is integrated then
        step = 0.0 if decay_order is None else 1.0 / (2.0 ** decay_order - 1.0)
        err = (float(pairwise_tree_sum(panels.err[inner]))
               + float(pairwise_tree_sum(panels.err[outer])) * (1.0 + step))
        trace = QuadTrace(panels_per_round=tuple(rounds),
                          skipped_per_round=tuple(skipped),
                          checks_per_round=tuple(checks),
                          deepest_split=int(panels.splits.max()),
                          max_depth_hit=depth_hit,
                          err_source="tail" if abs(tail) > err else "quadrature")
        return QuadResult(value=total + tail * step, err_estimate=err,
                          panels_evaluated=sum(rounds),
                          tail_estimate=abs(tail), converged=converged,
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
    A truncated domain is integrated over
    its window as given, with no tail step. MaxDepthExceeded is reported
    as converged=False per the quadrature contract, with the best
    available value.
    """
    _check_batch(integrand, _identity)
    return _Engine(integrand, domain, None, cfg).run()


def integrate_product(integrand, dom_a, dom_b, cfg, side_a=None, side_b=None,
                      decay_order=1):
    """Integrate the integrand over dom_a x dom_b.

    A side maps a parameter array to a tuple of arrays, curve positions
    first (default: the parameters alone, with no curve). The integrand is
    called once per rule per refinement round as f(wa, *side_a_arrays, wb,
    *side_b_arrays), stacked over the round's P panels: wa (P, na) and wb
    (P, nb) are the jacobian-folded weights and each array is (P, na, ...)
    or (P, nb, ...). It returns the (P,) weighted panel sums, each panel's
    wa @ K @ wb of its pair values K, which it need not form; anything but
    a (P,) array raises TypeError. per_panel adapts a kernel written for
    one panel's slices. Positions
    measure panel extents for the split axis. With both sides given,
    panels whose curve pieces could touch are halved, before any of the
    round's integrand calls, until the samples resolve the gap, and those
    proximity samples raise CurvesTooClose where the curves come within
    1e-6. If either domain is a truncation
    window of radius R, one engine run covers the doubled window: the
    panels outside the R window sum to the tail I(2R) - I(R), which is
    Richardson-extrapolated with the given decay order k (tail ~ R^-k),
    reporting tail_estimate = |I(2R) - I(R)|.
    """
    _check_batch(integrand, side_a or _identity, side_b or _identity)
    return _Engine(integrand, dom_a, dom_b, cfg, side_a,
                   side_b).run(decay_order)


def integrate_pv(integrand, dom_a, dom_b, punctures, cfg, side_a=None,
                 side_b=None, decay_order=1):
    """Integral over a product of domains whose integrand may have simple
    poles at declared punctures.

    The round integrand and sides are those of integrate_product, and so
    are the TypeError and CurvesTooClose checks. punctures = (on_a, on_b).
    Under the area measure a simple pole is absolutely integrable, so the
    "principal value" is an ordinary integral: a disk with one puncture p is
    integrated as Disk(R, p), the polar chart centred on p, whose jacobian
    r cancels the pole. That chart is the one every Disk uses; only its
    starting cells differ, two half-turns per window about a puncture
    against one full turn about the origin (at tol 1e-4 pv_lines takes
    192 panels from half-turns and 741 from a full turn; at tol 1e-6 L0,
    unpunctured, takes 34 from a full turn and 236 from half-turns). One
    engine run covers the product; with a truncated domain it covers the
    doubled window and takes the tail step of integrate_product. Raises
    PVNotConverging for a puncture on an Interval or a Rect and for more
    than one puncture on one disk. The integrand is trusted to have at
    most simple poles there: the caller decides each pole's order from its
    own data (for a rational form, holo_linking_integral reads it off the
    polynomials). A steeper pole with zero angular mean, such as
    1/(u - p)^2, integrates to its circular principal value.
    """
    doms = []
    for dom, punct in zip((dom_a, dom_b), punctures):
        punct = list(punct or ())
        if punct and not isinstance(dom, Disk):
            raise PVNotConverging(
                f"puncture {punct[0]} on a {type(dom).__name__} domain: "
                "principal values are taken on disk domains only")
        if len(punct) > 1:
            raise PVNotConverging(
                "principal values support exactly one puncture per complex "
                f"curve; got {len(punct)}")
        doms.append(Disk(dom.radius, punct[0]) if punct else dom)
    _check_batch(integrand, side_a or _identity, side_b or _identity)
    return _Engine(integrand, *doms, cfg, side_a, side_b).run(decay_order)
