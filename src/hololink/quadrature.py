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
estimate. The panel filtration does not depend on tol: tightening tol only
extends the same deterministic refinement sequence.

A side maps a parameter array to a tuple of arrays, curve positions first;
the default side is the parameters alone. Each refinement round evaluates
all pending panels at once: one call of each side per rule, one per side
for the split-axis samples and one per side for the proximity samples. The
integrand, the weight contraction and the finiteness check then run once
per panel on that panel's block. Panel results are reduced by a fixed
pairwise tree over geometrically sorted panels, so values do not depend on
how a round is batched. Everything runs on one thread.

Truncated (non-compact) domains are integrated at their radius R and at 2R
with a one-step Richardson extrapolation. A declared simple pole is
integrated directly, in a polar chart centered on it whose area jacobian
cancels the pole. Every result carries a QuadTrace saying how it was
produced.
"""

from dataclasses import dataclass
import itertools
import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import _kernels
from .errors import CurvesTooClose, NonFiniteIntegrand, PVNotConverging
from .geometry import realify

TWO_PI = 2.0 * math.pi

_MARK_FACTOR = 8.0     # refine panels with err >= max panel err / this
_MIN_DIST = 1e-6       # CurvesTooClose threshold


@dataclass(frozen=True)
class QuadConfig:
    tol: float = 1e-6
    max_depth: int = 24
    panel_order: int = 8
    truncation_radius: float = 40.0

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("QuadConfig invariant violated: tol > 0")
        if not (1 <= self.max_depth <= 40):
            raise ValueError("QuadConfig invariant violated: max_depth in [1, 40]")
        if not (4 <= self.panel_order <= 32):
            raise ValueError("QuadConfig invariant violated: panel_order in [4, 32]")
        if not self.truncation_radius > 0:
            raise ValueError(
                "QuadConfig invariant violated: truncation_radius > 0")


@dataclass(frozen=True)
class QuadTrace:
    """How an integral was produced. panels_per_round lists the panels
    evaluated in each refinement round, over every engine run in order;
    deepest_split is the most halvings of any final panel; max_depth_hit
    says whether max_depth kept a hot panel from being refined; err_source
    names the largest part of the error budget: "quadrature" (summed panel
    errors) or "tail" (the R vs 2R step)."""

    panels_per_round: tuple = ()
    deepest_split: int = 0
    max_depth_hit: bool = False
    err_source: str = "quadrature"

    def to_dict(self):
        return {"rounds": len(self.panels_per_round),
                "panels_per_round": list(self.panels_per_round),
                "deepest_split": self.deepest_split,
                "max_depth_hit": self.max_depth_hit,
                "err_source": self.err_source}


def _merged_trace(results, parts):
    """One trace for several engine runs; parts maps each error source to
    its size, and the largest (first on ties) is the err_source."""
    return QuadTrace(
        panels_per_round=sum((r.trace.panels_per_round for r in results), ()),
        deepest_split=max(r.trace.deepest_split for r in results),
        max_depth_hit=any(r.trace.max_depth_hit for r in results),
        err_source=max(parts, key=parts.get))


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
    """Real parameter interval; truncated=True marks it as a window on a
    non-compact curve (enables the R vs 2R tail step)."""

    naxes = 1

    def __init__(self, lo, hi, truncated=False):
        self.lo = float(lo)
        self.hi = float(hi)
        self.truncated = bool(truncated)

    def axes(self):
        return ((self.lo, self.hi),)

    def initial_cells(self):
        return [self.axes()]

    def chart(self, cols):
        return cols[0], np.ones_like(cols[0])

    def proximity_params(self, n=192):
        return np.linspace(self.lo, self.hi, n)

    def generic_params(self):
        span = self.hi - self.lo
        return self.lo + span * np.array([0.29, 0.57, 0.83])

    def scaled(self, factor):
        mid = 0.0 if self.truncated else 0.5 * (self.lo + self.hi)
        half = 0.5 * (self.hi - self.lo) * factor
        return Interval(mid - half, mid + half, truncated=self.truncated)

    def punctured(self, punctures):
        raise PVNotConverging(
            "principal values need a complex parameter domain; real curves "
            "carry no forms, so a puncture on a real interval has none")


class Disk:
    """|u - center| <= radius in the complex parameter plane, polar chart.
    Truncation disks (non-compact curves) are centered at the origin."""

    naxes = 2

    def __init__(self, radius, center=0j, truncated=True):
        self.radius = float(radius)
        self.center = complex(center)
        self.truncated = bool(truncated)

    def axes(self):
        return ((0.0, self.radius), (0.0, TWO_PI))

    def initial_cells(self):
        return [self.axes()]

    def chart(self, cols):
        r, phi = cols
        params = self.center + r * np.exp(1j * phi)
        return params, r

    def proximity_params(self, n=192):
        r = np.array([0.08, 0.25, 0.5, 0.75, 0.95]) * self.radius
        phi = np.linspace(0.0, TWO_PI, max(n // 5, 8), endpoint=False)
        return (self.center + r[:, None] * np.exp(1j * phi)[None, :]).ravel()

    def generic_params(self):
        return self.center + 0.37 * self.radius * np.exp(1j * np.array([0.4, 2.3, 4.1]))

    def scaled(self, factor):
        return Disk(self.radius * factor, self.center, truncated=self.truncated)

    def punctured(self, punctures):
        if len(punctures) != 1:
            raise PVNotConverging(
                "principal values support exactly one puncture per complex curve; "
                f"got {len(punctures)}")
        return PuncturedDisk(self.radius, complex(punctures[0]),
                             truncated=self.truncated)


class PuncturedDisk:
    """Origin-centered disk of the given radius in a polar chart centered on
    an interior puncture p: u = p + x rmax(phi) e^{i phi}, x in [0, 1]. The
    area jacobian r vanishes at p and cancels a simple pole there, so the
    integral is an ordinary one; no quadrature node lies on x = 0."""

    naxes = 2

    def __init__(self, radius, puncture, truncated=True):
        self.radius = float(radius)
        self.puncture = complex(puncture)
        self.truncated = bool(truncated)
        if abs(self.puncture) >= self.radius:
            raise PVNotConverging(
                f"puncture {puncture} does not lie inside the radius-{radius} disk")

    def initial_cells(self):
        # two half-turns: a full turn samples its angular axis at phi = 0
        # and 2 pi, one point, so the split rule would never see its extent
        return [((0.0, 1.0), (0.0, math.pi)), ((0.0, 1.0), (math.pi, TWO_PI))]

    def _rmax(self, phi):
        a = np.real(np.conj(self.puncture) * np.exp(1j * phi))
        return -a + np.sqrt(self.radius ** 2 - abs(self.puncture) ** 2 + a * a)

    def chart(self, cols):
        x, phi = cols
        rmax = self._rmax(phi)
        r = x * rmax
        params = self.puncture + r * np.exp(1j * phi)
        return params, r * rmax

    def proximity_params(self, n=192):
        x = np.array([0.05, 0.3, 0.6, 0.9])
        phi = np.linspace(0.0, TWO_PI, max(n // 4, 8), endpoint=False)
        xm, pm = np.meshgrid(x, phi, indexing="ij")
        params, _ = self.chart((xm.ravel(), pm.ravel()))
        return params

    def generic_params(self):
        params, _ = self.chart((np.array([0.41, 0.66]), np.array([1.1, 3.7])))
        return params

    def scaled(self, factor):
        return PuncturedDisk(self.radius * factor, self.puncture,
                             truncated=self.truncated)


class Rect:
    """Axis-aligned rectangle in the complex parameter plane (compact)."""

    naxes = 2
    truncated = False

    def __init__(self, x0, x1, y0, y1):
        self.x0, self.x1, self.y0, self.y1 = map(float, (x0, x1, y0, y1))

    def axes(self):
        return ((self.x0, self.x1), (self.y0, self.y1))

    def initial_cells(self):
        return [self.axes()]

    def chart(self, cols):
        x, y = cols
        return x + 1j * y, np.ones_like(x)

    def proximity_params(self, n=192):
        m = max(int(math.sqrt(n)), 4)
        xs = np.linspace(self.x0, self.x1, m)
        ys = np.linspace(self.y0, self.y1, m)
        return (xs[:, None] + 1j * ys[None, :]).ravel()

    def generic_params(self):
        xs = self.x0 + (self.x1 - self.x0) * np.array([0.31, 0.62])
        ys = self.y0 + (self.y1 - self.y0) * np.array([0.47, 0.71])
        return xs + 1j * ys

    def punctured(self, punctures):
        raise PVNotConverging("principal values on rectangle domains are not supported")


def domain_for_curve(curve, cfg):
    """Quadrature domain for a curve under the given config.

    Disk domains are truncation windows whose working radius always comes
    from cfg.truncation_radius; callers resolve any scene-declared radius
    into the config before integrating. Rect domains are exact.
    """
    if curve.kind == "real_closed":
        return Interval(0.0, 1.0)
    if curve.domain[0] == "disk":
        return Disk(cfg.truncation_radius)
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
    value and error estimate."""

    bounds: np.ndarray
    splits: np.ndarray
    unresolved: np.ndarray
    value: np.ndarray
    err: np.ndarray

    def take(self, index):
        return _Panels(*(x[index] for x in self))


class _Engine:
    """One adaptive integration over dom_a (x dom_b), a round at a time.

    Each round evaluates every pending panel with one call of each side per
    rule; the integrand and the weight contraction then run once per panel
    on that panel's block. The split-axis and proximity samples of a round
    likewise take one call per side.
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
        """Each panel's value under the order-n rule."""
        rules = [self._rule(s, lo, hi, order) for s in range(len(self.doms))]
        blocks = [self._eval_side(s, params)
                  for s, (params, _) in enumerate(rules)]
        out = []
        for i in range(len(lo)):
            vals = np.asarray(self.f(*[a[i] for blk in blocks for a in blk]))
            self._check_finite(vals, rules, i)
            if len(rules) == 1:
                out.append(complex(np.dot(rules[0][1][i], vals)))
            else:
                out.append(complex(rules[0][1][i] @ vals @ rules[1][1][i]))
        return out

    @staticmethod
    def _check_finite(vals, rules, i):
        """Raise NonFiniteIntegrand naming the first bad node of panel i."""
        if np.all(np.isfinite(vals)):
            return
        idx = np.argwhere(~np.isfinite(vals))[0]
        param = tuple(params[i][j] for (params, _), j in zip(rules, idx))
        if len(param) == 1:
            param = param[0]
        raise NonFiniteIntegrand(
            f"integrand not finite at parameter {param}", param=param)

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
        spacing can then hide between all nodes of both rules."""
        m = self.cfg.panel_order + 1
        pieces = []
        for s, ax in enumerate(self.axes):
            grid = [np.linspace(lo[:, a], hi[:, a], m, axis=-1)
                    for a in range(ax.start, ax.stop)]
            params, _ = self.doms[s].chart(tuple(_mesh(grid)))
            pieces.append(self._sample_pieces(self._points(s, params), m,
                                              len(grid)))
        (pts_a, cover_a), (pts_b, cover_b) = pieces
        return [_kernels.min_dist(a, b) <= ca + cb
                for a, b, ca, cb in zip(pts_a, pts_b, cover_a, cover_b)]

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
        cover = [0.5 * math.hypot(*g) for g in gaps.tolist()]
        return np.ascontiguousarray(pts, dtype=np.float64), cover

    def _global_distance_check(self):
        if not self.curves:
            return
        pts = [np.ascontiguousarray(
                   self._points(s, np.asarray(dom.proximity_params())),
                   dtype=np.float64)
               for s, dom in enumerate(self.doms)]
        d = _kernels.min_dist(*pts)
        if d < _MIN_DIST:
            raise CurvesTooClose(
                f"minimum sampled curve distance {d:.3e} < {_MIN_DIST:.0e}")

    # -- main loop ---------------------------------------------------------

    def _evaluate(self, bounds, splits, unresolved):
        """The pending panels with their values (the finer rule), their
        errors (against the coarser one) and, for those not yet found
        resolved, the proximity check."""
        lo, hi = bounds[..., 0], bounds[..., 1]
        coarse = self._values(lo, hi, self.cfg.panel_order)
        value = np.array(self._values(lo, hi, 2 * self.cfg.panel_order))
        err = np.array([abs(v - c) for v, c in zip(value.tolist(), coarse)])
        check = np.flatnonzero(unresolved)
        if check.size:
            unresolved[check] = self._unresolved(lo[check], hi[check])
        return _Panels(bounds, splits, unresolved, value, err)

    def _halves(self, panels):
        """Bounds, splits and unresolved flags of both halves of each panel,
        cut along its split axis."""
        bounds = panels.bounds
        rows = np.arange(len(bounds))
        axis = self._split_axes(bounds[..., 0], bounds[..., 1])
        mid = 0.5 * (bounds[rows, axis, 0] + bounds[rows, axis, 1])
        left, right = bounds.copy(), bounds.copy()
        left[rows, axis, 1] = mid
        right[rows, axis, 0] = mid
        return (np.concatenate([left, right]), np.tile(panels.splits + 1, 2),
                np.tile(panels.unresolved, 2))

    def run(self):
        self._global_distance_check()
        cells = itertools.product(*(d.initial_cells() for d in self.doms))
        bounds = np.array([sum(map(tuple, c), ()) for c in cells], dtype=float)
        splits = np.zeros(len(bounds), dtype=int)
        unresolved = np.full(len(bounds), self.curves)
        done = None
        rounds = []
        depth_hit = converged = False
        while True:
            panels = self._evaluate(bounds, splits, unresolved)
            rounds.append(len(bounds))
            if done is not None:
                panels = _Panels(*map(np.concatenate, zip(done, panels)))
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
            bounds, splits, unresolved = self._halves(panels.take(refine))
        trace = QuadTrace(panels_per_round=tuple(rounds),
                          deepest_split=int(panels.splits.max()),
                          max_depth_hit=depth_hit)
        return QuadResult(value=total, err_estimate=err,
                          panels_evaluated=sum(rounds), tail_estimate=0.0,
                          converged=converged, trace=trace)


def _ensure_batch_1(f, side):
    """f when it maps the side's arrays at a parameter array to a value
    array, else a loop that calls it point by point. Calls f once."""
    probe = np.array([0.12345, 0.6789])
    try:
        out = np.asarray(f(*side(probe)))
        if out.shape == probe.shape:
            return f
    except Exception:
        pass
    return lambda *arrays: np.array([f(*point) for point in zip(*arrays)])


def _ensure_batch_2(f, side_a, side_b):
    """f when it maps the two sides' arrays to their (na, nb) pair grid,
    else a loop that calls it pair by pair. Calls f once."""
    blk_a = side_a(np.array([0.123, 0.456]))
    blk_b = side_b(np.array([0.234, 0.567, 0.891]))
    try:
        out = np.asarray(f(*blk_a, *blk_b))
        if out.shape == (2, 3):
            return f
    except Exception:
        pass
    k = len(blk_a)
    return lambda *arrays: np.array(
        [[f(*a, *b) for b in zip(*arrays[k:])] for a in zip(*arrays[:k])])


# ---------------------------------------------------------------------------
# public entry points

def integrate_curve(integrand, domain, cfg):
    """Integrate a single-parameter integrand over a domain.

    The integrand may map a parameter array to a value array (preferred) or
    a scalar to a scalar. MaxDepthExceeded is reported as converged=False
    per the quadrature contract, with the best available value.
    """
    f = _ensure_batch_1(integrand, _identity)
    return _Engine(f, domain, None, cfg).run()


def integrate_product(integrand, dom_a, dom_b, cfg, side_a=None, side_b=None,
                      decay_order=1):
    """Integrate the integrand over dom_a x dom_b.

    A side maps a parameter array to a tuple of arrays, curve positions
    first (default: the parameters alone, with no curve). The integrand
    receives f(*side_a_arrays, *side_b_arrays) for the na and nb nodes of a
    panel and returns the (na, nb) pair grid. Positions measure panel
    extents for the split axis; with both sides given the CurvesTooClose
    guard runs and panels whose curve pieces could touch are refined until
    the samples resolve the gap. If either domain is a truncation window
    the integral is computed at size R and 2R and Richardson-extrapolated
    with the given decay order k (tail ~ R^-k), reporting
    tail_estimate = |I(2R) - I(R)|.
    """
    f = _ensure_batch_2(integrand, side_a or _identity, side_b or _identity)
    return _product(f, dom_a, dom_b, cfg, side_a, side_b, decay_order)


def _product(f, dom_a, dom_b, cfg, side_a, side_b, decay_order):
    """integrate_product for an integrand that already returns pair grids."""
    if not (dom_a.truncated or dom_b.truncated):
        return _Engine(f, dom_a, dom_b, cfg, side_a, side_b).run()

    def grow(dom, factor):
        return dom.scaled(factor) if dom.truncated else dom

    res_1 = _Engine(f, dom_a, dom_b, cfg, side_a, side_b).run()
    res_2 = _Engine(f, grow(dom_a, 2.0), grow(dom_b, 2.0), cfg,
                    side_a, side_b).run()
    step = res_2.value - res_1.value
    value = res_2.value + step / (2.0 ** decay_order - 1.0)
    err = res_1.err_estimate + res_2.err_estimate
    return QuadResult(value=value, err_estimate=err,
                      panels_evaluated=res_1.panels_evaluated + res_2.panels_evaluated,
                      tail_estimate=abs(step),
                      converged=res_1.converged and res_2.converged,
                      trace=_merged_trace((res_1, res_2),
                                          {"quadrature": err, "tail": abs(step)}))


def _probe_pole_order(f2, domain, other, punctures, swap):
    """Log-log slope of the integrand magnitude on shrinking rings around
    each declared puncture of a disk domain; order > 1.5 means the pole is
    not simple."""
    if other is not None:
        gen = other.generic_params()
    angles = np.exp(1j * np.linspace(0.0, TWO_PI, 8, endpoint=False))
    for p in punctures:
        r0 = 0.5 * min(1.0, (domain.radius - abs(complex(p))) / 2.0)
        radii = r0 * 0.5 ** np.arange(4)
        mags = []
        for r in radii:
            ring = complex(p) + r * angles
            if other is None:
                vals = f2(ring)
            elif swap:
                vals = f2(gen, ring)
            else:
                vals = f2(ring, gen)
            mags.append(float(np.max(np.abs(vals))))
        if max(mags) < 1e-300:
            continue
        logs = np.log(np.maximum(mags, 1e-300))
        slope = np.polyfit(np.log(radii), logs, 1)[0]
        order = -slope
        if order > 1.5:
            raise PVNotConverging(
                f"puncture {p}: integrand grows like r^-{order:.2f}, "
                "pole of order > 1 (only simple poles have principal values)")


def integrate_pv(integrand, dom_a, dom_b, punctures, cfg, side_a=None,
                 side_b=None, decay_order=1):
    """Integral over a product of domains (a single domain when dom_b is
    None) whose integrand may have simple poles at declared punctures.

    The integrand and sides are those of integrate_product (of
    integrate_curve when dom_b is None). punctures = (on_a, on_b). Under
    the area measure a simple pole is absolutely integrable, so the
    "principal value" is an ordinary integral: each punctured disk is
    integrated in the polar chart centered on its puncture (PuncturedDisk),
    whose jacobian r cancels the pole, in one engine run (plus the R vs 2R
    step of integrate_product on truncated domains). Raises
    PVNotConverging for a puncture on a real Interval or a Rect, for more
    than one puncture per disk, and, from a pole-order probe at each
    puncture, for anything steeper than a simple pole.
    """
    punct_a = list(punctures[0] or ())
    punct_b = list(punctures[1] or ())
    da = dom_a.punctured(punct_a) if punct_a else dom_a
    db = dom_b.punctured(punct_b) if punct_b else dom_b
    sa, sb = side_a or _identity, side_b or _identity
    if dom_b is None:
        f = _ensure_batch_1(integrand, sa)

        def on_params(u):
            return f(*sa(u))
    else:
        f = _ensure_batch_2(integrand, sa, sb)

        def on_params(u, v):
            return f(*sa(u), *sb(v))

    if punct_a:
        _probe_pole_order(on_params, dom_a, dom_b, punct_a, swap=False)
    if punct_b:
        _probe_pole_order(on_params, dom_b, dom_a, punct_b, swap=True)
    if dom_b is None:
        return _Engine(f, da, None, cfg, side_a).run()
    return _product(f, da, db, cfg, side_a, side_b, decay_order)
