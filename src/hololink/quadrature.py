"""Adaptive tensor-product Gauss-Legendre quadrature over curve parameter
domains and products of two of them.

Panels carry an embedded error estimate (difference of the panel_order and
2*panel_order rules; the finer value is kept). There is one refinement
rule: every panel whose error is within a fixed factor of the current worst
is halved along the axis of its largest spatial extent, measured on the
curves when the caller supplies geometry and on the parameter chart
otherwise. With geometry for both curves, a panel whose two curve pieces
could touch between their sample points also counts as hot, whatever its
error: a close approach narrower than the node spacing is invisible to the
error estimate. The panel filtration does not depend on tol: tightening tol
only extends the same deterministic refinement sequence. Panel results are
reduced by a fixed pairwise tree over geometrically sorted panels, so
values are bit-identical for any worker count (HOLOLINK_WORKERS).

Truncated (non-compact) domains are integrated at their radius R and at 2R
with a one-step Richardson extrapolation; principal values exclude exact
epsilon-disks around declared punctures and extrapolate the epsilon
sequence to zero.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import math
import os

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
    pv_epsilons: tuple = (0.1, 0.05, 0.025, 0.0125)

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
        eps = tuple(float(e) for e in self.pv_epsilons)
        if not eps or any(e <= 0 for e in eps) or any(
                eps[i + 1] >= eps[i] for i in range(len(eps) - 1)):
            raise ValueError(
                "QuadConfig invariant violated: pv_epsilons strictly decreasing, positive")
        object.__setattr__(self, "pv_epsilons", eps)


@dataclass(frozen=True)
class QuadResult:
    value: complex
    err_estimate: float
    panels_evaluated: int
    tail_estimate: float = 0.0
    converged: bool = True


def workers_from_env():
    try:
        return max(1, int(os.environ.get("HOLOLINK_WORKERS", "1")))
    except ValueError:
        return 1


def pairwise_tree_sum(values):
    """Fixed pairwise reduction; the only summation order used for panels."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        vals = [vals[i] + vals[i + 1] if i + 1 < len(vals) else vals[i]
                for i in range(0, len(vals), 2)]
    return vals[0]


def extrapolate_to_zero(xs, ys):
    """Neville evaluation at 0 of the polynomial through (xs, ys)."""
    n = len(xs)
    tab = list(ys)
    for level in range(1, n):
        for i in range(n - level):
            x_lo, x_hi = xs[i], xs[i + level]
            tab[i] = (x_hi * tab[i] - x_lo * tab[i + 1]) / (x_hi - x_lo)
    return tab[0]


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

    def exclude(self, punctures, eps):
        return PuncturedInterval(self.lo, self.hi, punctures, eps,
                                 truncated=self.truncated)


class PuncturedInterval(Interval):
    """Interval minus symmetric eps-neighborhoods of interior punctures."""

    def __init__(self, lo, hi, punctures, eps, truncated=False):
        super().__init__(lo, hi, truncated=truncated)
        self.punctures = sorted(float(np.real(p)) for p in punctures)
        self.eps = float(eps)

    def initial_cells(self):
        edges = [self.lo]
        for p in self.punctures:
            edges += [p - self.eps, p + self.eps]
        edges.append(self.hi)
        cells = []
        for i in range(0, len(edges), 2):
            if edges[i + 1] > edges[i]:
                cells.append(((edges[i], edges[i + 1]),))
        return cells

    def scaled(self, factor):
        base = Interval(self.lo, self.hi, truncated=self.truncated).scaled(factor)
        return PuncturedInterval(base.lo, base.hi, self.punctures, self.eps,
                                 truncated=self.truncated)


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

    def exclude(self, punctures, eps):
        if len(punctures) != 1:
            raise PVNotConverging(
                "principal values support exactly one puncture per complex curve; "
                f"got {len(punctures)}")
        return PuncturedDisk(self.radius, complex(punctures[0]), eps,
                             truncated=self.truncated)


class PuncturedDisk:
    """Origin-centered disk of the given radius minus an exact eps-disk
    around the puncture, in a puncture-centered polar chart."""

    naxes = 2

    def __init__(self, radius, puncture, eps, truncated=True):
        self.radius = float(radius)
        self.puncture = complex(puncture)
        self.eps = float(eps)
        self.truncated = bool(truncated)
        if abs(self.puncture) + self.eps >= self.radius:
            raise PVNotConverging(
                f"puncture {puncture} with exclusion {eps} does not fit in "
                f"the radius-{radius} disk")

    def axes(self):
        return ((0.0, 1.0), (0.0, TWO_PI))

    def initial_cells(self):
        return [self.axes()]

    def _rmax(self, phi):
        a = np.real(np.conj(self.puncture) * np.exp(1j * phi))
        return -a + np.sqrt(self.radius ** 2 - abs(self.puncture) ** 2 + a * a)

    def chart(self, cols):
        x, phi = cols
        rmax = self._rmax(phi)
        r = self.eps + x * (rmax - self.eps)
        params = self.puncture + r * np.exp(1j * phi)
        return params, r * (rmax - self.eps)

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
        return PuncturedDisk(self.radius * factor, self.puncture, self.eps,
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

    def exclude(self, punctures, eps):
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


class _Panel:
    __slots__ = ("bounds", "splits", "value", "err", "unresolved")

    def __init__(self, bounds, splits=0, unresolved=True):
        self.bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        self.splits = splits
        self.value = 0.0 + 0.0j
        self.err = 0.0
        # until checked; a panel found resolved passes that on to its halves
        self.unresolved = unresolved

    def key(self):
        return self.bounds

    def split(self, axis):
        lo, hi = self.bounds[axis]
        mid = 0.5 * (lo + hi)
        left = list(self.bounds)
        right = list(self.bounds)
        left[axis] = (lo, mid)
        right[axis] = (mid, hi)
        return (_Panel(left, self.splits + 1, self.unresolved),
                _Panel(right, self.splits + 1, self.unresolved))


def _space_points(domain, geom, cols):
    """Real point rows for chart columns: curve points when geometry is
    given, otherwise the parameters themselves."""
    params, _ = domain.chart(cols)
    if geom is None:
        return realify(np.asarray(params)[:, None])
    return realify(geom(params))


class _Engine:
    """One adaptive integration over domA (x domB)."""

    def __init__(self, integrand, dom_a, dom_b, cfg, geom_a=None, geom_b=None):
        self.f = integrand
        self.dom_a = dom_a
        self.dom_b = dom_b
        self.cfg = cfg
        self.geom_a = geom_a
        self.geom_b = geom_b
        self.na = dom_a.naxes
        self.panels_evaluated = 0

    # -- node layout -------------------------------------------------------

    def _axis_nodes(self, bounds, order):
        nodes, weights = _gl(order)
        out = []
        for lo, hi in bounds:
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            out.append((mid + half * nodes, half * weights))
        return out

    def _side(self, domain, axis_nodes):
        """Meshgrid one domain's axes, apply its chart, fold jacobian into
        the weights. Returns (params, weights)."""
        grids = [a[0] for a in axis_nodes]
        wgts = [a[1] for a in axis_nodes]
        if len(grids) == 1:
            cols = (grids[0],)
            w = wgts[0]
        else:
            m0, m1 = np.meshgrid(grids[0], grids[1], indexing="ij")
            cols = (m0.ravel(), m1.ravel())
            w = np.outer(wgts[0], wgts[1]).ravel()
        params, jac = domain.chart(cols)
        return params, w * jac

    def _eval_order(self, panel, order):
        axis_nodes = self._axis_nodes(panel.bounds, order)
        pa, wa = self._side(self.dom_a, axis_nodes[:self.na])
        if self.dom_b is None:
            vals = np.asarray(self.f(pa))
            self._check_finite(vals, pa, None)
            return complex(np.dot(wa, vals))
        pb, wb = self._side(self.dom_b, axis_nodes[self.na:])
        vals = np.asarray(self.f(pa, pb))
        self._check_finite(vals, pa, pb)
        return complex(wa @ vals @ wb)

    def _check_finite(self, vals, pa, pb):
        if np.all(np.isfinite(vals)):
            return
        bad = np.argwhere(~np.isfinite(vals))
        idx = tuple(bad[0])
        if pb is None:
            param = pa[idx[0]]
        else:
            param = (pa[idx[0]], pb[idx[1]])
        raise NonFiniteIntegrand(
            f"integrand not finite at parameter {param}", param=param)

    def _evaluate(self, panel):
        order = self.cfg.panel_order
        coarse = self._eval_order(panel, order)
        panel.value = self._eval_order(panel, 2 * order)
        panel.err = abs(panel.value - coarse)
        if panel.unresolved:
            panel.unresolved = self._unresolved(panel)
        return panel

    # -- geometry ----------------------------------------------------------

    def _split_axis(self, panel):
        """Axis of largest spatial extent: the bounding-box diagonal of the
        points at the axis ends and midpoint, other axes at their midpoints."""
        mids = [0.5 * (lo + hi) for lo, hi in panel.bounds]
        extents = []
        for a, (lo, hi) in enumerate(panel.bounds):
            cols = [np.full(3, m) for m in mids]
            cols[a] = np.array([lo, mids[a], hi])
            if a < self.na:
                pts = _space_points(self.dom_a, self.geom_a, tuple(cols[:self.na]))
            else:
                pts = _space_points(self.dom_b, self.geom_b, tuple(cols[self.na:]))
            extents.append(float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))))
        return int(np.argmax(extents))

    def _unresolved(self, panel):
        """True while the sampled pieces of the two curves could touch: the
        closest sampled approach is no larger than the sum of the pieces'
        covering radii. A close approach narrower than the node spacing can
        then hide between all nodes of both rules."""
        if self.geom_a is None or self.geom_b is None or self.dom_b is None:
            return False
        m = self.cfg.panel_order + 1
        grid = [np.linspace(lo, hi, m) for lo, hi in panel.bounds]
        pts_a, cover_a = self._sample_piece(self.dom_a, self.geom_a, grid[:self.na])
        pts_b, cover_b = self._sample_piece(self.dom_b, self.geom_b, grid[self.na:])
        return _kernels.min_dist(pts_a, pts_b) <= cover_a + cover_b

    @staticmethod
    def _sample_piece(domain, geom, grid):
        """Curve points on an end-inclusive parameter grid, and the grid's
        covering radius: half the largest gap between neighbouring points
        along each axis, combined in quadrature."""
        cols = np.meshgrid(*grid, indexing="ij")
        shape = cols[0].shape
        pts = np.ascontiguousarray(
            _space_points(domain, geom, tuple(c.ravel() for c in cols)),
            dtype=np.float64)
        block = pts.reshape(shape + (-1,))
        gaps = [np.linalg.norm(np.diff(block, axis=a), axis=-1).max()
                for a in range(len(grid))]
        return pts, 0.5 * math.hypot(*gaps)

    def _global_distance_check(self):
        if self.geom_a is None or self.geom_b is None or self.dom_b is None:
            return
        pa = self.dom_a.proximity_params()
        pb = self.dom_b.proximity_params()
        pts_a = np.ascontiguousarray(realify(self.geom_a(pa)), dtype=np.float64)
        pts_b = np.ascontiguousarray(realify(self.geom_b(pb)), dtype=np.float64)
        d = _kernels.min_dist(pts_a, pts_b)
        if d < _MIN_DIST:
            raise CurvesTooClose(
                f"minimum sampled curve distance {d:.3e} < {_MIN_DIST:.0e}")

    # -- main loop ---------------------------------------------------------

    def run(self):
        self._global_distance_check()
        pending = []
        for cell_a in self.dom_a.initial_cells():
            if self.dom_b is None:
                pending.append(_Panel(cell_a))
            else:
                for cell_b in self.dom_b.initial_cells():
                    pending.append(_Panel(tuple(cell_a) + tuple(cell_b)))
        done = []
        workers = workers_from_env()
        converged = False
        while True:
            if workers > 1 and len(pending) > 1:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    done.extend(pool.map(self._evaluate, pending))
            else:
                done.extend(self._evaluate(p) for p in pending)
            self.panels_evaluated += len(pending)
            pending = []
            done.sort(key=_Panel.key)
            total = pairwise_tree_sum([p.value for p in done])
            err = float(pairwise_tree_sum([p.err for p in done]))
            if (err <= self.cfg.tol * max(1.0, abs(total))
                    and not any(p.unresolved for p in done)):
                converged = True
                break
            cutoff = max(p.err for p in done) / _MARK_FACTOR
            keep, refine = [], []
            for p in done:
                if ((p.err >= cutoff or p.unresolved)
                        and p.splits < self.cfg.max_depth):
                    refine.append(p)
                else:
                    keep.append(p)
            if not refine:
                break  # every hot panel is at max_depth: report converged=False
            for p in refine:
                pending.extend(p.split(self._split_axis(p)))
            done = keep
        return QuadResult(value=total, err_estimate=err,
                          panels_evaluated=self.panels_evaluated,
                          tail_estimate=0.0, converged=converged)


def _ensure_batch_1(f):
    probe = np.array([0.12345, 0.6789])
    try:
        out = np.asarray(f(probe))
        if out.shape == probe.shape:
            return f
    except Exception:
        pass
    return lambda params: np.array([f(p) for p in params])


def _ensure_batch_2(f):
    pa = np.array([0.123, 0.456])
    pb = np.array([0.234, 0.567, 0.891])
    try:
        out = np.asarray(f(pa, pb))
        if out.shape == (2, 3):
            return f
    except Exception:
        pass
    return lambda A, B: np.array([[f(a, b) for b in B] for a in A])


# ---------------------------------------------------------------------------
# public entry points

def integrate_curve(integrand, domain, cfg):
    """Integrate a single-parameter integrand over a domain.

    The integrand may map a parameter array to a value array (preferred) or
    a scalar to a scalar. MaxDepthExceeded is reported as converged=False
    per the quadrature contract, with the best available value.
    """
    f = _ensure_batch_1(integrand)
    return _Engine(f, domain, None, cfg).run()


def integrate_product(integrand, dom_a, dom_b, cfg, geom_a=None, geom_b=None,
                      decay_order=1):
    """Integrate integrand(u, v) over dom_a x dom_b.

    The integrand receives parameter arrays (na,), (nb,) and must return the
    (na, nb) pair grid. geom_a/geom_b map parameter arrays to curve points;
    they measure panel extents for the split axis, and with both given the
    CurvesTooClose guard runs and panels whose curve pieces could touch are
    refined until the samples resolve the gap. If either domain is a
    truncation window the integral is computed at size R and 2R and
    Richardson-extrapolated with the given decay order k (tail ~ R^-k),
    reporting tail_estimate = |I(2R) - I(R)|.
    """
    f = _ensure_batch_2(integrand)
    truncated = getattr(dom_a, "truncated", False) or (
        dom_b is not None and getattr(dom_b, "truncated", False))
    if not truncated:
        return _Engine(f, dom_a, dom_b, cfg, geom_a, geom_b).run()

    def grow(dom, factor):
        return dom.scaled(factor) if getattr(dom, "truncated", False) else dom

    res_1 = _Engine(f, dom_a, dom_b, cfg, geom_a, geom_b).run()
    res_2 = _Engine(f, grow(dom_a, 2.0), grow(dom_b, 2.0), cfg,
                    geom_a, geom_b).run()
    step = res_2.value - res_1.value
    value = res_2.value + step / (2.0 ** decay_order - 1.0)
    return QuadResult(value=value,
                      err_estimate=res_1.err_estimate + res_2.err_estimate,
                      panels_evaluated=res_1.panels_evaluated + res_2.panels_evaluated,
                      tail_estimate=abs(step),
                      converged=res_1.converged and res_2.converged)


def _probe_pole_order(f2, domain, other, punctures, swap):
    """Log-log slope of the integrand magnitude on shrinking rings around
    each declared puncture; order > 1.5 means the pole is not simple."""
    if other is not None:
        gen = other.generic_params()
    for p in punctures:
        if isinstance(domain, Interval):
            r0 = 0.25 * min(1.0, domain.hi - domain.lo)
            radii = r0 * 0.5 ** np.arange(4)
            rings = [np.array([p - r, p + r]) for r in radii]
        else:
            r0 = 0.5 * min(1.0, (domain.radius - abs(complex(p))) / 2.0)
            radii = r0 * 0.5 ** np.arange(4)
            angles = np.exp(1j * np.linspace(0.0, TWO_PI, 8, endpoint=False))
            rings = [complex(p) + r * angles for r in radii]
        mags = []
        for ring in rings:
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


def integrate_pv(integrand, dom_a, dom_b, punctures, cfg, geom_a=None,
                 geom_b=None, decay_order=1):
    """Principal value of a product integral with declared punctures.

    punctures = (on_a, on_b): parameter values excluded by exact
    eps-neighborhoods, eps running through cfg.pv_epsilons; the limit is the
    Neville extrapolation to eps = 0. Convergence requires the last two
    extrapolants to agree to cfg.tol. A pole-order probe at each puncture
    raises PVNotConverging for anything steeper than a simple pole.
    """
    punct_a, punct_b = punctures
    punct_a = list(punct_a or ())
    punct_b = list(punct_b or ())
    f = _ensure_batch_2(integrand) if dom_b is not None else _ensure_batch_1(integrand)
    if not punct_a and not punct_b:
        if dom_b is None:
            return integrate_curve(f, dom_a, cfg)
        return integrate_product(f, dom_a, dom_b, cfg, geom_a, geom_b,
                                 decay_order)

    if punct_a:
        _probe_pole_order(f, dom_a, dom_b, punct_a, swap=False)
    if punct_b:
        _probe_pole_order(f, dom_b, dom_a, punct_b, swap=True)

    values, errs, tails, panels = [], [], [], 0
    conv_all = True
    for eps in cfg.pv_epsilons:
        da = dom_a.exclude(punct_a, eps) if punct_a else dom_a
        db = dom_b.exclude(punct_b, eps) if (dom_b is not None and punct_b) else dom_b
        if db is None:
            res = integrate_curve(f, da, cfg)
        else:
            res = integrate_product(f, da, db, cfg, geom_a, geom_b, decay_order)
        values.append(res.value)
        errs.append(res.err_estimate)
        tails.append(res.tail_estimate)
        panels += res.panels_evaluated
        conv_all = conv_all and res.converged

    eps_seq = list(cfg.pv_epsilons)
    e_prev = extrapolate_to_zero(eps_seq[:-1], values[:-1])
    e_last = extrapolate_to_zero(eps_seq, values)
    gap = abs(e_last - e_prev)
    if len(values) >= 3:
        e_earlier = extrapolate_to_zero(eps_seq[:-2], values[:-2])
        if gap > 2.0 * abs(e_prev - e_earlier) and gap > cfg.tol * max(1.0, abs(e_last)):
            raise PVNotConverging(
                f"extrapolants diverge: successive limits differ by {gap:.3e}")
    converged = conv_all and gap <= cfg.tol * max(1.0, abs(e_last))
    return QuadResult(value=e_last,
                      err_estimate=gap + max(errs),
                      panels_evaluated=panels,
                      tail_estimate=max(tails),
                      converged=converged)
