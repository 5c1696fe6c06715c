"""Adaptive tensor-product Gauss-Legendre quadrature over curve parameter
domains and products of two of them.

Panels carry an embedded error estimate (difference of the panel_order and
2*panel_order rules; the finer value is kept). There is one refinement
rule, greedy bulk marking (Dorfler, SIAM J. Numer. Anal. 33, 1996; the
largest-error-first order of QUADPACK, Piessens et al., 1983): the panels
with positive error are ranked largest first, and the shortest prefix
whose removal leaves a summed error within the stop test's target
tol * max(1, |total|) is halved, at least one panel while that test fails
(_marked). A run whose panels at max_depth alone hold more error than the
target stops unconverged: no round can refine it away. With curves on both
sides, a panel whose two curve pieces could touch between their sample
points also counts as hot, whatever its error: a close approach narrower
than the node spacing is invisible to the error estimate.

A refinement round first resolves proximity, then integrates. It checks
the pending panels' curve pieces, halves the unresolved ones short of
max_depth without integrating them, and checks their halves again until
every pending panel is resolved or at max_depth. These proximity samples
are the only curve-distance sampler: they cover every initial cell, follow
the unresolved panels to wherever the curves come close, and raise
CurvesTooClose at a sampled distance below 1e-6, before any integrand
call of the round. A panel is resolved when its closest sampled approach
exceeds the two pieces' covering radii, each half its samples' largest
gap; each panel's pieces are sampled on its own grid.

A pair run (two closed curves and a Shear) integrates over the chart
t1 = sigma, t2 = k sigma + c + delta, whose jacobian is 1, reading both
sides and its check off the curves' Fourier rows, separably in sigma and
delta: c1, c1' at sigma and c2, c2' at every node pair (Shear.planes), and
the difference field D = c1(sigma) - c2(t2) on each panel's grid
(Shear.difference), whose samples are covered by the certified radius
(h_sigma B_sigma + h_delta B_delta) / 2 (_pair_unresolved); a panel is
halved along the axis on which D's samples spread more.

Compact domains (Interval, Rect) are integrated as given, and a panel is
halved along the axis of its largest spatial extent, measured on the curves
when the caller supplies curve sides and on the parameter chart otherwise.
An unbounded curve is integrated whole, with no window and no tail: Plane
maps the whole complex parameter plane and RealLine the whole real line
onto a compact chart, u = c + s^2 e^{i phi} and t = +-s^2 with
s = rho / (1 - rho), whose jacobians fold into the node weights (Davis &
Rabinowitz, Methods of Numerical Integration, 2nd ed., 1984, ch. 3). A run
that contains such a whole domain chooses its split axes on the chart
instead. A panel halved by its error is cut along the chart axis on which
the integrand varies most, by the fourth-difference probe of Genz & Malik
(J. Comput. Appl. Math. 6, 1980; kept in DCUHRE, Berntsen, Espelid &
Genz, ACM TOMS 17, 1991): the integrand at the panel's centre c and at
c +- l2 h and c +- l3 h along each axis, l2 = sqrt(9/70), l3 = sqrt(9/10)
and h the half-width, scores each axis by
|f(+l2) + f(-l2) - 2 f(c) - (l2/l3)^2 (f(+l3) + f(-l3) - 2 f(c))|. The
top-scoring axis is cut when its score is at least 4 times
(_SPLIT_FACTOR) the longest chart axis's score; otherwise, and where a
probe value is not finite, the longest chart axis is. A panel halved
while unresolved is cut along its longest chart axis. Such a run also
takes its proximity samples on the finite part of the chart,
rho <= 1 - 1e-4, comparing them after the map x -> (x - o) / (1 + |x - o|)
of each point, o the first curve's point at parameter 0, which keeps the
far field's pieces and gaps bounded. The CurvesTooClose
guard still reads true distances. The plane's area jacobian vanishes at
its centre and cancels a simple pole there, so integrate_pv integrates a
declared simple pole on the plane centred on it; every plane starts from
one full turn. integrate_pv alone decides which domains are punctured;
which poles are simple is the caller's decision, made from the form's
polynomials before any integrand runs.

A side maps a parameter array (a pair run's: Shear.planes) to a tuple of
arrays, positions first; the default side is the parameters alone. A
round integrates its panels in
chunks of whole panels, at most _kernels._BLOCK_PAIRS coarse-rule node
pairs each (1,024 panels of a 1-D x 1-D run, 16 of a 2-D x 2-D one, 68 of
a pair run: _Engine.chunk), so its node arrays never hold more than one
chunk. A chunk takes one call of each side, on the nodes of both rules,
and one integrand call per rule (_Engine), which receives each side's
jacobian-folded weights (P, n) before its arrays (P, n, ...), stacked over
the chunk's P panels (side b's of a pair run are (P, n, m, ...)), and
returns the (P,) weighted panel sums, so it can contract its values
however is cheapest. per_panel adapts a kernel
written for one panel. Panel results are reduced by a fixed pairwise tree
over geometrically sorted panels, so values do not depend on how a round
is chunked. Everything runs on one thread. Every result carries a
QuadTrace saying how it was produced.
"""

import cmath
import contextlib
from dataclasses import dataclass, field
import itertools
import math
import time
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import _kernels
from .errors import CurvesTooClose, NonFiniteIntegrand, PVNotConverging
from .geometry import TWO_PI, _harmonics, realify

_MIN_DIST = 1e-6       # CurvesTooClose threshold
_POWER = 2             # the whole-domain charts' exponent: u = c + s^2 e^{i phi}
_RIM = 1.0 - 1e-4      # proximity samples of a whole domain stop at rho <= this
_SPLIT_FACTOR = 4.0    # a probed axis must outscore the longest chart axis by this
# the fourth-difference probe's points, c +- lambda h along each chart axis
_LAMBDA2 = math.sqrt(9.0 / 70.0)
_LAMBDA3 = math.sqrt(9.0 / 10.0)
_PHASES = ("resolve", "sides", "rules", "probe", "reduce")


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
    skipped_per_round the panels halved in that round unintegrated, as
    their curve pieces could still touch, checks_per_round the proximity
    check passes the round ran before it integrated (0 once every panel is
    resolved), probed_per_round the panels the round halved by error along
    an axis the probe chose over the longest chart axis, and
    chunks_per_round the chunks the round integrated its panels in. radius
    names the proximity samples' covering radius: ("difference",), the
    certified one of a pair run, "sampled" per side otherwise, empty
    without two curves. chart, k and c give a pair run's
    t2 = k sigma + c + delta ("shear" when k != 0, else "product", 0 and
    0.0). deepest_split is the most halvings of any final panel;
    max_depth_hit says whether max_depth kept a hot panel from being
    refined or held more error than the target. phase_s gives the wall
    seconds spent resolving proximity, evaluating the sides at the rules'
    nodes, in the two rule evaluations, the probe and the reduction; as
    timings, they take no part in comparing traces."""

    panels_per_round: tuple = ()
    skipped_per_round: tuple = ()
    checks_per_round: tuple = ()
    probed_per_round: tuple = ()
    chunks_per_round: tuple = ()
    radius: tuple = ()
    chart: str = "product"
    k: int = 0
    c: float = 0.0
    deepest_split: int = 0
    max_depth_hit: bool = False
    phase_s: dict = field(default_factory=lambda: dict.fromkeys(_PHASES, 0.0),
                          compare=False)

    def to_dict(self):
        return {"rounds": len(self.panels_per_round),
                "panels_per_round": list(self.panels_per_round),
                "skipped_per_round": list(self.skipped_per_round),
                "checks_per_round": list(self.checks_per_round),
                "probed_per_round": list(self.probed_per_round),
                "chunks_per_round": list(self.chunks_per_round),
                "radius": list(self.radius),
                "chart": self.chart,
                "k": self.k,
                "c": self.c,
                "deepest_split": self.deepest_split,
                "max_depth_hit": self.max_depth_hit,
                "phase_s": dict(self.phase_s)}


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
        """One full turn, about any centre: at tol 1e-4 two half-turns take
        39 panels for pv_lines where one turn takes 36, and 36 for L0 where
        one turn takes 14."""
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


class Shear:
    """The pair chart t1 = sigma, t2 = k sigma + c + delta of two closed
    curves of period 1. For an integer k each sigma row shifts t2 on the
    circle, so the jacobian is 1 and delta over a period covers the torus
    once: k and c change the cost, never the value. k = c = 0 is the
    product chart. The curves' Fourier rows cos_row_j - i sin_row_j (J, 3)
    and constant terms give D = c1(sigma) - c2(t2) (difference), bounds on
    its derivatives (speeds) and c1, c1', c2, c2' at nodes (planes). With
    u_j = c2_j e^{2 pi i j c} and w_j = u_j e^{2 pi i j k sigma},
    c2(t2) = const_b + sum_j Re(w_j e^{2 pi i j delta}), so a matrix maps
    sigma's basis (_expand) to rows in delta's: mix to D's
    [-Re w_j; Im w_j; c1 - const_b], lift to c2's [Re w_j; -Im w_j; const_b]
    and c2''s 2 pi j [-Im w_j; -Re w_j; 0] (cos -> 1 at k = 0), then c1's
    [cos_rows; sin_rows; const_a] and c1''s 2 pi j [sin_rows; -cos_rows; 0]."""

    def __init__(self, k, c, harmonics_a, harmonics_b, const_a, const_b):
        self.k, self.c = int(k), float(c)
        count = max(len(harmonics_a), len(harmonics_b))
        rows = [np.concatenate([h, np.zeros((count - len(h), 3))])
                for h in (harmonics_a, harmonics_b)]
        self.freq = TWO_PI * np.arange(1, count + 1)
        # B1 = sum 2 pi j |c_j| >= |x'| of each curve
        self.norms = [_norms(h) for h in rows]
        self.speed_a, self.speed_b = (float(np.sum(self.freq * n))
                                      for n in self.norms)
        u = rows[1] * np.exp(1j * self.freq * self.c)[:, None]
        a, j, n = rows[0].T, np.arange(count), 2 * count + 1
        cos, sin = (j if self.k else np.full(count, n - 1)), count + j
        re, im = np.zeros((2, 3, count, n))
        re[:, j, cos], re[:, j, sin] = u.real.T, -self.k * u.imag.T
        im[:, j, cos], im[:, j, sin] = u.imag.T, self.k * u.real.T
        # the rows of delta's basis function 1: c1 - const_b (mix), and
        # const_b and 0 (lift)
        last = np.zeros((3, 3, 1, n))
        last[0, :, 0] = np.concatenate(
            [a.real, -a.imag, np.subtract(const_a, const_b)[:, None]], axis=1)
        last[1, :, 0, -1] = const_b
        rate = self.freq[:, None]
        self.mix, lift = (np.concatenate(r, axis=-2).reshape(-1, n)
                          for r in ([-re, im, last[0]], [
                              np.stack([re, -rate * im]),
                              np.stack([-im, -rate * re]), last[1:]]))
        # then, the last six, c1's rows and c1''s
        const = np.reshape(const_a, (3, 1))
        spin = np.append(np.tile(self.freq, 2), 0.0)
        self.lift = np.concatenate([
            lift, np.concatenate([a.real, -a.imag, const], axis=1),
            spin * np.concatenate([-a.imag, -a.real, 0 * const], axis=1)])
        self.curl = float(np.sum(self.freq ** 2 * self.norms[1]))

    def t2(self, sigma, delta):
        """The second curve's parameter at chart points (sigma, delta)."""
        return self.k * sigma + self.c + delta

    def _expand(self, matrix, sigma, delta):
        """matrix times the basis [cos_j; sin_j; 1] of 2 pi j sigma
        (_harmonics), (r,) + sigma.shape, and delta's (P, 2J + 1, m)."""
        count = len(self.freq)
        cos, sin = (h.reshape(-1, count).T for h in _harmonics(
            TWO_PI * np.concatenate([sigma.ravel(), delta.ravel()]), count))
        basis = np.concatenate([cos, sin, np.ones((1, cos.shape[1]))])
        rows = (matrix @ basis[:, :sigma.size]).reshape(-1, *sigma.shape)
        delta = basis[:, sigma.size:].reshape(len(basis), *delta.shape)
        return rows, delta.transpose(1, 0, 2)

    def difference(self, samples):
        """D = c1(sigma) - c2(k sigma + c + delta) on each panel's grid of
        samples[0] (sigma) and samples[1] (delta), (2, P, m): (3, P, m, m),
        sigma along the third axis."""
        rows, delta = self._expand(self.mix, *samples)
        rows = rows.reshape(3, -1, *rows.shape[1:])
        return np.matmul(rows.transpose(0, 2, 3, 1), delta)

    def planes(self, nodes):
        """c1, c1' at sigma and c2, c2' at t2 of every node pair of each
        rule in nodes, a list of (sigma, delta) node arrays (P, n), (P, m):
        per rule, coordinate planes (2, P, 3, n) and (2, P, 3, n, m),
        positions then velocities: one product (lift) for all, and one
        stacked product per rule for c2."""
        rows, delta = self._expand(self.lift, *(
            np.concatenate(x, axis=1) for x in zip(*nodes)))
        first = rows[-6:].reshape(2, 3, *rows.shape[1:]).transpose(0, 2, 1, 3)
        rows = rows[:-6].reshape(2, 3, delta.shape[1], *rows.shape[1:])
        rows = rows.transpose(0, 3, 1, 4, 2)
        cuts = np.cumsum([(0, 0)] + [(s.shape[1], d.shape[1])
                                     for s, d in nodes], axis=0)
        return [(np.ascontiguousarray(first[..., a:b]),
                 np.matmul(rows[..., a:b, :], delta[:, None, :, c:d],
                           order="C"))
                for (a, c), (b, d) in zip(cuts[:-1], cuts[1:])]

    def speeds(self, lo, hi):
        """Bounds (P,) on |dD/dsigma| and |dD/ddelta| over each panel of
        chart bounds lo, hi (P, 2). |dD/ddelta| = |c2'| <= c2's B1. For
        k = +-1, D's sigma harmonics g_j (mix contracted with delta's
        basis) give dD/dsigma = sum_j Re(2 pi i j g_j e^{2 pi i j sigma}),
        and g_j moves by at most 2 pi j H |c2_j| from g_j(mid), mid the
        panel's middle delta and H its larger distance to the panel's delta
        ends: sum_j 2 pi j (|g_j(mid)| + 2 pi j H |c2_j|). k = 0 leaves
        c1's B1."""
        count, j = len(lo), len(self.freq)
        speed_b = np.full(count, self.speed_b)
        if not self.k:
            return np.full(count, self.speed_a), speed_b
        mid = 0.5 * (lo[:, 1] + hi[:, 1])
        reach = np.maximum(mid - lo[:, 1], hi[:, 1] - mid)
        angle = np.multiply.outer(mid, self.freq)
        basis = np.concatenate([np.cos(angle), np.sin(angle),
                                np.ones((count, 1))], axis=1)
        g = np.square(basis @ self.mix.reshape(3, 2 * j + 1, -1))
        gap = np.sqrt(np.sum(g[..., :j] + g[..., j:-1], axis=0))
        return gap @ self.freq + reach * self.curl, speed_b


def _norms(rows):
    """The euclidean norm of each complex 3-vector of rows (..., 3)."""
    return np.sqrt(np.sum(rows.real ** 2 + rows.imag ** 2, axis=-1))


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
    left to halve (_unresolved). It then integrates the pending panels a
    chunk of self.chunk whole panels at a time: each side once, on the
    nodes of both rules of every panel of the chunk (_side_rules; a pair
    run: one Shear.planes call for both sides, _pair_rules), and the
    integrand once per rule. The samples of a check pass or a spatial
    halving take one call per side, whose positions they read, and a
    pass's distances one stacked min_dist call (a pair run: one
    Shear.difference call). Errors, radii and flags are array operations.
    A run with a whole domain (Plane, RealLine) halves a panel refined by
    error along the axis _probe_axes picks and every other panel along its
    longest chart axis, and compares its proximity samples in the bounded
    image of _compress. seconds accumulates the wall time of each phase."""

    def __init__(self, integrand, dom_a, dom_b, cfg, side_a=None, side_b=None,
                 shear=None):
        self.f = integrand
        self.cfg = cfg
        self.doms = (dom_a,) if dom_b is None else (dom_a, dom_b)
        self.sides = (side_a or _identity, side_b or _identity)
        # the curve distance rules need a curve on both sides
        self.curves = dom_b is not None and None not in (side_a, side_b)
        self.shear = shear
        if shear is not None:
            self.radii = ("difference",)
            # side b's node pairs, n^2 + (2n)^2, 3 times over: a Gauss chunk
            # peaks at 131-139 bytes a pair (tracemalloc, 8 to 102 panels),
            # 2.8 MB at order 8
            pairs = 3 * 5 * cfg.panel_order ** 2
        else:
            self.radii = ("sampled", "sampled") if self.curves else ()
            pairs = math.prod(cfg.panel_order ** d.naxes for d in self.doms)
        # whole panels per integration chunk: at most _BLOCK_PAIRS of those
        # node pairs (one panel when a panel has more)
        self.chunk = max(1, _kernels._BLOCK_PAIRS // pairs)
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
        self.seconds = dict.fromkeys(_PHASES, 0.0)

    @contextlib.contextmanager
    def _timed(self, phase):
        """Add the wall time of the block to the phase's seconds."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[phase] += time.perf_counter() - start

    # -- evaluation --------------------------------------------------------

    def _eval_side(self, s, params):
        """Side s's arrays at a parameter array of any shape; each array is
        shaped params.shape + its per-point shape."""
        out = self.sides[s](params.ravel())
        return [np.asarray(a).reshape(params.shape + np.shape(a)[1:])
                for a in out]

    def _points(self, s, params):
        """Real point rows, params.shape + (dim,): the positions of side s,
        its first array, realified."""
        first = np.asarray(self.sides[s](params.ravel())[0])
        return realify(first.reshape(params.shape + (-1,)))

    def _rule(self, s, lo, hi, order):
        """Chart parameters and jacobian-folded weights, both (C, order**k),
        of the order-n tensor Gauss-Legendre rule on side s of each of C
        cells, whose bounds lo and hi (C, k) are on that side's axes."""
        nodes, weights = _gl(order)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        cols = _mesh([mid[:, a, None] + half[:, a, None] * nodes
                      for a in range(lo.shape[1])])
        wgts = _mesh([half[:, a, None] * weights for a in range(lo.shape[1])])
        params, jac = self.doms[s].chart(tuple(cols))
        return params, math.prod(wgts) * jac

    def _side_rules(self, s, lo, hi):
        """Side s under both rules on each panel, from one call of the side
        on the nodes of both, every panel's own in panel order: per rule
        (panel_order, then 2 panel_order), the chart parameters and
        jacobian-folded weights, both (P, n**k), and the side's arrays
        (P, n**k, ...)."""
        lo, hi = lo[:, self.axes[s]], hi[:, self.axes[s]]
        order = self.cfg.panel_order
        rules = [self._rule(s, lo, hi, n) for n in (order, 2 * order)]
        arrays = self._eval_side(s, np.concatenate([p for p, _ in rules],
                                                   axis=1))
        cut = rules[0][0].shape[1]
        return [[*rule, *(np.ascontiguousarray(a[:, part]) for a in arrays)]
                for rule, part in zip(rules, (slice(None, cut),
                                              slice(cut, None)))]

    def _pair_rules(self, lo, hi):
        """Both sides of a pair run under both rules: per rule, sigma (P, n)
        and t2 at each node pair (P, n, n), each with its weights (P, n)
        and the side's arrays, mapped from Shear.planes (one call, no curve
        evaluated)."""
        order = self.cfg.panel_order
        rules = [[self._rule(s, lo[:, s:s + 1], hi[:, s:s + 1], n)
                  for s in (0, 1)] for n in (order, 2 * order)]
        planes = self.shear.planes([(sigma, delta)
                                    for (sigma, _), (delta, _) in rules])
        out = []
        for ((sigma, wa), (delta, wb)), (first, second) in zip(rules, planes):
            t2 = self.shear.t2(sigma[:, :, None], delta[:, None, :])
            # side b first: its finer rule's arrays are the chunk's heap
            # peak, which side a's, made after, then do not raise
            b = [t2, wb, *self.sides[1](*second)]
            out.append([[sigma, wa, *self.sides[0](*first)], b])
        return out

    def _values(self, blocks, lo, hi):
        """Each panel's value under one rule, whose blocks give per side the
        parameters, weights and arrays (_side_rules), from one integrand
        call for the chunk. A non-finite value raises NonFiniteIntegrand
        naming the first non-finite node of its panel or, when every node
        is finite, the overflowing sum."""
        # one errstate for the chunk; an overflow or NaN shows in out below
        with np.errstate(over="ignore", invalid="ignore"):
            out = _panel_sums(self.f, [a for blk in blocks for a in blk[1:]],
                              len(lo))
            for i in np.flatnonzero(~np.isfinite(out))[:1]:
                self._raise_nonfinite(blocks, i, lo[i], hi[i])
        return out

    def _raise_nonfinite(self, blocks, i, lo, hi):
        """Raise NonFiniteIntegrand for panel i (bounds lo, hi), naming its
        first non-finite node, or node pair, in row-major order, or its sum
        when every node is finite. Each node costs one call of the
        integrand on a one-panel round of one node per side, with unit
        weights; in a pair run a node pair names t1 and its own t2."""
        sides = [[a[i] for a in blk[2:]] for blk in blocks]
        one = np.ones((1, 1))
        ranges = [range(blk[1].shape[1]) for blk in blocks]
        for idx in itertools.product(*ranges):
            # each side's node; side b of a pair run has one per node pair
            at = [idx if s and self.shear is not None else idx[s:s + 1]
                  for s in range(len(idx))]
            args = [a for arrays, j in zip(sides, at)
                    for a in (one, *(x[tuple(slice(k, k + 1) for k in j)][None]
                                     for x in arrays))]
            if cmath.isfinite(complex(_panel_sums(self.f, args, 1)[0])):
                continue
            param = tuple(blk[0][i][j] for blk, j in zip(blocks, at))
            if len(param) == 1:
                param = param[0]
            raise NonFiniteIntegrand(
                f"integrand not finite at parameter {param}", param=param)
        raise NonFiniteIntegrand(
            f"weighted sum not finite on the panel from {lo.tolist()} to "
            f"{hi.tolist()}, although every integrand value there is finite")

    def _probe_axes(self, lo, hi):
        """Per panel of a run with a whole domain, the axis to halve it
        along and whether the probe chose it over the longest chart axis
        (module docstring). The probe points of all panels, 1 + 4 per axis
        each, are one-node panels of a single call of each side and of the
        integrand, weighted by the chart jacobians; a panel with a
        non-finite value there keeps its longest chart axis."""
        count, k = lo.shape
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        steps = np.array([_LAMBDA2, -_LAMBDA2, _LAMBDA3, -_LAMBDA3])
        # points[panel, point, chart axis]: the centre, then four per axis
        points = np.repeat(mid[:, None, :], 1 + 4 * k, axis=1)
        for a in range(k):
            points[:, 1 + 4 * a:5 + 4 * a, a] += half[:, a, None] * steps
        flat = points.reshape(-1, k)
        args = []
        for s, ax in enumerate(self.axes):
            params, jac = self.doms[s].chart(tuple(flat[:, ax].T))
            args += [jac[:, None],
                     *(a[:, None] for a in self._eval_side(s, params))]
        with np.errstate(all="ignore"):
            f = _panel_sums(self.f, args, len(flat)).reshape(count, -1)
            twice_c = 2.0 * f[:, :1]
            sides = f[:, 1:].reshape(count, k, 4)
            score = np.abs(sides[..., 0] + sides[..., 1] - twice_c
                           - (_LAMBDA2 / _LAMBDA3) ** 2
                           * (sides[..., 2] + sides[..., 3] - twice_c))
        rows = np.arange(count)
        longest = np.argmax(hi - lo, axis=1)
        top = np.argmax(score, axis=1)
        best, base = score[rows, top], score[rows, longest]
        probed = ((best >= _SPLIT_FACTOR * base) & (best > base)
                  & np.isfinite(f).all(axis=1))
        return np.where(probed, top, longest), probed

    # -- geometry ----------------------------------------------------------

    def _split_axes(self, lo, hi):
        """Per panel, the axis to halve when no probe chose one: in a run
        with a whole domain, the longest chart axis; otherwise the axis of
        largest spatial extent, the bounding-box diagonal of the points at
        the axis ends and midpoint, other axes at their midpoints; in a pair
        run, _pair_field's, as in the check pass."""
        if self.whole:
            return np.argmax(hi - lo, axis=1)
        if self.shear is not None:
            return self._pair_field(lo, hi)[1]
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
            extents.append(_extents(self._points(s, params)))
        return np.argmax(np.concatenate(extents, axis=1), axis=1)

    def _pair_grids(self, lo, hi):
        """Sigma and delta samples lo + width i / (m - 1), (2, P, m)."""
        m = self.cfg.panel_order + 1
        steps = np.arange(m) / (m - 1)
        return lo.T[..., None] + (hi - lo).T[..., None] * steps

    def _pair_field(self, lo, hi):
        """D on each pair-run panel's m x m check grid (Shear.difference),
        and per panel the axis along which D spreads more at the ends and
        middle of its middle row and column."""
        field = self.shear.difference(self._pair_grids(lo, hi))
        mid = field.shape[-1] // 2
        ends = [0, mid, -1]
        # [varied axis, coordinate, panel, sample] -> (P, axes, samples, 3)
        cross = np.stack([field[..., ends, mid], field[..., mid, ends]])
        return field, np.argmax(_extents(cross.transpose(2, 0, 3, 1)), axis=1)

    def _unresolved(self, lo, hi):
        """Per panel, True while the sampled pieces of the two curves could
        touch, and the axes to halve them along (None, or in a pair run
        those of _pair_field): while the closest sampled approach is at
        most the sum of the pieces' covering radii, half their samples'
        largest gaps (_sample_pieces), a close approach narrower than the
        node spacing can hide between all nodes. Each side is sampled, and
        its radii found, on every panel's own grid, from one call of the
        side; a sampled approach below _MIN_DIST raises CurvesTooClose. In
        a run with a whole domain the samples stop at each chart's reach
        and are compared compressed (_compress); the guard reads the true
        distances of the panels whose compressed ones are below _MIN_DIST,
        all that can be, as _compress is 1-Lipschitz."""
        if self.shear is not None:
            return self._pair_unresolved(lo, hi)
        m = self.cfg.panel_order + 1
        if self.whole:
            lo, hi = (np.clip(x, *self.reach) for x in (lo, hi))
        pieces, points = [], []
        for s, ax in enumerate(self.axes):
            grid = [np.linspace(lo[:, a], hi[:, a], m, axis=-1)
                    for a in range(ax.start, ax.stop)]
            params, _ = self.doms[s].chart(tuple(_mesh(grid)))
            pts = self._points(s, params)
            pieces.append(self._sample_pieces(self._compress(pts), m,
                                              len(grid)))
            points.append(pts)
        (pts_a, cover_a), (pts_b, cover_b) = pieces
        dists = _kernels.min_dist(pts_a, pts_b)
        true = dists
        if self.whole:
            near = dists < _MIN_DIST
            true = _kernels.min_dist(*(p[near] for p in points))
        _guard(true)
        return dists <= cover_a + cover_b, None

    def _pair_unresolved(self, lo, hi):
        """_unresolved in a pair run, from D on each panel's m x m grid,
        m = panel_order + 1, |D|^2 summed one coordinate at a time. Every
        point of the panel is within h / 2 of a sample along each axis, h
        the grid steps, so within (h_sigma B_sigma + h_delta B_delta) / 2 of
        it in D (Shear.speeds): a panel whose smallest sampled |D| exceeds
        that is proved clear."""
        field, axes = self._pair_field(lo, hi)
        square = np.sum(field ** 2, axis=0).reshape(len(lo), -1)
        dists = np.sqrt(square.min(axis=1))
        _guard(dists)
        speed_sigma, speed_delta = self.shear.speeds(lo, hi)
        step = (hi - lo) / (field.shape[-1] - 1)
        cover = 0.5 * (step[:, 0] * speed_sigma + step[:, 1] * speed_delta)
        return dists <= cover, axes

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
        checks the panels not yet found resolved and halves, unintegrated,
        those still unresolved and short of max_depth, whose error is
        unknown anyway; the next pass checks their halves. The passes end
        when no panel is left to halve. In a pair run a panel is cut along
        the axis its check pass read off its samples."""
        ready, halved, passes = [], 0, 0
        while True:
            check = np.flatnonzero(pending.unresolved)
            if not check.size:
                break
            bounds = pending.bounds[check]
            flags, axes = self._unresolved(bounds[..., 0], bounds[..., 1])
            pending.unresolved[check] = flags
            passes += 1
            split = pending.unresolved & (pending.splits < self.cfg.max_depth)
            if not split.any():
                break
            ready.append(pending.take(~split))
            halved += int(split.sum())
            if axes is not None:
                axes = axes[split[check]]
            pending = self._halves(pending.take(split), axes)
        return _Panels.join([*ready, pending]), halved, passes

    def _evaluate(self, pending):
        """The pending panels, resolved (_resolve), so curves that meet fail
        as CurvesTooClose before any integrand call of the round, and then
        integrated: each panel's value (the finer rule) and error (against
        the coarser one), with the numbers of panels halved unintegrated,
        check passes and chunks. The chunks of self.chunk whole panels do
        not change the values, since each panel's sum is its own."""
        with self._timed("resolve"):
            pending, halved, passes = self._resolve(pending)
        parts = []
        for start in range(0, len(pending.bounds), self.chunk):
            bounds = pending.bounds[start:start + self.chunk]
            lo, hi = bounds[..., 0], bounds[..., 1]
            with self._timed("sides"):
                rules = (self._pair_rules(lo, hi) if self.shear is not None
                         else list(zip(*(self._side_rules(s, lo, hi)
                                         for s in range(len(self.doms))))))
            with self._timed("rules"):
                parts.append([self._values(blocks, lo, hi)
                              for blocks in rules])
            del rules  # one chunk's node arrays at a time
        coarse, value = (np.concatenate(p) for p in zip(*parts))
        diff = value - coarse
        # the bits of abs(complex), which np.abs does not always give
        err = np.hypot(diff.real, diff.imag)
        return (pending._replace(value=value, err=err), halved, passes,
                len(parts))

    def _halves(self, panels, axis=None):
        """Both halves of each panel, cut along the given axis per panel or,
        by default, its _split_axes axis; they inherit its unresolved
        flag."""
        bounds = panels.bounds
        rows = np.arange(len(bounds))
        if axis is None:
            axis = self._split_axes(bounds[..., 0], bounds[..., 1])
        mid = 0.5 * (bounds[rows, axis, 0] + bounds[rows, axis, 1])
        halves = np.concatenate([bounds, bounds])
        halves[rows, axis, 1] = mid
        halves[len(rows) + rows, axis, 0] = mid
        return _Panels(halves, np.concatenate([panels.splits] * 2) + 1,
                       np.concatenate([panels.unresolved] * 2))

    def _initial(self):
        """The pending initial cells: products of the domains' cells."""
        bounds = np.array([sum(c, ()) for c in itertools.product(
            *(d.initial_cells() for d in self.doms))], dtype=float)
        return _Panels(bounds, np.zeros(len(bounds), dtype=int),
                       np.full(len(bounds), self.curves))

    def run(self):
        """Refine until the summed panel error is within tol of the total
        and no panel is unresolved. Each round resolves proximity and
        integrates its pending panels (_evaluate): each side once and the
        integrand twice per chunk, and both once more for the split probe
        (_probe_axes) of a whole-domain round that refines by error; the
        batch check adds one call per run. A round failing the stop test
        halves the panels _marked by their errors against the target
        tol * max(1, |total|), and every unresolved panel, short of
        max_depth; it stops unconverged when nothing is left to halve or
        the panels at max_depth alone hold more error than the target.
        panels_evaluated counts the integrated panels, not those halved
        while resolving. Only a positive error makes a panel hot, so an
        integrand that vanishes everywhere refines nothing by error."""
        pending = self._initial()
        done = None
        rounds, skipped, checks, probed, chunks = [], [], [], [], []
        depth_hit = converged = False
        while True:
            panels, halved, passes, parts = self._evaluate(pending)
            rounds.append(len(panels.bounds))
            skipped.append(halved)
            checks.append(passes)
            chunks.append(parts)
            probed.append(0)
            with self._timed("reduce"):
                if done is not None:
                    panels = _Panels.join([done, panels])
                # bounds rows flatten to the (lo, hi) per axis sort key
                flat = panels.bounds.reshape(len(panels.bounds), -1)
                panels = panels.take(np.lexsort(flat.T[::-1]))
                total = complex(pairwise_tree_sum(panels.value))
                err = float(pairwise_tree_sum(panels.err))
            target = self.cfg.tol * max(1.0, abs(total))
            if err <= target and not panels.unresolved.any():
                converged = True
                break
            hot = _marked(panels.err, target) | panels.unresolved
            at_max = panels.splits >= self.cfg.max_depth
            # no round refines the error held at max_depth away
            held = float(np.sum(panels.err[at_max])) > target
            depth_hit = depth_hit or held or bool(np.any(hot & at_max))
            refine = hot & ~at_max
            if held or not refine.any():
                break  # report converged=False
            done = panels.take(~refine)
            split = panels.take(refine)
            axis = None
            if self.whole:
                with self._timed("probe"):
                    axis, chosen = self._probe_axes(split.bounds[..., 0],
                                                    split.bounds[..., 1])
                probed[-1] = int(chosen.sum())
            pending = self._halves(split, axis)
        k, c = ((0, 0.0) if self.shear is None
                else (self.shear.k, self.shear.c))
        trace = QuadTrace(panels_per_round=tuple(rounds),
                          skipped_per_round=tuple(skipped),
                          checks_per_round=tuple(checks),
                          probed_per_round=tuple(probed),
                          chunks_per_round=tuple(chunks),
                          radius=self.radii,
                          chart="shear" if k else "product", k=k, c=c,
                          deepest_split=int(panels.splits.max()),
                          max_depth_hit=depth_hit,
                          phase_s=dict(self.seconds))
        return QuadResult(value=total, err_estimate=err,
                          panels_evaluated=sum(rounds), converged=converged,
                          trace=trace)


def _extents(pts):
    """Per panel and axis, the bounding-box diagonal of points
    (P, axes, samples, dim)."""
    return np.linalg.norm(pts.max(axis=2) - pts.min(axis=2), axis=-1)


def _guard(dists):
    """Raise CurvesTooClose when a sampled distance is below _MIN_DIST."""
    close = dists[dists < _MIN_DIST]
    if close.size:
        raise CurvesTooClose(f"minimum sampled curve distance "
                             f"{close.min():.3e} < {_MIN_DIST:.0e}")


def _marked(err, target):
    """Per panel, whether its error marks it for refinement: the shortest
    prefix of the panels with positive error, largest error first (ties in
    positional order), whose removal leaves a summed error of at most
    target; at least the largest one when the pairwise sum of err exceeds
    target, which a cumulative sum can round under."""
    order = np.argsort(-err, kind="stable")
    # rest[m]: the summed error left once the m largest are refined
    rest = np.cumsum(err[order][::-1])[::-1]
    count = int(np.count_nonzero(rest > target))
    if count == 0 and pairwise_tree_sum(err) > target:
        count = 1
    marked = np.zeros(len(err), dtype=bool)
    marked[order[:count]] = True
    return marked


def _panel_sums(f, args, count):
    """f's weighted panel sums on a round of count panels, whose stacked
    weights and arrays are args: a (count,) complex array. Anything else
    raises TypeError naming its shape."""
    sums = np.asarray(f(*args))
    if sums.shape != (count,):
        raise TypeError("integrand must return one weighted sum per panel, "
                        f"shape ({count},); got shape {sums.shape}")
    return sums.astype(complex, copy=False)


def _check_batch(f, side_a, side_b=None, shear=None):
    """Raise TypeError unless f maps a one-panel round, unit weights and
    side_a's arrays at 2 parameters (with side_b, both sides', side_b's at
    3, or with shear at 2 sigma nodes and 2 x 3 node pairs) to its
    weighted sum, a (1,) array. Calls f once; only the shape is checked,
    so an overflow is ignored."""
    a, b = np.array([[0.123, 0.456]]), np.array([[0.234, 0.567, 0.891]])
    if shear is not None:
        first, second = shear.planes([(a, b)])[0]
        args = [np.ones(a.shape), *side_a(*first),
                np.ones(b.shape), *side_b(*second)]
    else:
        args = [x for t, side in ((a, side_a), (b, side_b)) if side
                for x in (np.ones(t.shape),
                          *(np.asarray(y)[None] for y in side(t[0])))]
    with np.errstate(over="ignore", invalid="ignore"):
        _panel_sums(f, args, 1)


def per_panel(kernel):
    """The round integrand of a per-panel kernel: kernel(w, *side) (with two
    domains, kernel(wa, *side_a, wb, *side_b)) takes one panel's weights
    and arrays and returns that panel's weighted sum, a scalar. It is
    called once per panel of the round."""
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


def integrate_product(integrand, dom_a, dom_b, cfg, side_a=None, side_b=None,
                      shear=None):
    """Integrate the integrand over dom_a x dom_b.

    A side maps a parameter array to a tuple of arrays, curve positions
    first (default: the parameters alone, with no curve), whose positions
    the engine's samples read. The integrand is called once per rule per
    chunk of a round as f(wa, *side_a_arrays, wb, *side_b_arrays),
    stacked over the chunk's P panels: wa (P, na) and wb
    (P, nb) are the jacobian-folded weights and each array is (P, na, ...)
    or (P, nb, ...). It returns the (P,) weighted panel sums, each panel's
    wa @ K @ wb of its pair values K, which it need not form; anything but
    a (P,) array raises TypeError. per_panel adapts a kernel written for
    one panel's slices. On compact domains positions measure panel extents
    for the split axis. With both sides given, panels whose curve pieces
    could touch are halved, before any of the round's integrand calls,
    until the samples resolve the gap; those samples raise CurvesTooClose
    where the curves come within 1e-6. Plane and RealLine are integrated
    whole. A Shear, with closed curve sides on dom_a = [0, 1] and a period
    dom_b of delta, makes this a pair run: its sides map Shear.planes to
    arrays (P, na, ...) and (P, na, nb, ...) at t2 = k sigma + c + delta
    of each node pair, and wb the delta weights.
    """
    _check_batch(integrand, side_a or _identity, side_b or _identity, shear)
    return _Engine(integrand, dom_a, dom_b, cfg, side_a, side_b, shear).run()


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
    than one puncture on one plane. The integrand is trusted to have at
    most simple poles there: the caller decides each pole's order from its
    own data (for a rational form, holo_linking_integral reads it off the
    polynomials).
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
