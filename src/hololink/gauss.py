"""Real linking number three ways: the Gauss double integral, signed
crossings of a generic planar projection, and the closed form for lines.

Orientation convention: the standard Hopf pair links +1 and standard skew
basis lines give +1/2. The kernel grid in _kernels carries the matching
det3(y-x, dx, dy) ordering; gauss_integrand below is its single-pair case
in the opposite (x-y) ordering, which is the form the pointwise examples
pin down.

The integral route evaluates that kernel as a product of Plucker rows
[dx | m_x] and [m_y | dy], with the moments m = (p - o) x dp taken about
one origin o shared by both curves (the mean of their generic points).
Each curve side forms the rows of its nodes, so the rows of a chunk of a
refinement round come with the one side call that evaluates the chunk's
nodes, and each per-panel kernel call only slices them. The kernel calls
read coordinate-major clouds and write their grids in place, and the
chunk's weights are contracted against those grids by two stacked matrix
products per block of panels (_gauss_integrand).

A closed pair is integrated on its pair chart (_closed_pair_shear):
t2 = k t1 + c + delta, k the degree of the closest-point map when it is
+-1 and c the circular mean of the sampled offsets, so that strands that
run close along t2 ~ t1 + c lie along one chart axis, which axis-aligned
panels follow; every other pair takes k = 0, the product chart. Side b is
then evaluated at every node pair, each kernel call gets a per-row second
cloud, and the engine certifies its proximity check from the curves'
Fourier coefficients (quadrature.Shear).

The crossing route samples each curve's positions alone
(Polyline3.from_curve) and sums the signed crossings of the projected
segment pairs whose bounding boxes overlap, found by a sorted sweep
(_kernels.crossing_sum). certified_polylines chooses the sample count: a
closed curve's Fourier bound on |x''| bounds how far each chord sags from
its arc, and the count doubles until the polylines are farther apart than
twice the two sags, so that moving each polyline onto its curve cannot
make them meet and their linking number is the curves'.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import _kernels
from .errors import (CoincidentPoints, CurvesTooClose,
                     DegenerateConfiguration, DegenerateProjection,
                     MethodInapplicable)
from .geometry import TWO_PI, det3
from .quadrature import (_MIN_DIST, Interval, RealLine, Shear, Side,
                         generic_params, integrate_product)

DEFAULT_DIRECTION = np.array([0.123, 0.456, 1.0])
_CROSSING_ORIENTATION = -0.5  # half the signed sum, flipped to match Hopf -> +1
CROSSING_TRIES = 16  # projection directions crossing_linking tries
CROSSING_SAMPLES = 512  # certified_polylines starts from this many samples
CROSSING_MAX_SAMPLES = 1 << 16  # and doubles them up to this
SHEAR_SAMPLES = 256  # _closed_pair_shear reads the closest-point map on these


def gauss_integrand(x, dx, y, dy):
    """Gauss kernel det3(x-y, dx, dy) / (4 pi |x-y|^3) at one pair of points.

    The single-pair case of _kernels.gauss_grid, with its y-x orientation
    flipped. Raises CoincidentPoints when x = y.
    """
    x, dx, y, dy = (np.asarray(a, dtype=float).reshape(1, 3)
                    for a in (x, dx, y, dy))
    r = x - y
    if np.sum(r * r) < 1e-28:
        raise CoincidentPoints("gauss_integrand evaluated at x = y")
    centre = 0.5 * (x + y)
    return -float(_kernels.gauss_grid(
        x, _kernels.plucker_rows(x, dx, centre, True),
        y, _kernels.plucker_rows(y, dy, centre, False))[0, 0])


def _real(a):
    """The real part of a real line's complex values; real values as given."""
    return np.ascontiguousarray(a.real) if np.iscomplexobj(a) else a


def _real_points(curve, params):
    return tuple(map(_real, curve.eval_batch(params)))


def _plucker_side(curve, origin, first):
    """The curve's side for the Gauss kernel: points and their Plucker rows
    about the shared origin, [dx | m] for the first curve and [m | dy] for
    the second, formed once per call for every node of a refinement
    round; its positions path evaluates no velocity."""
    def side(params):
        pts, vel = _real_points(curve, params)
        return pts, _kernels.plucker_rows(pts, vel, origin, first)
    return Side(side, lambda params: _real(curve.positions(params)))


def _coordinate_major(c):
    """Points c (P, ..., 3) as a view of C-contiguous (P, 3, ...) memory."""
    inner = tuple(range(1, c.ndim - 1))
    return np.ascontiguousarray(c.transpose(0, c.ndim - 1, *inner)).transpose(
        0, *(a + 1 for a in inner), 1)


def _gauss_integrand(wa, x, rows_x, wb, y, rows_y):
    """The round's weighted panel sums wa @ G @ wb: one gauss_grid call per
    panel, looked up at call time so that a wrapper installed on the module
    sees every call, and the weights of a block of panels contracted by two
    stacked matrix products, which give each panel the bits of its own
    wa @ G @ wb. A block holds at most _kernels._BLOCK_PAIRS pairs. The
    second side's clouds are (P, m, 3) in a product run and (P, n, m, 3),
    per row, in a pair run.

    Each block's clouds are transposed once into coordinate-major memory,
    so each panel's cloud is a view that gauss_grid reads as contiguous
    coordinate planes, and each kernel call writes its grid straight into
    the block."""
    count, n, m = len(wa), wa.shape[1], wb.shape[1]
    step = max(1, _kernels._BLOCK_PAIRS // (n * m))
    grids = np.empty((min(step, count), n, m))
    out = np.empty(count)
    for start in range(0, count, step):
        part = slice(start, min(start + step, count))
        block = grids[:part.stop - start]
        xs, ys = (_coordinate_major(c[part]) for c in (x, y))
        panels = zip(xs, rows_x[part], ys, rows_y[part])
        for grid, args in zip(block, panels):
            _kernels.gauss_grid(*args, out=grid)
        out[part] = np.matmul(np.matmul(wa[part, None], block),
                              wb[part, :, None])[:, 0, 0]
    return out


def _gauss_domain(curve):
    if curve.kind == "real_closed":
        return Interval(0.0, 1.0)
    if curve.is_real_line:
        return RealLine()
    raise MethodInapplicable(
        "gauss_linking needs two real_closed curves or two real lines")


def _closed_pair_shear(curve1, curve2):
    """The pair chart t2 = k t1 + c + delta of two real_closed curves
    (quadrature.Shear): k is the degree of the closest-point map
    t1 -> argmin_t2 |c1(t1) - c2(t2)|, read on SHEAR_SAMPLES parameters of
    each curve, when it is +-1 and 0 otherwise; c is the circular mean of
    the sampled offsets t2 - k t1 (0 when k = 0, the product chart)."""
    samples = SHEAR_SAMPLES
    t = curve1.sample_params(samples)
    near = np.argmin(_kernels._squared_distances(
        *(_real(c.positions(t)) for c in (curve1, curve2))), axis=1)
    # each step of the map, wrapped onto the circle of samples
    step = np.diff(near, append=near[:1])
    step = np.where(step > samples // 2, step - samples,
                    np.where(step < -(samples // 2), step + samples, step))
    k = int(np.sum(step)) // samples
    c = 0.0
    if abs(k) == 1:
        angle = TWO_PI / samples * (near - k * np.arange(samples))
        c = math.atan2(np.sum(np.sin(angle)), np.sum(np.cos(angle))) / TWO_PI
    else:
        k = 0
    return Shear(k, c, *(cv.cos_rows - 1j * cv.sin_rows
                         for cv in (curve1, curve2)))


def gauss_linking(curve1, curve2, cfg):
    """Gauss linking integral of two disjoint real curves.

    Closed curves integrate over the torus on their pair chart
    (_closed_pair_shear): t1 over [0, 1] and t2 = k t1 + c + delta, delta
    over [-1/2, 1/2] when the curves run along each other (k = +-1) and
    over [0, 1] otherwise; the chart's jacobian is 1. Real lines integrate
    each over the whole line on quadrature.RealLine's compact chart, with
    no window and no tail. The value is within err_estimate of an integer
    for closed pairs and a half-integer for lines.
    """
    if curve1.kind != curve2.kind:
        raise MethodInapplicable("gauss_linking needs a matching real pair")
    dom1 = _gauss_domain(curve1)
    dom2 = _gauss_domain(curve2)
    # one moment origin for both curves: the mean of their generic points
    origin = np.mean([_real_points(c, generic_params(d))[0].mean(axis=0)
                      for c, d in ((curve1, dom1), (curve2, dom2))], axis=0)
    shear = None
    if curve1.kind == "real_closed":
        shear = _closed_pair_shear(curve1, curve2)
        if shear.k:
            dom2 = Interval(-0.5, 0.5)

    return integrate_product(
        _gauss_integrand, dom1, dom2, cfg,
        side_a=_plucker_side(curve1, origin, True),
        side_b=_plucker_side(curve2, origin, False), shear=shear)


def line_gauss_closed(e1, e2, e3):
    """Closed-form linking of skew lines: 1/2 * sign(det3(e1, e2, e3)).

    e1, e2 are the line directions, e3 the offset between base points.
    """
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    e3 = np.asarray(e3, dtype=float)
    d = float(det3(e1, e2, e3))
    scale = (np.linalg.norm(e1) * np.linalg.norm(e2) * np.linalg.norm(e3))
    if abs(d) <= 1e-12 * max(scale, 1e-300):
        raise DegenerateConfiguration(
            "lines intersect or are parallel (det3 = 0)")
    return 0.5 * np.sign(d)


# ---------------------------------------------------------------------------
# crossing route

@dataclass(frozen=True)
class Polyline3:
    """Closed polyline: vertices (n, 3); the segment n-1 -> 0 closes it."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        if v.shape[0] >= 2 and np.allclose(v[0], v[-1]):
            v = v[:-1]
        object.__setattr__(self, "vertices", _loop_vertices(v))

    @classmethod
    def from_curve(cls, curve, n=512):
        """The polyline on the curve's samples at t = k/n, k < n.

        All n samples are vertices, so every chord spans the parameter
        step 1/n: t = 1 is left out, and a last sample that allclose puts
        on the first (a fine sampling far from the origin) is kept, not
        stripped as a repeated closing vertex."""
        params = np.linspace(0.0, 1.0, n, endpoint=False)
        pl = object.__new__(cls)
        object.__setattr__(pl, "vertices", _loop_vertices(
            np.asarray(curve.positions(params), dtype=float)))
        return pl


def _loop_vertices(v):
    """v, checked as the vertices of a closed polyline."""
    if not np.isfinite(v).all():
        raise ValueError("polyline has a non-finite vertex")
    if v.shape[0] < 3:
        raise ValueError("polyline needs at least 3 distinct vertices")
    nxt = np.roll(v, -1, axis=0)
    if np.any(np.linalg.norm(nxt - v, axis=1) == 0.0):
        raise ValueError("polyline has coincident consecutive vertices")
    return v


def certified_polylines(curve1, curve2):
    """Polylines of two real_closed curves on n evenly spaced parameters
    each (Polyline3.from_curve), with n doubled from CROSSING_SAMPLES
    until they certify the curves' linking number, and that n:
    (p1, p2, n).

    A chord of parameter step h = 1/n lies within h^2 B / 8 of its arc, B
    the curve's Fourier bound on |x''| (ParamCurve.derivative_bound), at
    every parameter. Once the two sags sum to less than half the polylines'
    minimum distance (_kernels.polyline_dist), sliding each polyline onto
    its curve along those parameters keeps the two apart, so the polylines
    link as the curves do. The polylines' distance plus the sags bounds the
    curves' distance from above; CurvesTooClose is raised as soon as that
    bound falls below 1e-6, and when CROSSING_MAX_SAMPLES samples still do
    not certify the pair."""
    bends = curve1.derivative_bound(2) + curve2.derivative_bound(2)
    n = CROSSING_SAMPLES
    while True:
        p1, p2 = (Polyline3.from_curve(c, n) for c in (curve1, curve2))
        sag = bends / (8.0 * n * n)
        gap = _kernels.polyline_dist(p1.vertices, p2.vertices, 2.0 * sag)
        if gap + sag < _MIN_DIST:
            raise CurvesTooClose(
                f"the curves come within {gap + sag:.3e} < {_MIN_DIST:.0e}: "
                f"their polylines on {n} samples are {gap:.3e} apart, with "
                f"chord sags summing to {sag:.3e}")
        if sag < 0.5 * gap:
            return p1, p2, n
        if n >= CROSSING_MAX_SAMPLES:
            raise CurvesTooClose(
                f"the curves' polylines on {n} samples come within {gap:.3e}, "
                f"with chord sags summing to {sag:.3e}, too close to "
                "certify their crossings")
        n *= 2


def _projection_frame(direction):
    d = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(d)
    if norm == 0.0:
        raise DegenerateProjection("zero projection direction")
    d = d / norm
    seed_axis = np.array([1.0, 0.0, 0.0])
    if abs(d @ seed_axis) > 0.9:
        seed_axis = np.array([0.0, 1.0, 0.0])
    u = np.cross(d, seed_axis)
    u /= np.linalg.norm(u)
    v = np.cross(d, u)
    return u, v, d


def crossing_linking(p1, p2, direction=None, seed=0):
    """Linking number as half the signed sum over projected crossings.

    Projects both polylines along `direction` (default (0.123, 0.456, 1)
    normalized), enumerates all segment-pair crossings, signs them by
    orientation and over/under depth. A degenerate projection (parallel
    overlap, vertex on a segment, equal depths) is retried with
    deterministic perturbations drawn from numpy's default_rng(seed);
    DegenerateProjection is raised after CROSSING_TRIES directions.
    """
    v1 = np.ascontiguousarray(p1.vertices, dtype=np.float64)
    v2 = np.ascontiguousarray(p2.vertices, dtype=np.float64)
    base = DEFAULT_DIRECTION if direction is None else np.asarray(direction, dtype=float)
    rng = np.random.default_rng(seed)
    direction_try = base
    for _ in range(CROSSING_TRIES):
        u, v, d = _projection_frame(direction_try)
        proj1 = np.ascontiguousarray(np.stack([v1 @ u, v1 @ v], axis=-1))
        proj2 = np.ascontiguousarray(np.stack([v2 @ u, v2 @ v], axis=-1))
        total, degenerate = _kernels.crossing_sum(proj1, v1 @ d, proj2, v2 @ d)
        if not degenerate:
            value = _CROSSING_ORIENTATION * total
            rounded = int(round(value))
            if abs(value - rounded) < 1e-9:
                return rounded
        direction_try = base + rng.normal(scale=0.05, size=3)
    raise DegenerateProjection(
        f"no generic projection direction found in {CROSSING_TRIES} attempts")
