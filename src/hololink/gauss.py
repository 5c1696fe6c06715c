"""Real linking number three ways: the Gauss double integral, signed
crossings of a generic planar projection, and the closed form for lines.

Orientation convention: the standard Hopf pair links +1 and standard skew
basis lines give +1/2. The kernel grid in _kernels carries the matching
det3(y-x, dx, dy) ordering; gauss_integrand below is its single-pair case
in the opposite (x-y) ordering, which is the form the pointwise examples
pin down.

The integral route evaluates that kernel as a product of Plucker rows
[dx, m_x] and [m_y, dy]. Each curve side returns the moments
m = (p - o) x dp of its nodes about one origin o shared by both curves (the
mean of their generic points), so the moments of a whole refinement round
come with the side call that evaluates the round's nodes.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (CoincidentPoints, DegenerateConfiguration,
                     DegenerateProjection, MethodInapplicable)
from .geometry import det3
from .quadrature import Interval, generic_params, integrate_product

DEFAULT_DIRECTION = np.array([0.123, 0.456, 1.0])
_CROSSING_ORIENTATION = -0.5  # half the signed sum, flipped to match Hopf -> +1


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
    return -float(_kernels.gauss_grid(x, dx, y, dy)[0, 0])


def _real_points(curve, params):
    pts, vel = curve.eval_batch(params)
    if np.iscomplexobj(pts):
        pts = np.ascontiguousarray(pts.real)
        vel = np.ascontiguousarray(vel.real)
    return pts, vel


def _plucker_side(curve, origin):
    """The curve's side for the Gauss kernel: points, velocities and their
    moments about the shared origin, formed once per call for every node
    of a refinement round."""
    def side(params):
        pts, vel = _real_points(curve, params)
        return pts, vel, _kernels._cross(pts - origin, vel)
    return side


def _gauss_kernel(wa, x, dx, mx, wb, y, dy, my):
    # looked up at call time, so a wrapper installed on the module sees
    # every kernel call
    return wa @ _kernels.gauss_grid(x, dx, y, dy, mx, my) @ wb


def _gauss_domain(curve):
    if curve.kind == "real_closed":
        return Interval(0.0, 1.0)
    if curve.is_real_line:
        return Interval(-curve.window, curve.window, truncated=True)
    raise MethodInapplicable(
        "gauss_linking needs two real_closed curves or two real lines")


def gauss_linking(curve1, curve2, cfg):
    """Gauss linking integral of two disjoint real curves.

    Closed curves integrate over [0,1]^2; real lines, each over the window
    [-R, R] of its declared disk radius R, in one run over the doubled
    window, whose outer cells give the tail, extrapolated with 1/R decay.
    The value is within err_estimate of an integer for closed pairs and a
    half-integer for lines.
    """
    if curve1.kind != curve2.kind:
        raise MethodInapplicable("gauss_linking needs a matching real pair")
    dom1 = _gauss_domain(curve1)
    dom2 = _gauss_domain(curve2)
    # one moment origin for both curves: the mean of their generic points
    origin = np.mean([_real_points(c, generic_params(d))[0].mean(axis=0)
                      for c, d in ((curve1, dom1), (curve2, dom2))], axis=0)

    return integrate_product(
        _gauss_kernel, dom1, dom2, cfg,
        side_a=_plucker_side(curve1, origin),
        side_b=_plucker_side(curve2, origin),
        decay_order=1)


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
        object.__setattr__(self, "vertices", v)
        if v.shape[0] < 3:
            raise ValueError("polyline needs at least 3 distinct vertices")
        nxt = np.roll(v, -1, axis=0)
        if np.any(np.linalg.norm(nxt - v, axis=1) == 0.0):
            raise ValueError("polyline has coincident consecutive vertices")

    @classmethod
    def from_curve(cls, curve, n=512):
        params = np.linspace(0.0, 1.0, n, endpoint=False)
        pts, _ = curve.eval_batch(params)
        return cls(np.asarray(pts, dtype=float))


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


def crossing_linking(p1, p2, direction=None, seed=0, max_tries=16):
    """Linking number as half the signed sum over projected crossings.

    Projects both polylines along `direction` (default (0.123, 0.456, 1)
    normalized), enumerates all segment-pair crossings, signs them by
    orientation and over/under depth. A degenerate projection (parallel
    overlap, vertex on a segment, equal depths) is retried with
    deterministic perturbations drawn from numpy's default_rng(seed);
    DegenerateProjection is raised when the attempts are exhausted.
    """
    v1 = np.ascontiguousarray(p1.vertices, dtype=np.float64)
    v2 = np.ascontiguousarray(p2.vertices, dtype=np.float64)
    base = DEFAULT_DIRECTION if direction is None else np.asarray(direction, dtype=float)
    rng = np.random.default_rng(seed)
    direction_try = base
    for _ in range(max_tries):
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
        f"no generic projection direction found in {max_tries} attempts")
