"""Scene data model: curves, forms, cuts, constants, and the small exact
operations (det3, pairing, polynomial algebra) the routes are built from.

Curves come in two kinds. `real_closed` curves are trigonometric polynomials
t in [0,1) -> R^3 stored as coefficient tables, so velocities are exact.
`complex_affine` curves are triples of univariate polynomials u -> C^3 over
the whole parameter plane or an explicit rectangle.
Polynomials are plain ascending numpy coefficient arrays throughout.
"""

import cmath
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
import math

import numpy as np
from numpy.polynomial.polyutils import trimseq

from .errors import ParamAtPuncture, ParamOutOfDomain, SceneInvalid

TWO_PI = 2.0 * math.pi


def det3(a, b, c):
    """Determinant of the 3x3 matrix with rows a, b, c.

    Broadcasts over leading axes; works for real or complex inputs.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    c = np.asarray(c)
    return (
        a[..., 0] * (b[..., 1] * c[..., 2] - b[..., 2] * c[..., 1])
        - a[..., 1] * (b[..., 0] * c[..., 2] - b[..., 2] * c[..., 0])
        + a[..., 2] * (b[..., 0] * c[..., 1] - b[..., 1] * c[..., 0])
    )


def realify(points):
    """View complex (n,3) points as real (n,6) for distance geometry."""
    points = np.asarray(points)
    if np.iscomplexobj(points):
        return np.concatenate([points.real, points.imag], axis=-1)
    return points


# ---------------------------------------------------------------------------
# univariate polynomial helpers (ascending coefficient arrays)

def poly_trim(c, tol=0.0):
    c = np.array(c, dtype=complex, ndmin=1, copy=None)
    if c.size <= 1 or (tol == 0.0 and c[-1] != 0):
        return c  # nothing to trim, whatever the scale
    scale = np.max(np.abs(c))
    keep = c.size
    while keep > 1 and abs(c[keep - 1]) <= tol * scale:
        keep -= 1
    return c[:keep]


def poly_deg(c):
    c = poly_trim(c)
    if c.size == 1 and c[0] == 0:
        return -1
    return c.size - 1


def poly_eval(x, c):
    """c(x) for ascending coefficients c along axis 0, by Horner's rule:
    the operations of numpy.polynomial.polynomial.polyval(x, c,
    tensor=False), c[-1] + x * 0 and then c[-i] + c0 * x, without its
    per-call argument handling. x is a scalar or an array; the trailing
    axes of c broadcast against x."""
    c0 = c[-1] + x * 0
    for i in range(2, len(c) + 1):
        c0 = c[-i] + c0 * x
    return c0


def poly_der(c):
    """Derivative of ascending coefficients c along axis 0, with the bits
    of numpy.polynomial.polynomial.polyder(c): c * 1, then k * c[k]."""
    if len(c) == 1:
        return c[:1] * 0
    k = np.arange(1, len(c)).reshape((-1,) + (1,) * (np.ndim(c) - 1))
    return k * (c[1:] * 1)


def poly_div(a, b):
    """(quotient, remainder) of a / b for complex series: the operations of
    numpy.polynomial.polynomial.polydiv without its series checks."""
    a = np.array(trimseq(np.asarray(a)), dtype=complex)  # a copy: reduced in place
    b = np.asarray(trimseq(np.asarray(b)), dtype=complex)
    if b[-1] == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    lc1, lc2 = len(a), len(b)
    if lc1 < lc2:
        return a[:1] * 0, a
    if lc2 == 1:
        return a / b[-1], a[:1] * 0
    scl = b[-1]
    b = b[:-1] / scl
    i, j = lc1 - lc2, lc1 - 1
    while i >= 0:
        a[i:j] -= b * a[j]
        i -= 1
        j -= 1
    return a[j + 1:] / scl, trimseq(a[:j + 1])


# The three operations below give the bits of numpy.polynomial.polynomial's
# polymul, polyadd and polypow without their per-call series checks: the
# same np.convolve calls on the same operands, trailing zeros trimmed where
# numpy trims them. Composition with a curve is built from them.

def poly_mul(a, b):
    """a * b: np.convolve(a, b) of both without trailing zeros, trimmed."""
    return trimseq(np.convolve(trimseq(a), trimseq(b)))


def poly_add(a, b):
    """a + b: the shorter added into a copy of the longer, trimmed."""
    a, b = trimseq(a), trimseq(b)
    if a.size > b.size:
        a, b = b, a
    out = np.array(b, dtype=complex)
    out[:a.size] += a
    return trimseq(out)


def poly_powers(c, n):
    """[c**0, c**1, ..., c**n]: each power np.convolve(previous power, c),
    the chain polypow(c, n) runs, so power k has the bits of polypow(c, k)."""
    c = trimseq(np.asarray(c, dtype=complex))
    powers = [np.ones(1, dtype=complex), c]
    for _ in range(2, n + 1):
        powers.append(np.convolve(powers[-1], c))
    return powers[:n + 1]


@dataclass(frozen=True)
class Poly3:
    """Polynomial in (z1, z2, z3): exponent rows (m, 3) and coefficients (m,).

    The partial derivatives that grad() returns and a constant's value are
    computed once per object and cached on it. The caches are not fields,
    so ==, repr and the scene JSON ignore them.
    """

    exponents: np.ndarray
    coeffs: np.ndarray

    @classmethod
    def from_terms(cls, terms):
        """terms: iterable of ((i, j, k), coeff)."""
        terms = list(terms)
        if not terms:
            return cls(np.zeros((1, 3), dtype=np.int64), np.zeros(1, dtype=complex))
        exps = np.array([t[0] for t in terms], dtype=np.int64).reshape(-1, 3)
        cs = np.array([t[1] for t in terms], dtype=complex)
        return cls(exps, cs)

    @classmethod
    def constant(cls, value):
        return cls.from_terms([((0, 0, 0), value)])

    def __call__(self, points):
        """Evaluate at points of shape (..., 3); a constant polynomial's
        value is computed once per object and broadcast."""
        pts = np.asarray(points)
        if self._constant is not None:
            return np.full(pts.shape[:-1], self._constant)[()]
        base = pts[..., None, :]  # (..., 1, 3)
        powers = base ** self.exponents  # (..., m, 3)
        return np.sum(self.coeffs * np.prod(powers, axis=-1), axis=-1)

    @cached_property
    def _constant(self):
        """The value of a polynomial whose exponents are all zero, for
        complex coefficients (its bits then do not depend on the points'
        dtype); None otherwise."""
        if self.exponents.any() or self.coeffs.dtype != complex:
            return None
        # every term's product of three powers is exactly 1 + 0j
        return np.add.reduce(self.coeffs * np.ones(self.coeffs.shape, dtype=complex))

    def grad(self):
        """Tuple of three Poly3 partial derivatives."""
        return self._partials

    @cached_property
    def _partials(self):
        """Each partial keeps only the terms that contain its variable, so
        compose_curve multiplies no zero term; one with none is the zero
        polynomial of from_terms([])."""
        out = []
        for axis in range(3):
            rows = self.exponents[:, axis] > 0
            exps = self.exponents[rows]
            cs = self.coeffs[rows] * exps[:, axis]
            exps[:, axis] -= 1
            out.append(Poly3(exps, cs) if rows.any()
                       else Poly3.from_terms([]))
        return tuple(out)

    def compose_curve(self, curve):
        """Compose with a polynomial curve: returns ascending coefficients
        of self(gamma(t)) for gamma a complex_affine ParamCurve, whose
        cached component powers are read, or three coefficient arrays.

        Term by term in row order, each term is [coeff] times the powers
        of the components in axis order (poly_mul), and the terms are
        summed with poly_add; each component's powers are built once."""
        rows = self.exponents.tolist()
        degrees = [max(col) for col in zip(*rows)]
        if isinstance(curve, ParamCurve):
            powers = curve.component_powers(degrees)
        else:
            powers = [poly_powers(comp, k) for comp, k in zip(curve, degrees)]
        total = np.zeros(1, dtype=complex)
        for row, c in zip(rows, self.coeffs):
            term = np.array([c], dtype=complex)
            for power, k in zip(powers, row):
                if k:
                    term = poly_mul(term, power[k])
            total = poly_add(total, term)
        return poly_trim(total, tol=1e-15)

    def scale(self):
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0


# ---------------------------------------------------------------------------
# curves

@dataclass(frozen=True)
class ParamCurve:
    """A parametrized curve in R^3 or C^3.

    kind = "real_closed": map(t) = const + sum_k cos(2pi k t) cos_rows[k-1]
    + sin(2pi k t) sin_rows[k-1], t in [0, 1).

    kind = "complex_affine": three ascending complex coefficient arrays over
    the whole parameter plane, the domain ("plane",), or over a rectangle.

    A complex curve caches, once per object, its degree, two (deg + 1, 3)
    coefficient matrices (the components, zero-padded to one length, and
    their derivatives) and the powers of each component that composition
    has asked for. eval_batch evaluates each matrix with one Horner pass;
    zero padding can change the sign of a zero, but no other bit of what
    each component's own Horner pass gives. The cache is not a field, so
    ==, repr and the scene JSON ignore it.
    """

    kind: str
    const: np.ndarray = None          # real_closed
    cos_rows: np.ndarray = None
    sin_rows: np.ndarray = None
    components: tuple = None          # complex_affine: three coef arrays
    domain: tuple = ("circle",)       # ("circle",) | ("plane",) | ("rect", x0, x1, y0, y1)
    marked_points: tuple = ()

    @classmethod
    def real_closed(cls, const, cos_rows, sin_rows, marked_points=()):
        const = np.asarray(const, dtype=float).reshape(3)
        cos_rows = np.asarray(cos_rows, dtype=float).reshape(-1, 3)
        sin_rows = np.asarray(sin_rows, dtype=float).reshape(-1, 3)
        if not all(np.isfinite(a).all() for a in (const, cos_rows, sin_rows)):
            raise ValueError("real_closed curve coefficients must be finite")
        k = max(cos_rows.shape[0], sin_rows.shape[0])
        cos_rows = np.vstack([cos_rows, np.zeros((k - cos_rows.shape[0], 3))])
        sin_rows = np.vstack([sin_rows, np.zeros((k - sin_rows.shape[0], 3))])
        return cls(kind="real_closed", const=const, cos_rows=cos_rows,
                   sin_rows=sin_rows, domain=("circle",),
                   marked_points=tuple(marked_points))

    @classmethod
    def complex_affine(cls, components, domain=("plane",), marked_points=()):
        comps = tuple(np.array(c, dtype=complex, ndmin=1, copy=None)
                      for c in components)
        if len(comps) != 3:
            raise ValueError("complex_affine curve needs three components")
        if not all(np.isfinite(c).all() for c in comps):
            raise ValueError("complex_affine curve coefficients must be finite")
        return cls(kind="complex_affine", components=tuple(map(poly_trim, comps)),
                   domain=tuple(domain),
                   marked_points=tuple(complex(p) for p in marked_points))

    @classmethod
    def line(cls, p0, e, marked_points=()):
        p0 = np.asarray(p0, dtype=complex)
        e = np.asarray(e, dtype=complex)
        comps = [np.array([p0[i], e[i]], dtype=complex) for i in range(3)]
        return cls.complex_affine(comps, marked_points=marked_points)

    # -- evaluation --------------------------------------------------------

    def eval_batch(self, params):
        """Positions and velocities at a parameter array; no domain checks."""
        return self._evaluate(params, True)

    def positions(self, params):
        """Positions alone at a parameter array: eval_batch(params)[0],
        bit for bit, from the same expressions, without the velocities."""
        return self._evaluate(params, False)[0]

    def _evaluate(self, params, velocity):
        """(positions, velocities), the velocities None unless asked for."""
        params = np.asarray(params)
        vel = None
        if self.kind == "real_closed":
            k = np.arange(1, self.cos_rows.shape[0] + 1)
            cos, sin = _harmonics(TWO_PI * params, len(k))  # (..., K)
            pts = self.const + cos @ self.cos_rows + sin @ self.sin_rows
            if velocity:
                vel = TWO_PI * ((-sin * k) @ self.cos_rows
                                + (cos * k) @ self.sin_rows)
            return pts, vel
        # tensor=False with a trailing parameter axis: (..., 3), C-ordered
        column = params[..., None]
        if velocity:
            vel = poly_eval(column, self._velocity_coefficients)
        return poly_eval(column, self._coefficients), vel

    def derivative_bound(self, order):
        """A bound on |x'| (order 1) or |x''| (order 2), the euclidean norm,
        over the whole of a real_closed curve:
        sum_k (2 pi k)^order sqrt(|cos_row_k|^2 + |sin_row_k|^2). The k-th
        harmonic's derivative is (2 pi k)^order times a unit combination
        (+-cos, +-sin) of its two rows, whose norm Cauchy-Schwarz bounds by
        that root."""
        if self.kind != "real_closed" or order not in (1, 2):
            raise ValueError("derivative bounds are for real_closed curves, "
                             "of order 1 or 2")
        k = np.arange(1, len(self.cos_rows) + 1)
        rows = np.sqrt(np.sum(self.cos_rows ** 2 + self.sin_rows ** 2, axis=1))
        return float(np.sum((TWO_PI * k) ** order * rows))

    @cached_property
    def _coefficients(self):
        out = np.zeros((max(c.size for c in self.components), 3), dtype=complex)
        for axis, c in enumerate(self.components):
            out[:c.size, axis] = c
        return out

    @cached_property
    def _velocity_coefficients(self):
        return poly_der(self._coefficients)

    def component_powers(self, degrees):
        """[poly_powers(component, k) for each component and its k in
        degrees], each chain built once per curve and rebuilt only when a
        higher power is asked for; power j has the same bits in every
        chain."""
        chains = self._power_chains
        for axis, k in enumerate(degrees):
            if len(chains[axis]) <= k:
                chains[axis] = poly_powers(self.components[axis], k)
        return chains

    @cached_property
    def _power_chains(self):
        return [[], [], []]

    def in_domain(self, param):
        """Whether param is a finite parameter of the curve's domain."""
        u = complex(param)
        if not cmath.isfinite(u):
            return False
        if self.kind == "real_closed":
            return u.imag == 0.0
        if self.whole:
            return True
        x0, x1, y0, y1 = self.domain[1:]
        return (x0 - 1e-12 <= u.real <= x1 + 1e-12
                and y0 - 1e-12 <= u.imag <= y1 + 1e-12)

    # -- structure ---------------------------------------------------------

    @cached_property
    def degree(self):
        if self.kind != "complex_affine":
            return None
        return max(poly_deg(c) for c in self.components)

    @property
    def whole(self):
        """Whether the domain is the whole parameter plane; a circle or a
        rectangle is compact."""
        return self.domain[0] == "plane"

    @property
    def is_line(self):
        return self.kind == "complex_affine" and self.degree == 1

    def line_frame(self):
        """(base point, direction) for a degree-1 curve."""
        if not self.is_line:
            raise ValueError("not a line")
        return self._coefficients[0].copy(), self._coefficients[1].copy()

    @property
    def is_real_line(self):
        """A real line over the whole plane; over a rectangle a line is a
        compact piece, not a line."""
        if not self.is_line or not self.whole:
            return False
        p0, e = self.line_frame()
        scale = max(np.max(np.abs(p0)), np.max(np.abs(e)), 1.0)
        return (np.max(np.abs(p0.imag)) <= 1e-12 * scale
                and np.max(np.abs(e.imag)) <= 1e-12 * scale)

    def sample_params(self, n=256):
        """Deterministic parameter samples covering the domain (validation,
        distance scans, genericity probes): one read-only array shared by
        every curve of the same kind and domain."""
        return _sample_grid(self.kind, self.domain, n)


def _harmonics(angle, count):
    """cos(k angle) and sin(k angle) for k = 1..count, each
    angle.shape + (count,): k = 1 from np.cos and np.sin, every higher k
    from the one before by angle addition, cos((k+1) a) = cos(k a) cos(a)
    - sin(k a) sin(a) and sin((k+1) a) = sin(k a) cos(a) + cos(k a) sin(a).
    Each step rounds a few times, so harmonic k is within a few k ulp of
    np.cos(k angle). The harmonics are built as the rows of (count, size)
    arrays and returned as transposed views."""
    flat = np.ravel(angle)
    cos = np.empty((count, flat.size))
    sin = np.empty_like(cos)
    if count:
        np.cos(flat, out=cos[0])
        np.sin(flat, out=sin[0])
    for k in range(1, count):
        np.subtract(cos[k - 1] * cos[0], sin[k - 1] * sin[0], out=cos[k])
        np.add(sin[k - 1] * cos[0], cos[k - 1] * sin[0], out=sin[k])
    shape = np.shape(angle) + (count,)
    return cos.T.reshape(shape), sin.T.reshape(shape)


@lru_cache(maxsize=256)
def _sample_grid(kind, domain, n):
    if kind == "real_closed":
        grid = np.linspace(0.0, 1.0, n, endpoint=False)
    elif domain[0] == "plane":
        # rings at fixed rho of quadrature.Plane's chart, |u| 0.03 to 361
        rho = np.array([0.15, 0.4, 0.7, 0.95])
        r = (rho / (1.0 - rho)) ** 2
        phi = np.linspace(0.0, TWO_PI, max(n // 4, 8), endpoint=False)
        grid = (r[:, None] * np.exp(1j * phi)[None, :]).ravel()
    else:
        x0, x1, y0, y1 = domain[1:]
        m = max(int(math.sqrt(n)), 4)
        xs = np.linspace(x0, x1, m)
        ys = np.linspace(y0, y1, m)
        grid = (xs[:, None] + 1j * ys[None, :]).ravel()
    grid.flags.writeable = False
    return grid


def evaluate(curve, param):
    """Position and velocity of a curve at one parameter value.

    Raises ParamOutOfDomain / ParamAtPuncture; this is the checked scalar
    entry point, batch evaluation inside the integrators skips the checks.
    """
    if not curve.in_domain(param):
        raise ParamOutOfDomain(f"parameter {param} outside curve domain {curve.domain}")
    for p in curve.marked_points:
        if abs(complex(param) - complex(p)) < 1e-12:
            raise ParamAtPuncture(f"parameter {param} is a declared puncture")
    pts, vel = curve.eval_batch(np.array([param]))
    return pts[0], vel[0]


# ---------------------------------------------------------------------------
# forms, cuts, scene

@dataclass(frozen=True)
class OneForm:
    """coeff(u) du on a named curve; coeff = num/den, poles declared."""

    curve: str
    num: np.ndarray
    den: np.ndarray = field(default_factory=lambda: np.ones(1, dtype=complex))
    poles: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "num", poly_trim(self.num))
        object.__setattr__(self, "den", poly_trim(self.den))
        object.__setattr__(self, "poles", tuple(complex(p) for p in self.poles))

    def coeff_batch(self, params):
        num, den = self.num_den_batch(params)
        return num / den

    def num_den_batch(self, params):
        """Numerator and denominator values; finite at a pole, where only
        their ratio is not."""
        params = np.asarray(params)
        return poly_eval(params, self.num), poly_eval(params, self.den)

    def scaled(self, factor):
        return OneForm(self.curve, self.num * factor, self.den, self.poles)


@dataclass(frozen=True)
class AmbientForm:
    """(num/den) dz1 ^ dz2 ^ dz3 on C^3."""

    num: Poly3
    den: Poly3 = field(default_factory=lambda: Poly3.constant(1.0))

    def ratio_batch(self, points):
        return self.num(points) / self.den(points)

    @classmethod
    def standard(cls):
        return cls(num=Poly3.constant(1.0))

    @cached_property
    def is_standard(self):
        """Whether num/den is the constant 1, the form dz1 ^ dz2 ^ dz3 that
        the kernel routes integrate against. Decided from the coefficients
        once per form, not by evaluating the polynomials."""
        num, den = (poly.coeffs.sum() if not poly.exponents.any() else None
                    for poly in (self.num, self.den))
        return num is not None and den is not None and num == den != 0


@dataclass(frozen=True)
class SurfaceCut:
    """Complete-intersection cut {f1 = 0} ∩ {f2 = 0} containing a named
    curve; f2 may be None for a single-surface cut (the residue route
    requires both)."""

    f1: Poly3
    f2: Poly3
    contains_curve: str


@dataclass(frozen=True)
class NormalizationConstants:
    """The line constant kappa_line and, when calibrate measured it, how:
    at which tol and by which hololink version. calibrate integrates the
    whole lines through no window, so it leaves truncation_radius None; the
    field keeps the window that older blocks, measured on a truncated
    window, record. kappa_line left None is filled with the closed form
    BMContext.line_kappa when a method runs; other None fields mean
    unrecorded."""

    kappa_line: complex = None
    tol: float = None
    truncation_radius: float = None
    version: str = None

    _PROVENANCE = ("tol", "truncation_radius", "version")

    @property
    def kappa_xmethod(self):
        """The scale of the raw residue route, which is kappa_line: the raw
        residue of two unit complex lines is exactly 1."""
        return self.kappa_line

    def to_dict(self):
        kappa = self.kappa_line
        out = {"kappa_line": None if kappa is None
               else [kappa.real, kappa.imag]}
        for key in self._PROVENANCE:
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        return out

    @classmethod
    def from_dict(cls, d):
        kappa = d.get("kappa_line")
        return cls(kappa_line=None if kappa is None
                   else complex(kappa[0], kappa[1]),
                   **{key: d.get(key) for key in cls._PROVENANCE})


@dataclass
class Scene:
    """A full problem instance. The first two curves in insertion order are
    the query pair for every two-curve method."""

    curves: dict
    forms: dict = field(default_factory=dict)
    ambient: AmbientForm = None
    cuts: dict = field(default_factory=dict)
    constants: NormalizationConstants = None
    atiyah: dict = None
    scene_id: str = "scene"

    def query_pair(self):
        names = list(self.curves)
        if len(names) < 2:
            raise SceneInvalid("curves", "need at least two curves for a query pair")
        return names[0], names[1]

    def form_for(self, curve_name):
        for f in self.forms.values():
            if f.curve == curve_name:
                return f
        return None

    def cut_for(self, curve_name):
        for cut in self.cuts.values():
            if cut.contains_curve == curve_name:
                return cut
        return None


# ---------------------------------------------------------------------------
# validation

# the sample grids of validate_scene's checks, each read on its own points:
# a curve's map, a cut's gradients along its curve, the ambient form
MAP_SAMPLES, CUT_SAMPLES, AMBIENT_SAMPLES = 256, 32, 64


def _curve_samples(curve, sizes):
    """{n: (points, velocities) on sample_params(n)} for each n in sizes,
    from one eval_batch call on the grids laid end to end. Evaluation is
    pointwise, so each slice has the bits of an evaluation on its own
    grid."""
    grids = [curve.sample_params(n) for n in sizes]
    pts, vel = curve.eval_batch(np.concatenate(grids))
    out, start = {}, 0
    for n, grid in zip(sizes, grids):
        stop = start + grid.size
        out[n] = pts[start:stop], vel[start:stop]
        start = stop
    return out


def _stationary_params(curve):
    """The in-domain roots of a complex curve's lowest-degree nonzero
    velocity component; every zero of its velocity is among them. A curve
    with a constant nonzero velocity component has none, and no root is
    computed for it."""
    vel = [poly_trim(poly_der(c)) for c in curve.components]
    lowest = min((v for v in vel if poly_deg(v) >= 0), key=len)
    if lowest.size == 1:
        return np.empty(0, dtype=complex)
    roots = np.polynomial.polynomial.polyroots(lowest)
    return np.array([t for t in roots if curve.in_domain(t)], dtype=complex)


def _speeds(pts, vel):
    """Each speed |x'| and its vanishing floor 1e-9 max(1, |x|): each speed
    is read against its own point, as a plane's samples span |u| from 0.03
    to 361. |.| is the largest component modulus, taken column by column:
    a reduction along the short last axis costs several times as much."""
    speed, size = (reduce(np.maximum, np.abs(a).T) for a in (vel, pts))
    return speed, 1e-9 * np.maximum(size, 1.0)


def _speed_vanishes(pts, vel):
    """Where the speed is at or below its floor (_speeds)."""
    speed, floor = _speeds(pts, vel)
    return speed <= floor


def _closed_stationary(curve, grid, pts, vel):
    """A parameter of a real_closed curve at or near which its velocity
    vanishes between the samples of grid, an even grid of [0, 1) with its
    points and velocities, or None once a bound certifies that it vanishes
    nowhere.

    |x''| <= B = curve.derivative_bound(2), a bound on the euclidean norm
    and so on the largest component modulus, as _speeds reads speeds. On
    an interval of length h whose ends have speeds s0 and s1 the speed is
    then at least (s0 + s1 - B h) / 2, and the interval is certified when
    that is above both ends' floors; the last interval wraps from the last
    sample to t = 1, which is t = 0. The intervals left are halved, a level
    at a time, with the midpoints of a level in one eval_batch call, until
    every interval is certified, a midpoint's speed vanishes (the midpoint
    is returned) or an interval is too short to halve (its start is)."""
    bound = curve.derivative_bound(2)
    speed, floor = _speeds(pts, vel)
    # per interval: start, end, the ends' speeds and the ends' floors
    ends = [grid, np.append(grid[1:], 1.0), speed, np.roll(speed, -1),
            floor, np.roll(floor, -1)]
    while True:
        t0, t1, s0, s1, f0, f1 = ends
        left = s0 + s1 - bound * (t1 - t0) <= 2.0 * np.maximum(f0, f1)
        if not left.any():
            return None
        t0, t1, s0, s1, f0, f1 = (a[left] for a in ends)
        mid = 0.5 * (t0 + t1)
        short = (mid <= t0) | (mid >= t1)
        if short.any():
            return t0[short][0]
        sm, fm = _speeds(*curve.eval_batch(mid))
        if np.any(sm <= fm):
            return mid[sm <= fm][0]
        ends = [np.concatenate(pair) for pair in
                ((t0, mid), (mid, t1), (s0, sm), (sm, s1), (f0, fm), (fm, f1))]


def validate_scene(scene):
    """Check every structural invariant; raise SceneInvalid naming the
    violated invariant and the JSON-ish path of the offender.

    Deliberately not checked here: curve disjointness (the quadrature
    engine's proximity samples raise CurvesTooClose, so the failure
    surfaces as a numerical diagnostic of the integral routes) and pole
    orders (holo_linking_integral reads each declared pole's order off the
    form's polynomials and raises PVNotConverging above 1; integrate_pv
    integrates simple poles in a polar chart centered on the pole).

    Each curve is evaluated once, on the grids of every check that reads
    it (_curve_samples).
    """
    cut_curves = {cut.contains_curve for cut in scene.cuts.values()
                  if cut.f2 is not None}
    samples = {}
    for name, curve in scene.curves.items():
        path = f"curves.{name}"
        if curve.kind not in ("real_closed", "complex_affine"):
            raise SceneInvalid(path + ".kind", f"unknown curve kind {curve.kind!r}")
        if curve.kind == "complex_affine":
            if curve.degree < 1:
                raise SceneInvalid(path + ".map", "constant parametrization (degree < 1)")
            if curve.domain[0] not in ("plane", "rect"):
                raise SceneInvalid(path + ".domain", f"unknown domain {curve.domain[0]!r}")
            bounds = curve.domain[1:]
            if curve.domain[0] == "rect" and not (
                    len(bounds) == 4 and all(map(math.isfinite, bounds))
                    and bounds[0] < bounds[1] and bounds[2] < bounds[3]):
                raise SceneInvalid(path + ".domain",
                                   "rect bounds must be finite with lo < hi")
        sizes = [MAP_SAMPLES]
        if name in cut_curves:
            sizes.append(CUT_SAMPLES)
        if scene.ambient is not None:
            sizes.append(AMBIENT_SAMPLES)
        samples[name] = _curve_samples(curve, sizes)
        pts, vel = samples[name][MAP_SAMPLES]
        # a NaN passes every comparison below, so it is caught here
        if not (np.isfinite(pts).all() and np.isfinite(vel).all()):
            raise SceneInvalid(path + ".map",
                               "non-finite position or velocity on the sampled domain")
        if np.any(_speed_vanishes(pts, vel)):
            raise SceneInvalid(path + ".map", "velocity vanishes on the sampled domain")
        if curve.kind == "real_closed":
            # a zero between the samples, which the second-derivative bound
            # cannot rule out
            stopped = _closed_stationary(
                curve, curve.sample_params(MAP_SAMPLES), pts, vel)
            if stopped is not None:
                raise SceneInvalid(path + ".map",
                                   f"velocity vanishes near parameter {stopped}")
        if curve.kind == "complex_affine" and not curve.is_line:
            # a zero between the samples, at a root of a velocity component;
            # a line's velocity is constant
            params = _stationary_params(curve)
            stopped = params[_speed_vanishes(*curve.eval_batch(params))]
            if stopped.size:
                raise SceneInvalid(path + ".map",
                                   f"velocity vanishes at parameter {stopped[0]}")
        for p in curve.marked_points:
            if not curve.in_domain(p):
                raise SceneInvalid(path + ".marked_points", f"puncture {p} outside domain")

    for fname, form in scene.forms.items():
        path = f"forms.{fname}"
        if form.curve not in scene.curves:
            raise SceneInvalid(path + ".curve", f"unknown curve {form.curve!r}")
        owner = scene.curves[form.curve]
        if poly_deg(form.den) < 0:
            raise SceneInvalid(path + ".denominator", "identically zero")
        den_scale = float(np.max(np.abs(form.den)))
        for p in form.poles:
            if not any(abs(complex(p) - complex(mp)) < 1e-9 for mp in owner.marked_points):
                raise SceneInvalid(
                    path + ".poles",
                    f"pole {p} is not among marked_points of curve {form.curve!r}")
            if abs(poly_eval(p, form.den)) > 1e-8 * den_scale:
                raise SceneInvalid(path + ".poles",
                                   f"declared pole {p} is not a root of the denominator")

    for cname, cut in scene.cuts.items():
        path = f"cuts.{cname}"
        if cut.contains_curve not in scene.curves:
            raise SceneInvalid(path + ".contains_curve",
                               f"unknown curve {cut.contains_curve!r}")
        curve = scene.curves[cut.contains_curve]
        if curve.kind != "complex_affine":
            raise SceneInvalid(path + ".contains_curve",
                               "cut surfaces apply to complex_affine curves")
        pieces = [("F1", cut.f1)]
        if cut.f2 is not None:
            pieces.append(("F2", cut.f2))
        for label, f in pieces:
            composed = f.compose_curve(curve)
            scale = max(f.scale(), 1.0)
            if np.max(np.abs(composed)) > 1e-10 * scale:
                raise SceneInvalid(f"{path}.{label}",
                                   f"{label} does not vanish on {cut.contains_curve!r}")
        if cut.f2 is not None:
            pts, _ = samples[cut.contains_curve][CUT_SAMPLES]
            g1 = np.stack([g(pts) for g in cut.f1.grad()], axis=-1)
            g2 = np.stack([g(pts) for g in cut.f2.grad()], axis=-1)
            mats = np.stack([g1, g2], axis=-2)  # (n, 2, 3)
            sig = np.linalg.svd(mats, compute_uv=False)
            scale = max(cut.f1.scale(), cut.f2.scale(), 1.0)
            if np.min(sig[..., 1]) <= 1e-8 * scale:
                raise SceneInvalid(path, "cut gradients dependent along the curve")

    if scene.ambient is not None:
        for name, curve in scene.curves.items():
            pts, _ = samples[name][AMBIENT_SAMPLES]
            if np.min(np.abs(scene.ambient.den(pts))) <= 1e-9:
                raise SceneInvalid("ambient.denominator",
                                   f"vanishes on curve {name!r}")
            if np.min(np.abs(scene.ambient.num(pts))) <= 1e-9:
                raise SceneInvalid("ambient.numerator",
                                   f"volume form vanishes on curve {name!r}")

    if scene.atiyah is not None:
        for key in ("l", "p"):
            arr = np.asarray(scene.atiyah.get(key))
            if arr is None or arr.shape != (4, 4):
                raise SceneInvalid(f"atiyah.{key}", "expected a 4x4 coefficient array")
    return scene
