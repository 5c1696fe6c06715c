"""Scene data model: curves, forms, cuts, constants, and the small exact
operations (det3, pairing, polynomial algebra) the routes are built from.

Curves come in two kinds. `real_closed` curves are trigonometric polynomials
t in [0,1) -> R^3 stored as coefficient tables, so velocities are exact.
`complex_affine` curves are triples of univariate polynomials u -> C^3 over
a truncation disk or an explicit rectangle in the parameter plane.
Polynomials are plain ascending numpy coefficient arrays throughout.
"""

from dataclasses import dataclass, field
from functools import cached_property
import math

import numpy as np
from numpy.polynomial import polynomial as P
from numpy.polynomial.polyutils import trimseq

from .errors import ParamAtPuncture, ParamOutOfDomain, SceneInvalid

TWO_PI = 2.0 * math.pi
# the truncation window |u| <= R of a disk-domain curve when none is given
DEFAULT_RADIUS = 40.0


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
    c = np.atleast_1d(np.asarray(c, dtype=complex))
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

    The partial derivatives that grad() returns are computed once per
    object and cached on it. The cache is not a field, so ==, repr and the
    scene JSON ignore it.
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
        """Evaluate at points of shape (..., 3)."""
        pts = np.asarray(points)
        base = pts[..., None, :]  # (..., 1, 3)
        powers = base ** self.exponents  # (..., m, 3)
        return np.sum(self.coeffs * np.prod(powers, axis=-1), axis=-1)

    def grad(self):
        """Tuple of three Poly3 partial derivatives."""
        return self._partials

    @cached_property
    def _partials(self):
        out = []
        for axis in range(3):
            exps = self.exponents.copy()
            cs = self.coeffs * exps[:, axis]
            exps[:, axis] = np.maximum(exps[:, axis] - 1, 0)
            out.append(Poly3(exps, cs))
        return tuple(out)

    def compose_curve(self, components):
        """Compose with a polynomial curve: returns ascending coefficients
        of self(gamma(t)) for gamma given by three coefficient arrays.

        Term by term in row order, each term is [coeff] times the powers
        of the components in axis order (poly_mul), and the terms are
        summed with poly_add; each component's powers are built once."""
        powers = [poly_powers(comp, int(k))
                  for comp, k in zip(components, self.exponents.max(axis=0))]
        total = np.zeros(1, dtype=complex)
        for exp_row, c in zip(self.exponents, self.coeffs):
            term = np.array([c], dtype=complex)
            for power, k in zip(powers, exp_row):
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
    a disk (truncation radius) or rectangle domain in the parameter plane.

    A complex curve caches, once per object, its degree and two (deg + 1, 3)
    coefficient matrices: the components, zero-padded to one length, and
    their derivatives. eval_batch evaluates each matrix with one Horner
    pass; zero padding can change the sign of a zero, but no other bit of
    what each component's own Horner pass gives. The cache is not a field,
    so ==, repr and the scene JSON ignore it.
    """

    kind: str
    const: np.ndarray = None          # real_closed
    cos_rows: np.ndarray = None
    sin_rows: np.ndarray = None
    components: tuple = None          # complex_affine: three coef arrays
    domain: tuple = ("circle",)       # ("circle",) | ("disk", R) | ("rect", x0, x1, y0, y1)
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
    def complex_affine(cls, components, domain=("disk", DEFAULT_RADIUS),
                       marked_points=()):
        comps = tuple(np.atleast_1d(np.asarray(c, dtype=complex))
                      for c in components)
        if len(comps) != 3:
            raise ValueError("complex_affine curve needs three components")
        if not all(np.isfinite(c).all() for c in comps):
            raise ValueError("complex_affine curve coefficients must be finite")
        return cls(kind="complex_affine", components=tuple(map(poly_trim, comps)),
                   domain=tuple(domain),
                   marked_points=tuple(complex(p) for p in marked_points))

    @classmethod
    def line(cls, p0, e, radius=DEFAULT_RADIUS, marked_points=()):
        p0 = np.asarray(p0, dtype=complex)
        e = np.asarray(e, dtype=complex)
        comps = [np.array([p0[i], e[i]], dtype=complex) for i in range(3)]
        return cls.complex_affine(comps, domain=("disk", float(radius)),
                                  marked_points=marked_points)

    # -- evaluation --------------------------------------------------------

    def eval_batch(self, params):
        """Positions and velocities at a parameter array; no domain checks."""
        params = np.asarray(params)
        if self.kind == "real_closed":
            k = np.arange(1, self.cos_rows.shape[0] + 1)
            ang = TWO_PI * params[..., None] * k  # (..., K)
            cos, sin = np.cos(ang), np.sin(ang)
            pts = self.const + cos @ self.cos_rows + sin @ self.sin_rows
            vel = TWO_PI * ((-sin * k) @ self.cos_rows + (cos * k) @ self.sin_rows)
            return pts, vel
        # tensor=False with a trailing parameter axis: (..., 3), C-ordered
        column = params[..., None]
        return (P.polyval(column, self._coefficients, tensor=False),
                P.polyval(column, self._velocity_coefficients, tensor=False))

    @cached_property
    def _coefficients(self):
        out = np.zeros((max(c.size for c in self.components), 3), dtype=complex)
        for axis, c in enumerate(self.components):
            out[:c.size, axis] = c
        return out

    @cached_property
    def _velocity_coefficients(self):
        return P.polyder(self._coefficients)

    def in_domain(self, param):
        if self.kind == "real_closed":
            return bool(np.isreal(param)) or abs(complex(param).imag) == 0.0
        kind = self.domain[0]
        u = complex(param)
        if kind == "disk":
            return abs(u) <= self.domain[1] * (1 + 1e-12)
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
    def window(self):
        """R of a ("disk", R) domain; None for a compact domain."""
        return self.domain[1] if self.domain[0] == "disk" else None

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
        """A real line over a disk window; over a rectangle a line is a
        compact piece, not a line."""
        if not self.is_line or self.window is None:
            return False
        p0, e = self.line_frame()
        scale = max(np.max(np.abs(p0)), np.max(np.abs(e)), 1.0)
        return (np.max(np.abs(p0.imag)) <= 1e-12 * scale
                and np.max(np.abs(e.imag)) <= 1e-12 * scale)

    def sample_params(self, n=256):
        """Deterministic parameter samples covering the domain (validation,
        distance scans, genericity probes)."""
        if self.kind == "real_closed":
            return np.linspace(0.0, 1.0, n, endpoint=False)
        if self.domain[0] == "disk":
            radius = self.domain[1]
            r = np.array([0.15, 0.4, 0.7, 0.95]) * radius
            phi = np.linspace(0.0, TWO_PI, max(n // 4, 8), endpoint=False)
            return (r[:, None] * np.exp(1j * phi)[None, :]).ravel()
        x0, x1, y0, y1 = self.domain[1:]
        m = max(int(math.sqrt(n)), 4)
        xs = np.linspace(x0, x1, m)
        ys = np.linspace(y0, y1, m)
        return (xs[:, None] + 1j * ys[None, :]).ravel()


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
        return P.polyval(params, self.num), P.polyval(params, self.den)

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
    at which tol and truncation radius, and by which hololink version.
    kappa_line left None is filled with the closed form BMContext.line_kappa
    when a method runs; other None fields mean unrecorded."""

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

def _curve_samples(curve, n=256):
    params = curve.sample_params(n)
    pts, vel = curve.eval_batch(params)
    return params, pts, vel


def validate_scene(scene):
    """Check every structural invariant; raise SceneInvalid naming the
    violated invariant and the JSON-ish path of the offender.

    Deliberately not checked here: curve disjointness (the quadrature
    engine's proximity samples raise CurvesTooClose, so the failure
    surfaces as a numerical diagnostic of the integral routes) and pole
    orders (holo_linking_integral reads each declared pole's order off the
    form's polynomials and raises PVNotConverging above 1; integrate_pv
    integrates simple poles in a polar chart centered on the pole).
    """
    for name, curve in scene.curves.items():
        path = f"curves.{name}"
        if curve.kind not in ("real_closed", "complex_affine"):
            raise SceneInvalid(path + ".kind", f"unknown curve kind {curve.kind!r}")
        if curve.kind == "complex_affine":
            if curve.degree < 1:
                raise SceneInvalid(path + ".map", "constant parametrization (degree < 1)")
            if curve.domain[0] not in ("disk", "rect"):
                raise SceneInvalid(path + ".domain", f"unknown domain {curve.domain[0]!r}")
            if curve.domain[0] == "disk" and not 0 < curve.domain[1] < math.inf:
                raise SceneInvalid(path + ".domain.radius",
                                   "radius must be positive and finite")
        _, pts, vel = _curve_samples(curve)
        # a NaN passes every comparison below, so it is caught here
        if not (np.isfinite(pts).all() and np.isfinite(vel).all()):
            raise SceneInvalid(path + ".map",
                               "non-finite position or velocity on the sampled domain")
        speed = np.linalg.norm(realify(vel), axis=-1)
        scale = max(float(np.max(np.abs(realify(pts)))), 1.0)
        if np.min(speed) <= 1e-9 * scale:
            raise SceneInvalid(path + ".map", "velocity vanishes on the sampled domain")
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
            if abs(P.polyval(p, form.den)) > 1e-8 * den_scale:
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
            composed = f.compose_curve(curve.components)
            scale = max(f.scale(), 1.0)
            if np.max(np.abs(composed)) > 1e-10 * scale:
                raise SceneInvalid(f"{path}.{label}",
                                   f"{label} does not vanish on {cut.contains_curve!r}")
        if cut.f2 is not None:
            params, pts, _ = _curve_samples(curve, n=32)
            g1 = np.stack([g(pts) for g in cut.f1.grad()], axis=-1)
            g2 = np.stack([g(pts) for g in cut.f2.grad()], axis=-1)
            mats = np.stack([g1, g2], axis=-2)  # (n, 2, 3)
            sig = np.linalg.svd(mats, compute_uv=False)
            scale = max(cut.f1.scale(), cut.f2.scale(), 1.0)
            if np.min(sig[..., 1]) <= 1e-8 * scale:
                raise SceneInvalid(path, "cut gradients dependent along the curve")

    if scene.ambient is not None:
        for name, curve in scene.curves.items():
            _, pts, _ = _curve_samples(curve, n=64)
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
