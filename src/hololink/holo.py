"""Holomorphic linking in C^3: the kernel double integral over a pair of
complex curves, the whole-plane route for a curve against a complex line,
the closed form for complex lines, the theta-independent complex linking
number, and the sphere reproducing-property check.

Measure convention: a complex parameter t = x + iy integrates against the
real area element dA = dx dy. Pulling the kernel 4-form back through two
complex charts turns d(tbar) ^ d(sbar) ^ dt ^ ds into +4 dA dA, so every
double integral below carries an explicit factor 4 on the pointwise
kernel. The sphere normalizer is measured, not assumed: integrating the
kernel 5-form over a round sphere with f = 1 gives exactly -4*pi^3*i, so
the reproducing map divides by that (multiplies by i/(4 pi^3)).
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P
from numpy.polynomial.legendre import leggauss

from . import _kernels, quadrature
from .errors import (CoincidentPoints, CurvesTooClose, DegenerateConfiguration,
                     MethodInapplicable, PVNotConverging)
from .geometry import det3, poly_deg, poly_eval, poly_trim
from .quadrature import domain_for_curve, integrate_pv, per_panel
from .residue import pole_order

C3 = math.pi ** 3
AREA_FACTOR = 4.0  # d(tbar)^d(sbar)^dt^ds = +4 dA1 dA2
SPHERE_NORMALIZER = 1j / (4.0 * math.pi ** 3)

# a coefficient below this fraction of its polynomial's scale is a rounding
# residue of a cancellation, not a term: it does not count in a degree
_DEG_TOL = 1e-12

_LEVI_CIVITA = (((0, 1, 2), 1.0), ((1, 2, 0), 1.0), ((2, 0, 1), 1.0),
                ((0, 2, 1), -1.0), ((2, 1, 0), -1.0), ((1, 0, 2), -1.0))


@dataclass(frozen=True)
class BMContext:
    """Normalization context for the kernel integrals: the volume prefactor
    C3 = pi^3 of the ambient dimension 3 on the pointwise kernel, and the
    line constant it fixes."""

    @property
    def prefactor(self):
        return C3

    @property
    def line_kappa(self):
        """The line constant in closed form, -2 pi^2 * C3 = -2 pi^5: the
        kernel integral of two complex lines with unit forms and
        det3(e1, e2, e3) = 1. The raw residue route gives exactly 1 on such
        a pair, so this scales the residue route too."""
        return complex(-2.0 * math.pi ** 2 * self.prefactor)


def bm_pullback_integrand(z, dz, w, dw, ctx):
    """Pointwise kernel conj(det3(z-w, dz, dw)) / ||z-w||^6 at one pair of
    points, times ctx.prefactor.

    The single-pair case of _kernels.bm_grid. Raises CoincidentPoints when
    z = w.
    """
    z, dz, w, dw = (np.asarray(a, dtype=complex).reshape(1, 3)
                    for a in (z, dz, w, dw))
    r = z - w
    if np.sum(r.real ** 2 + r.imag ** 2) < 1e-28:
        raise CoincidentPoints("kernel evaluated at z = w")
    return complex(_kernels.bm_grid(z, dz, w, dw)[0, 0]) * ctx.prefactor


def bm_pullback_epsilon_sum(z, dz, w, dw, ctx):
    """Reference form of the kernel at one pair of points: the explicit
    antisymmetric sum

        sum_{ijk} eps^{ijk} conj(z_i - w_i) conj(dz_j) conj(dw_k) / ||z-w||^6

    with eps^{123} = +1, times ctx.prefactor. Agrees with
    bm_pullback_integrand to machine precision; kept as an independent
    cross-check of the production kernel's Plucker-row form.
    """
    z, dz, w, dw = (np.asarray(a, dtype=complex).reshape(3)
                    for a in (z, dz, w, dw))
    r = z - w
    n2 = np.sum(r.real ** 2 + r.imag ** 2)
    if n2 < 1e-28:
        raise CoincidentPoints("kernel evaluated at z = w")
    acc = sum(sign * np.conj(r[i]) * np.conj(dz[j]) * np.conj(dw[k])
              for (i, j, k), sign in _LEVI_CIVITA)
    return complex(acc) / (n2 ** 3) * ctx.prefactor


def _require_complex_pair(curve1, curve2, what):
    if curve1.kind != "complex_affine" or curve2.kind != "complex_affine":
        raise MethodInapplicable(f"{what} needs two complex curves")


def holo_linking_integral(s1, s2, ctx, cfg):
    """Holomorphic linking of two weighted complex curves.

    s1 and s2 are (ParamCurve, OneForm) pairs. The value is the double
    integral of the pointwise kernel times both form coefficients over the
    two parameter domains (area measure, factor 4; ctx.prefactor). Each
    declared pole's order comes from its form's numerator and denominator
    (residue.pole_order); one above 1 has no principal value and raises
    PVNotConverging before any kernel runs. Each curve on a ("plane",)
    domain is integrated over its whole parameter plane
    (quadrature.Plane), with no window and no tail; a form with a declared
    simple pole, on the plane's chart centred on the pole, where the area
    jacobian cancels it (see quadrature.integrate_pv).
    """
    curve1, form1 = s1
    curve2, form2 = s2
    _require_complex_pair(curve1, curve2, "holo_linking_integral")
    for form in (form1, form2):
        for p in form.poles:
            if (k := pole_order(form.num, form.den, p)) > 1:
                raise PVNotConverging(
                    f"puncture {p}: pole of order {k} > 1 (only simple "
                    "poles have principal values)")
    dom_a = domain_for_curve(curve1)
    dom_b = domain_for_curve(curve2)
    scale = AREA_FACTOR * ctx.prefactor

    # the sides carry each form's numerator and denominator and only the
    # integrand divides: the engine samples curve positions at the
    # puncture itself, but integrates only at interior nodes. The kernel
    # takes the weights with the coefficients folded in and returns the
    # panel sum.
    def kernel(wa, x, dx, num1, den1, wb, y, dy, num2, den2):
        return _kernels.bm_grid(x, dx, y, dy, wa * (scale * (num1 / den1)),
                                wb * (num2 / den2))

    return integrate_pv(
        per_panel(kernel), dom_a, dom_b,
        (tuple(form1.poles), tuple(form2.poles)), cfg,
        side_a=lambda u: (*curve1.eval_batch(u), *form1.num_den_batch(u)),
        side_b=lambda v: (*curve2.eval_batch(v), *form2.num_den_batch(v)))


def _line_second(s1, s2):
    """The pair with a line second: swapped when only the first curve is a
    line (the pairing is symmetric), as given otherwise."""
    if s1[0].is_line and not s2[0].is_line:
        return s2, s1
    return s1, s2


def _against_line(curve, line):
    """Ascending coefficients in u of the curve z(u) seen from the line
    w = p2 + v e2: v*, the parameter of the nearest point of the line
    (n,); P = z - p2 - v* e2, the offset from it (rows, 3), rows that
    cancel to rounding dropped; and det3(z - p2, z', e2) = det3(P, z', e2),
    trimmed the same way."""
    p2, e2 = line.line_frame()
    rel = curve._coefficients.copy()
    rel[0] -= p2
    vstar = rel @ np.conj(e2) / np.vdot(e2, e2).real
    perp = rel - vstar[:, None] * e2
    rows = np.linalg.norm(perp, axis=1)
    terms = np.flatnonzero(rows > _DEG_TOL * np.linalg.norm(rel, axis=1).max())
    perp = perp[:terms.max(initial=0) + 1]
    cross = np.cross(curve._velocity_coefficients, e2)
    det = sum(np.convolve(perp[:, i], cross[:, i]) for i in range(3))
    return poly_trim(vstar, _DEG_TOL), perp, poly_trim(det, _DEG_TOL)


def holo_line_obstacle(s1, s2):
    """Why holo_line cannot integrate the pair, or None when it can.

    It needs a complex line among the two curves, polynomial forms (a
    constant denominator, no declared pole), a form of degree below 4 on
    the line, so that the form's mean over each circle of the line is its
    value at the centre, and an integrand that decays faster than |u|^-2
    on the whole u plane. The decay order comes from degrees alone:
    deg g1 + deg det3 + deg g2 * deg v* - 4 deg P.
    """
    (curve, form1), (line, form2) = _line_second(s1, s2)
    if curve.kind != "complex_affine" or not line.is_line:
        return "needs a complex curve and a complex line"
    if any(poly_deg(f.den) > 0 or f.poles for f in (form1, form2)):
        return "needs polynomial forms (constant denominator, no poles)"
    if poly_deg(form2.num) >= 4:
        return "the line's form has degree >= 4: its mean diverges"
    vstar, perp, det = _against_line(curve, line)
    decay = (poly_deg(form1.num) + poly_deg(det)
             + poly_deg(form2.num) * max(poly_deg(vstar), 0)
             - 4 * (len(perp) - 1))
    if decay >= -2:
        return (f"the integrand decays like |u|^{decay}, not faster than "
                "|u|^-2, over the whole plane")
    return None


def holo_line(s1, s2, ctx, cfg):
    """Holomorphic linking of a weighted polynomial curve and a weighted
    complex line w = p2 + v e2, each over its whole parameter plane.

    s1 and s2 are (ParamCurve, OneForm) pairs, either of them the line.
    The kernel integral over the line has a closed form: det3(z - w, z',
    e2) does not depend on v, and ||z - w||^2 = A + |e2|^2 |v - v*|^2 with
    A = |P|^2 (_against_line), so for a form g2 of degree below 4 the mean
    value property gives g2(v*) pi / (2 |e2|^2 A^2). What is left is the
    2-D integral over u of

        AREA_FACTOR ctx.prefactor g1(u) g2(v*) conj(det3) pi / (2 |e2|^2 A^2),

    integrated over the whole u plane on quadrature.Plane's compact chart.
    There is no window and no tail. On L0 the integrand is
    -2 pi^4 / (1 + |u|^2)^2, and the value -2 pi^5.
    MethodInapplicable names what holo_line_obstacle finds; CurvesTooClose
    is raised, before any integrand runs, when |P| < 1e-6 at a root of a
    component of P, which is where a curve that meets the line meets it.
    """
    reason = holo_line_obstacle(s1, s2)
    if reason is not None:
        raise MethodInapplicable(f"holo_line: {reason}")
    (curve, form1), (line, form2) = _line_second(s1, s2)
    vstar, perp, det = _against_line(curve, line)
    for comp in perp.T:
        comp = poly_trim(comp, _DEG_TOL)
        if poly_deg(comp) < 1:
            continue
        roots = P.polyroots(comp)
        gap = np.linalg.norm(poly_eval(roots[:, None], perp),
                             axis=-1).min()
        if gap < quadrature._MIN_DIST:
            raise CurvesTooClose(f"the curve meets the line: distance "
                                 f"{gap:.3e} < {quadrature._MIN_DIST:.0e}")
    _, e2 = line.line_frame()
    g1 = form1.num / form1.den[0]
    g2 = form2.num / form2.den[0]
    scale = (AREA_FACTOR * ctx.prefactor * math.pi
             / (2.0 * np.vdot(e2, e2).real))

    # one call per rule for the whole round: w and u are (P, n)
    def integrand(w, u):
        offset = poly_eval(u[..., None], perp)
        area = np.sum(offset.real ** 2 + offset.imag ** 2, axis=-1)
        values = (poly_eval(u, g1) * poly_eval(poly_eval(u, vstar), g2)
                  * np.conj(poly_eval(u, det)) / area ** 2)
        # a stacked (1, n) @ (n, 1) product per panel: the bits of w @ values
        return np.matmul((scale * w)[:, None, :], values[:, :, None])[:, 0, 0]

    return quadrature.integrate_curve(integrand, quadrature.Plane(), cfg)


def line_holo_closed(e1, e2, e3, c1, c2, constants):
    """Closed form for two complex lines: kappa_line * c1 * c2 / det3(e1,e2,e3).

    e1, e2 are the line directions, e3 joins their base points, and c1, c2
    are the pairings of each direction with its line's one-form. kappa_line
    comes from constants: the closed form BMContext.line_kappa unless the
    scene's constants block gives another value.
    """
    e1 = np.asarray(e1, dtype=complex)
    e2 = np.asarray(e2, dtype=complex)
    e3 = np.asarray(e3, dtype=complex)
    d = complex(det3(e1, e2, e3))
    scale = (np.linalg.norm(e1) * np.linalg.norm(e2) * np.linalg.norm(e3))
    if abs(d) <= 1e-12 * max(scale, 1e-300):
        raise DegenerateConfiguration(
            "complex lines intersect or are parallel (det3 = 0)")
    return constants.kappa_line * complex(c1) * complex(c2) / d


def complex_linking_number(curve1, curve2, ctx, cfg):
    """Theta-independent linking energy: the double integral of

        C3 * |det3(z-w, dz, dw)|^2 / ||z-w||^6

    over both curve domains (area measure, factor 4), each whole plane on
    quadrature.Plane's chart. Real and positive.
    """
    _require_complex_pair(curve1, curve2, "complex_linking_number")
    dom_a = domain_for_curve(curve1)
    dom_b = domain_for_curve(curve2)
    scale = AREA_FACTOR * ctx.prefactor

    def kernel(wa, x, dx, wb, y, dy):
        return wa @ (scale * _kernels.clink_grid(x, dx, y, dy)) @ wb

    return integrate_pv(per_panel(kernel), dom_a, dom_b, ((), ()), cfg,
                        side_a=curve1.eval_batch, side_b=curve2.eval_batch)


# ---------------------------------------------------------------------------
# sphere reproduction

_COMPLEMENT = ((1, 2), (0, 2), (0, 1))


def _sphere_chart(w0, eps, alpha, beta, p1, p2, p3):
    """Point offsets and the five tangent vectors of the round 5-sphere chart

        zeta = eps * (cos a e^{i p1}, sin a cos b e^{i p2}, sin a sin b e^{i p3})
    """
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    e1, e2, e3 = np.exp(1j * p1), np.exp(1j * p2), np.exp(1j * p3)
    zeta = np.stack([ca * e1, sa * cb * e2, sa * sb * e3], axis=-1) * eps
    zero = np.zeros_like(e1)
    t_alpha = np.stack([-sa * e1, ca * cb * e2, ca * sb * e3], axis=-1) * eps
    t_beta = np.stack([zero, -sa * sb * e2, sa * cb * e3], axis=-1) * eps
    t_p1 = np.stack([1j * ca * e1, zero, zero], axis=-1) * eps
    t_p2 = np.stack([zero, 1j * sa * cb * e2, zero], axis=-1) * eps
    t_p3 = np.stack([zero, zero, 1j * sa * sb * e3], axis=-1) * eps
    tangents = np.stack([t_alpha, t_beta, t_p1, t_p2, t_p3], axis=-2)
    return zeta, tangents


def bm_reproduce(f, w0, eps, cfg):
    """Integrate f against the kernel 5-form over the radius-eps sphere
    around w0 and return the reproduced value (contract: -> f(w0) as
    eps -> 0 for polynomial f).

    Fixed-order tensor Gauss-Legendre product rule, cfg.panel_order nodes
    per axis: the integrand is smooth and periodic, and a single
    high-order panel keeps the error eps-dominated instead of
    roundoff-dominated.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    w0 = np.asarray(w0, dtype=complex).reshape(3)
    order = max(int(cfg.panel_order), 4)
    g, wts = leggauss(order)
    half = 0.25 * np.pi * (g + 1.0)      # [0, pi/2]
    full = np.pi * (g + 1.0)             # [0, 2 pi]
    jac = (0.25 * np.pi) ** 2 * np.pi ** 3

    alpha, beta, p1, p2, p3 = np.meshgrid(half, half, full, full, full,
                                          indexing="ij")
    weight = (wts[:, None, None, None, None] * wts[None, :, None, None, None]
              * wts[None, None, :, None, None] * wts[None, None, None, :, None]
              * wts[None, None, None, None, :]).ravel()
    zeta, tangents = _sphere_chart(w0, eps, alpha.ravel(), beta.ravel(),
                                   p1.ravel(), p2.ravel(), p3.ravel())

    total = np.zeros(zeta.shape[0], dtype=complex)
    rows = np.empty(zeta.shape[:-1] + (5, 5), dtype=complex)
    for r, (a, b) in enumerate(_COMPLEMENT):
        rows[..., 0, :] = np.conj(tangents[..., a])
        rows[..., 1, :] = np.conj(tangents[..., b])
        rows[..., 2, :] = tangents[..., 0]
        rows[..., 3, :] = tangents[..., 1]
        rows[..., 4, :] = tangents[..., 2]
        total += (-1.0) ** r * np.conj(zeta[..., r]) * np.linalg.det(rows)

    values = np.asarray(f(w0[None, :] + zeta), dtype=complex).reshape(-1)
    raw = np.sum(weight * values * total) / eps ** 6 * jac
    return complex(raw * SPHERE_NORMALIZER)
