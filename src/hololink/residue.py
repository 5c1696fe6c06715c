"""Residue route: lift a curve's one-form to a rational 3-form with
double-pole along a complete-intersection cut by one division in C[t],
take iterated residues, and sum the residues at the cut surface's
intersections with the second curve as one Euler-Jacobi trace, which needs
no root. Includes the projective two-line example, whose residue is minus
the inverse Jacobian determinant of the first line's cut forms on the
second line.

Residue convention: res(du/u) = 1 (no 2*pi*i factor anywhere); the
route-global constant relating this to the kernel double integral is
kappa_line, -2 pi^5 in closed form (BMContext.line_kappa) unless the
scene's constants block gives a value.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import (DependentGradients, IdenticallyZero, LinesIntersect,
                     MultiplierNotPolynomial, NonGenericHyperplanes,
                     NonSimpleRoot, PoleCollision)
from .geometry import (Poly3, poly_add, poly_deg, poly_der, poly_div,
                       poly_eval, poly_mul, poly_powers, poly_trim)

RESIDUAL_TOL = 1e-10     # |F(root)| relative to max coefficient magnitude
DERIVATIVE_TOL = 1e-8    # |F'(root)| relative to the same scale
# Two roots within CLUSTER_TOL * max(1, |root|) of each other are one
# non-simple root. Rounding splits a double root by O(sqrt(eps)): over 2000
# random monic (t - a)^2 q(t), deg q <= 4, roots a, q_i ~ complex normal,
# the polished split was median 2.5e-8 and max 5.2e-7 of max(1, |a|). Sets
# of 2-6 such roots drawn independently were never closer than 2.2e-2 on
# the same relative scale. 1e-5 sits ~20x above the first and ~2000x below
# the second. Numpy 2.4, Python 3.11, x86-64.
CLUSTER_TOL = 1e-5
# residue_linking reads g = f1(gamma2) and the rest B of the denominator as
# sharing a root when sigma_min(B(M)) <= COLLISION_TOL * sum_k |b_k|
# max(1, |M|_2)^k. That ratio was >= 0.073 on random_line_scene 0-199,
# about delta for a collision delta away, and <= 2.9e-15 for collisions
# exact up to rounding (f2 shifted to vanish at a computed root of 200
# random line scenes and 1400 random curves of degree 2-3); 1e-12 sits
# ~300x above that and 1e6x below delta = 1e-6. Numpy 2.4, x86-64.
COLLISION_TOL = 1e-12
# lift_theta drops coefficients below LIFT_TOL of the largest, and a remainder
# above LIFT_TOL of max |numerator| means no polynomial lift. Exact divisions
# left 0 on 2000 random graph curves (t, p(t), q(t)), <= 8.5e-12 on 200 affine
# images of them (constant theta1); a simple pole of theta1 left >= 2.1e-2.
LIFT_TOL = 1e-10


@dataclass(frozen=True)
class PolyMultiplier:
    """Polynomial of a linear functional: M(z) = m(a . z + b).

    Degree-0 instances ignore (a, b); higher degrees tie the functional to
    the cut curve's parameter, a . gamma(t) + b = t, so that M restricts to
    the lifted polynomial m(t).
    """

    coeffs: np.ndarray
    a: np.ndarray
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "coeffs", poly_trim(np.asarray(self.coeffs, dtype=complex)))
        object.__setattr__(self, "a", np.asarray(self.a, dtype=complex).reshape(3))
        object.__setattr__(self, "b", complex(self.b))

    @classmethod
    def constant(cls, value):
        return cls(np.array([value], dtype=complex), np.zeros(3), 0.0)

    @property
    def degree(self):
        return poly_deg(self.coeffs)

    def __call__(self, points):
        pts = np.asarray(points, dtype=complex)
        s = pts @ self.a + self.b
        return poly_eval(s, self.coeffs)

    def compose_curve(self, components):
        """Ascending coefficients of M(gamma(t)) for a polynomial curve:
        s(t) = b + a . gamma(t) summed in axis order, then the terms
        ck * s(t)**k in k order, each power scaled elementwise (its bits
        differ from a convolution with [ck]), summed with poly_add."""
        s_of_t = np.array([self.b], dtype=complex)
        for ai, comp in zip(self.a, components):
            s_of_t = poly_add(s_of_t, ai * np.asarray(comp, dtype=complex))
        total = np.zeros(1, dtype=complex)
        for ck, power in zip(self.coeffs, poly_powers(s_of_t, self.coeffs.size - 1)):
            if ck != 0.0:
                total = poly_add(total, ck * power)
        return poly_trim(total, tol=0.0)


@dataclass(frozen=True)
class LiftedThreeForm:
    """Rational 3-form multiplier * base / (f1 * f2) with double pole along
    the cut {f1 = 0, f2 = 0}."""

    base: object          # AmbientForm
    f1: Poly3
    f2: Poly3
    multiplier: PolyMultiplier


@dataclass(frozen=True)
class IntersectionSet:
    """Simple intersection parameters of a surface with a curve."""

    params: tuple
    multiplicities: tuple


def _polish_roots(coeffs, roots):
    deriv = poly_der(coeffs)
    for _ in range(40):
        vals = poly_eval(roots, coeffs)
        dvals = poly_eval(roots, deriv)
        safe = np.abs(dvals) > 1e-300
        step = np.where(safe, vals / np.where(safe, dvals, 1.0), 0.0)
        roots = roots - step
        if np.all(np.abs(poly_eval(roots, coeffs)) <= 1e-13 * np.max(np.abs(coeffs))):
            break
    return roots


def _simple_roots(coeffs, scale, keep=None):
    """Newton-polished roots of coeffs that keep(root) accepts, each
    checked to be simple; raises NonSimpleRoot otherwise.

    A double root splits under rounding into two roots O(sqrt(eps)) apart
    with |F'| = O(sqrt(eps)) * scale at both, so a derivative threshold
    alone decides it by rounding luck. The split itself is the robust
    sign: two roots within CLUSTER_TOL * max(1, |root|) raise when either
    is kept (Z. Zeng, Math. Comp. 74 (2005), treats such clusters as one
    multiple root). |F'| < DERIVATIVE_TOL * scale stays as the guard for
    multiplicity m >= 3, which splits by eps^(1/m) but leaves
    |F'| = O(eps^((m-1)/m)), and for ill-conditioned roots.
    """
    roots = _polish_roots(coeffs, P.polyroots(coeffs))
    kept = np.array([keep is None or keep(r) for r in roots], dtype=bool)
    size = np.maximum(1.0, np.abs(roots))
    gap = np.abs(roots[:, None] - roots[None, :])
    close = gap <= CLUSTER_TOL * np.maximum(size[:, None], size[None, :])
    np.fill_diagonal(close, False)
    close &= kept[:, None] | kept[None, :]
    if np.any(close):
        i, j = np.argwhere(close)[0]
        raise NonSimpleRoot(
            f"roots {roots[i]} and {roots[j]} lie within {CLUSTER_TOL} of "
            f"each other: one multiple root")
    roots = roots[kept]
    dvals = poly_eval(roots, poly_der(coeffs))
    for r, d in zip(roots, dvals):
        if abs(d) < DERIVATIVE_TOL * scale:
            raise NonSimpleRoot(
                f"root {r} is not simple: |F'| below {DERIVATIVE_TOL} of scale")
    return roots


def pole_order(num, den, p):
    """Order of the pole of num/den at the declared pole p: the size m of
    the root cluster of den at a, its root nearest p, less the roots of num
    in that cluster; at most 0 when num cancels the pole.

    Rounding splits an m-fold root by about eps^(1/m), not eps^(1/2), so
    m roots form a cluster when all lie within CLUSTER_TOL^(2/m) *
    max(1, |a|) of a (CLUSTER_TOL itself for m = 2, 4.6e-4 for m = 3), and
    m is the largest size that fits. CLUSTER_TOL alone read 922 of 1000
    triple roots (t - a)^3 q(t), a and a quadratic q's coefficients complex
    normal, as simple; these radii read all 1000 as 3, and as many double
    and quadruple roots as 2 and 4 (numpy 2.4, x86-64).
    """
    den_roots = P.polyroots(den)
    if den_roots.size == 0:
        return 0
    a = den_roots[np.argmin(np.abs(den_roots - p))]
    size = max(1.0, abs(a))
    dist = np.sort(np.abs(den_roots - a))
    m = max(k for k in range(1, dist.size + 1)
            if dist[k - 1] <= CLUSTER_TOL ** (2.0 / k) * size)
    radius = CLUSTER_TOL ** (2.0 / m) * size
    return m - int(np.sum(np.abs(P.polyroots(num) - a) <= radius))


def _sorted_by_param(values):
    return tuple(sorted(values, key=lambda t: (round(t.real, 12), round(t.imag, 12))))


def curve_surface_intersections(f, curve):
    """All parameters t with f(gamma(t)) = 0 in the curve's working domain.

    Roots come from companion-matrix eigenvalues of the composed
    polynomial, Newton-polished to 1e-13 relative residual. Disk domains
    stand for the whole affine curve, so every finite root counts; rect domains are exact and filter. Raises IdenticallyZero when
    the curve lies inside the surface and NonSimpleRoot on tangency: two
    roots within CLUSTER_TOL of each other (a double root split by
    rounding), |f'(gamma(t))| below DERIVATIVE_TOL of scale, or a root
    that does not polish below RESIDUAL_TOL.
    """
    comp = poly_trim(f.compose_curve(curve))
    scale = float(np.max(np.abs(comp)))
    if scale <= 1e-250:
        raise IdenticallyZero("curve lies inside the surface (f(gamma) = 0)")
    comp = poly_trim(comp, tol=1e-14 * scale)
    if poly_deg(comp) == 0:
        return IntersectionSet((), ())
    keep = curve.in_domain if curve.domain[0] == "rect" else None
    params = []
    for r in _simple_roots(comp, scale, keep):
        if abs(poly_eval(r, comp)) > RESIDUAL_TOL * scale:
            raise NonSimpleRoot(
                f"root {r} did not polish below {RESIDUAL_TOL} of scale")
        params.append(complex(r))
    params = _sorted_by_param(params)
    return IntersectionSet(params, (1,) * len(params))


def _cut_normal(f1, f2, curve):
    """(k, n_k(gamma)): an axis k and the ascending coefficients, in the
    curve parameter, of component k of n = grad f1 x grad f2 (no complex
    conjugate) on the curve. Of the axes where neither n_k(gamma) nor
    gamma'_k vanishes identically, k has the velocity of least degree, and
    of those the largest velocity coefficient: dividing by a constant
    gamma'_k is exact. DependentGradients when there is no such axis."""
    g1, g2 = ([g.compose_curve(curve) for g in f.grad()] for f in (f1, f2))
    normal = [poly_add(poly_mul(g1[i], g2[j]), -poly_mul(g1[j], g2[i]))
              for i, j in ((1, 2), (2, 0), (0, 1))]
    axes = [(poly_deg(v), -float(np.max(np.abs(v))), k)
            for k, (v, n) in enumerate(zip(curve._velocity_coefficients.T, normal))
            if poly_deg(v) >= 0 and poly_deg(n) >= 0]
    if not axes:
        raise DependentGradients(
            "cut gradients are linearly dependent along the curve")
    k = min(axes)[2]
    return k, normal[k]


def double_leray_residue(lift, curve, params=None):
    """Samples of the iterated residue of the lifted form on the cut curve.

    The residue 1-form evaluates on gamma'(s) as M(z) * base_ratio(z) *
    det3(u1, u2, gamma'(s)) for any (u1, u2) with grad f_i . u_j =
    delta_ij. On the cut gamma' = lambda n with n = grad f1 x grad f2, and
    det3(u1, u2, n) = 1 (Binet-Cauchy), so the determinant is
    gamma'_k / n_k for the axis k of _cut_normal. Returns (params, coeffs);
    the default params are a writable copy of curve.sample_params(33).
    """
    if params is None:
        params = curve.sample_params(33).copy()
    params = np.asarray(params, dtype=complex)
    k, normal = _cut_normal(lift.f1, lift.f2, curve)
    pts, vel = curve.eval_batch(params)
    return params, (lift.multiplier(pts) * lift.base.ratio_batch(pts)
                    * vel[..., k] / poly_eval(params, normal))


def _pinned_multiplier(coeffs, curve):
    """M(z) = m(a . z + b), a . gamma(t) + b = t: a = conj(c1) / |c1|^2 and
    b = -a . c0 for the curve's rows c0, c1 of degree 0 and 1 restricted to
    its coordinates affine in t (a line's parameter functional; z1 on a
    graph curve (t, p(t), q(t)) with p, q not affine). MultiplierNotPolynomial
    when a non-constant m has no such coordinate to pin to."""
    if poly_deg(coeffs) <= 0:
        return PolyMultiplier.constant(coeffs[0])
    rows = curve._coefficients
    c1 = np.where(np.all(rows[2:] == 0.0, axis=0), rows[1], 0.0)
    norm = float(np.sum(c1.real ** 2 + c1.imag ** 2))
    if norm == 0.0:
        raise MultiplierNotPolynomial(
            "a non-constant multiplier needs a coordinate affine in t")
    a = np.conj(c1) / norm
    return PolyMultiplier(coeffs, a, -complex(a @ rows[0]))


def lift_theta(cut, eta, theta1, curve1):
    """Lift of theta1 through the cut: the polynomial multiplier M whose
    iterated residue of M * eta / (f1 f2) restricted to curve1 is theta1.

    By double_leray_residue, M(gamma1) = theta1.num * n_k(gamma1) *
    eta.den(gamma1) / (theta1.den * gamma1'_k * eta.num(gamma1)), one
    division in C[t] (Griffiths & Harris 1978, ch. 5; Tsikh 1992); a
    remainder raises MultiplierNotPolynomial (LIFT_TOL), and IdenticallyZero
    a residue that vanishes on all of curve1 (eta.num(gamma1) = 0).
    """
    k, normal = _cut_normal(cut.f1, cut.f2, curve1)
    num = poly_mul(poly_mul(theta1.num, normal), eta.den.compose_curve(curve1))
    den = poly_mul(poly_mul(theta1.den, curve1._velocity_coefficients[:, k]),
                   eta.num.compose_curve(curve1))
    if poly_deg(den) < 0:
        raise IdenticallyZero("the residue at M = 1 vanishes on all of curve1")
    quot, rem = poly_div(poly_trim(num, LIFT_TOL), poly_trim(den, LIFT_TOL))
    if np.max(np.abs(rem)) > LIFT_TOL * np.max(np.abs(num)):
        raise MultiplierNotPolynomial(
            f"theta1 / residue at M = 1 leaves a remainder above {LIFT_TOL}")
    return LiftedThreeForm(eta, cut.f1, cut.f2, _pinned_multiplier(quot, curve1))


def compose_restriction(lift, curve2, theta2, eta):
    """Ascending coefficients (A, g, B), in the curve2 parameter, of the
    restricted 1-form coefficient A / (g B) of the lifted form: g is
    f1(gamma2), A = theta2.num * M(gamma2) * (base.num * eta.den)(gamma2)
    and B = theta2.den * f2(gamma2) * (base.den * eta.num)(gamma2). The
    base/eta factors are left out when base is eta, where their ratio is 1.
    """
    num = poly_mul(theta2.num, lift.multiplier.compose_curve(curve2.components))
    rest = poly_mul(theta2.den, lift.f2.compose_curve(curve2))
    if lift.base is not eta:
        num = poly_mul(num, poly_mul(lift.base.num.compose_curve(curve2),
                                     eta.den.compose_curve(curve2)))
        rest = poly_mul(rest, poly_mul(lift.base.den.compose_curve(curve2),
                                       eta.num.compose_curve(curve2)))
    return poly_trim(num), lift.f1.compose_curve(curve2), poly_trim(rest)


def residue_linking(lift, s2, eta):
    """Sum of the residues of the lifted form restricted to the second
    weighted curve at every finite intersection of curve2 with {f1 = 0}.

    With A / (g B) from compose_restriction, the sum of A / (g' B) over the
    roots of g is the Euler-Jacobi trace c[n-1] / lc(g), where c solves
    B(M) c = (A mod g) in C[t]/(g), M is multiplication by t and n = deg g
    (Griffiths & Harris, Principles of Algebraic Geometry, 1978, ch. 5;
    Tsikh, Multidimensional Residues and Their Applications, 1992). No root
    is found, and a multiple root (a cut tangent to curve2) is as well
    posed as a simple one. Every finite root counts, so this is the
    whole-curve value. IdenticallyZero when curve2 lies in {f1 = 0};
    PoleCollision when g and B share a root, so B(M) is singular; 0 when g
    is constant.
    """
    curve2, theta2 = s2
    num, g, rest = compose_restriction(lift, curve2, theta2, eta)
    scale = float(np.max(np.abs(g)))
    if scale <= 1e-250:
        raise IdenticallyZero("curve lies inside the surface (f(gamma) = 0)")
    g = poly_trim(g, tol=1e-14 * scale)
    n = poly_deg(g)
    if n == 0:
        return 0.0 + 0.0j
    mult = np.eye(n, k=-1, dtype=complex)
    mult[:, -1] = -g[:n] / g[n]
    rest_of_m = np.zeros((n, n), dtype=complex)
    for b in rest[::-1]:
        rest_of_m = rest_of_m @ mult + b * np.eye(n)
    size = float(np.sum(np.abs(rest) * max(1.0, np.linalg.norm(mult, 2))
                        ** np.arange(rest.size)))
    sigma = np.linalg.svd(rest_of_m, compute_uv=False)[-1]
    if sigma <= COLLISION_TOL * size:
        raise PoleCollision(
            f"f2 or a denominator of theta2 or of the ambient ratio vanishes at "
            f"an intersection with f1 = 0 (sigma_min {sigma:.3e} of {size:.3e})")
    rem = poly_div(num, g)[1]
    coeffs = np.linalg.solve(rest_of_m, np.pad(rem, (0, n - rem.size)))
    return complex(coeffs[-1] / g[n])


# ---------------------------------------------------------------------------
# rational-function residue bookkeeping (whole-curve pole accounting)

def residue_at_infinity(num, den):
    """res at t = infinity of (num/den) dt: minus the t^-1 coefficient of
    num/den at infinity, r[d-1] / lc(den) for the remainder r of num
    modulo den of degree d."""
    den = poly_trim(np.asarray(den, dtype=complex))
    rem = poly_div(num, den)[1]
    d = poly_deg(den)
    return -complex(rem[d - 1] / den[d]) if 0 < d <= rem.size else 0j


def rational_all_residues(num, den):
    """All finite simple-pole residues of (num/den) dt plus the residue at
    infinity: returns (poles, residues, res_inf). NonSimpleRoot on
    repeated or ill-conditioned denominator roots: two roots within
    CLUSTER_TOL of each other, or |den'| below DERIVATIVE_TOL of scale."""
    num = poly_trim(np.asarray(num, dtype=complex))
    den = poly_trim(np.asarray(den, dtype=complex))
    scale = float(np.max(np.abs(den)))
    roots = _simple_roots(den, scale)
    dden = poly_der(den)
    poles, residues = [], []
    for r in _sorted_by_param([complex(r) for r in roots]):
        d = complex(poly_eval(r, dden))
        poles.append(r)
        residues.append(complex(poly_eval(r, num)) / d)
    return poles, residues, residue_at_infinity(num, den)


# ---------------------------------------------------------------------------
# projective two-line example

def _canonical_nullspace_frame(rows):
    """Orthonormal-then-row-reduced basis of the 2-D nullspace of two
    4-vectors: pivots in coordinate order, pivot entries normalized to 1.
    Deterministic in the inputs; the earlier-pivot vector comes first."""
    a = np.asarray(rows, dtype=complex).reshape(2, 4)
    _, sv, vh = np.linalg.svd(a)
    if sv[1] <= 1e-12 * max(sv[0], 1e-300):
        raise LinesIntersect("cut hyperplanes do not intersect transversally")
    basis = vh[2:].conj()
    work = basis.copy()
    pivots = []
    row = 0
    for col in range(4):
        if row >= 2:
            break
        idx = row + int(np.argmax(np.abs(work[row:, col])))
        if abs(work[idx, col]) <= 1e-10:
            continue
        work[[row, idx]] = work[[idx, row]]
        work[row] = work[row] / work[row, col]
        for other in range(2):
            if other != row:
                work[other] = work[other] - work[other, col] * work[row]
        pivots.append(col)
        row += 1
    if row < 2:
        raise LinesIntersect("degenerate nullspace frame")
    return work[0], work[1]


def atiyah_p3(l_forms, p_forms):
    """Residue pairing of two disjoint lines in projective 3-space.

    l_forms = (l1, l2, l3, l4): linear forms in (z0..z3) cutting the lines
    L1 = {l1 = l2 = 0} and L2 = {l3 = l4 = 0}. p_forms = (p1..p4): the
    general-position hyperplanes weighting the ambient form 1/(p1 p2 p3 p4)
    and the line forms 1/(p1 p2), 1/(p3 p4).

    Restricted to L2 the ratio of the lifted form to the ambient form
    leaves theta0 / (l1 l2): each p-factor enters once above and once
    below, so they cancel identically. The value is the residue of
    theta0 / (l1 l2) at the point {l1 = 0} of L2: with L2's canonical
    frame (q0, q1), c_j = l1 . q_j and d_j = l2 . q_j, it is
    -1 / (c0 d1 - c1 d0), minus the inverse Jacobian determinant of
    (l1, l2) in the frame coordinates. That needs no affine chart and holds
    at a point at infinity of either chart (Griffiths & Harris,
    Principles of Algebraic Geometry, 1978, ch. 5). The residue point may
    sit on a p-hyperplane, which is harmless because the factors cancel; a
    hyperplane containing either line is rejected.
    """
    L = np.asarray(l_forms, dtype=complex).reshape(4, 4)
    Pmat = np.asarray(p_forms, dtype=complex).reshape(4, 4)
    row_scale = np.prod(np.linalg.norm(L, axis=1))
    if abs(np.linalg.det(L)) <= 1e-10 * max(row_scale, 1e-300):
        raise LinesIntersect("the two lines meet (cut forms are dependent)")
    frame1 = _canonical_nullspace_frame(L[:2])
    q0, q1 = _canonical_nullspace_frame(L[2:])
    for i, p in enumerate(Pmat):
        pn = max(float(np.linalg.norm(p)), 1e-300)
        for qa, qb in (frame1, (q0, q1)):
            if max(abs(p @ qa), abs(p @ qb)) <= 1e-10 * pn:
                raise NonGenericHyperplanes(
                    f"hyperplane p{i + 1} contains one of the lines")

    c0, c1 = complex(L[0] @ q0), complex(L[0] @ q1)
    d0, d1 = complex(L[1] @ q0), complex(L[1] @ q1)
    jac = c0 * d1 - c1 * d0
    scale = (np.linalg.norm(L[0]) * np.linalg.norm(L[1])
             * np.linalg.norm(q0) * np.linalg.norm(q1))
    if abs(jac) <= 1e-10 * scale:
        raise PoleCollision("l2 vanishes at the l1-intersection point")
    return -1.0 / jac
