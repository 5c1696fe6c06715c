from fractions import Fraction

import numpy as np
import pytest

import hololink as hl
from hololink import scenes
from hololink.residue import LiftedThreeForm, PolyMultiplier, compose_restriction

Z1 = ((1, 0, 0), (0, 0, 0))
Z2 = ((0, 1, 0), (0, 0, 0))
Z3 = ((0, 0, 1), (0, 0, 0))


def _poly(*terms):
    return hl.Poly3.from_terms(terms)


def _l0_pieces():
    sc = scenes.l0()
    return sc


# ---------------------------------------------------------------------------
# curve / surface intersections

def test_intersections_simple_root():
    f = _poly(((0, 1, 0), 1.0))  # z2
    curve = hl.ParamCurve.line((0, 0, 1), (0, 1, 0))  # (0, t, 1)
    inter = hl.curve_surface_intersections(f, curve)
    assert np.allclose(inter.params, [0.0], atol=1e-12)
    assert list(inter.multiplicities) == [1]


def test_intersections_two_roots():
    # z1 z2 - 2 on the curve (t, t, 0) -> t^2 = 2
    f = _poly(((1, 1, 0), 1.0), ((0, 0, 0), -2.0))
    curve = hl.ParamCurve.complex_affine(
        (np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([0.0])))
    inter = hl.curve_surface_intersections(f, curve)
    params = np.sort(np.asarray(inter.params).real)
    assert params == pytest.approx([-np.sqrt(2), np.sqrt(2)], abs=1e-10)


def test_intersections_tangency_rejected():
    f = _poly(((0, 2, 0), 1.0))  # z2^2
    curve = hl.ParamCurve.line((0, 0, 1), (0, 1, 0))
    with pytest.raises(hl.NonSimpleRoot):
        hl.curve_surface_intersections(f, curve)


def test_intersections_inexact_tangency_rejected(rng):
    # (z2 - a)^2 (z1 - b) on the line (t, t, 1): a double root at t = a
    # whose value is not representable, so rounding splits it
    curve = hl.ParamCurve.line((0, 0, 1), (1, 1, 0))
    for _ in range(100):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        f = _poly(((1, 2, 0), 1.0), ((1, 1, 0), -2 * a), ((1, 0, 0), a * a),
                  ((0, 2, 0), -b), ((0, 1, 0), 2 * a * b),
                  ((0, 0, 0), -a * a * b))
        with pytest.raises(hl.NonSimpleRoot):
            hl.curve_surface_intersections(f, curve)


def test_intersections_identically_zero():
    f = _poly(((1, 0, 0), 1.0))  # z1 on a curve with z1 = 0
    curve = hl.ParamCurve.line((0, 0, 1), (0, 1, 0))
    with pytest.raises(hl.IdenticallyZero):
        hl.curve_surface_intersections(f, curve)


def test_intersections_rect_domain_filters():
    # roots at 0.5 (inside) and 3 (outside the rectangle)
    f = _poly(((2, 0, 0), 1.0), ((1, 0, 0), -3.5), ((0, 0, 0), 1.5))
    curve = hl.ParamCurve.complex_affine(
        (np.array([0.0, 1.0]), np.array([1.0]), np.array([0.0])),
        domain=("rect", -1.0, 1.0, -1.0, 1.0))
    inter = hl.curve_surface_intersections(f, curve)
    assert np.allclose(inter.params, [0.5], atol=1e-10)


def test_intersections_disk_window_keeps_all():
    # on a whole plane every finite root participates, here 0.5 and 3
    f = _poly(((2, 0, 0), 1.0), ((1, 0, 0), -3.5), ((0, 0, 0), 1.5))
    curve = hl.ParamCurve.complex_affine(
        (np.array([0.0, 1.0]), np.array([1.0]), np.array([0.0])),
        domain=("plane",))
    inter = hl.curve_surface_intersections(f, curve)
    assert len(inter.params) == 2


# ---------------------------------------------------------------------------
# iterated residue and lifting

def test_double_residue_constant_on_reference_line():
    sc = _l0_pieces()
    cut = sc.cuts["cut1"]
    lift = LiftedThreeForm(sc.ambient, cut.f1, cut.f2,
                           PolyMultiplier.constant(1.0))
    params, coeffs = hl.double_leray_residue(lift, sc.curves["c1"])
    assert np.max(np.abs(coeffs - 1.0)) < 1e-12


def test_lift_constant_form():
    sc = _l0_pieces()
    lift = hl.lift_theta(sc.cuts["cut1"], sc.ambient, sc.forms["theta1"],
                         sc.curves["c1"])
    assert lift.multiplier.degree == 0
    assert complex(lift.multiplier(np.zeros((1, 3), dtype=complex))[0]) == \
        pytest.approx(1.0)


def test_lift_linear_form_pins_multiplier_to_coordinates():
    # theta = s ds on the line (s, 0, 0) lifts to the multiplier z1
    sc = _l0_pieces()
    theta = hl.OneForm("c1", np.array([0.0, 1.0]))
    lift = hl.lift_theta(sc.cuts["cut1"], sc.ambient, theta, sc.curves["c1"])
    pts = np.array([[2.0, 0.0, 0.0], [-0.5j, 0.0, 0.0]], dtype=complex)
    vals = lift.multiplier(pts)
    assert vals == pytest.approx([2.0, -0.5j], rel=1e-10)


def test_dependent_cut_gradients_rejected():
    # the cut (f1, 2 f1) is one surface twice: its gradients are parallel
    # everywhere on c1, so no iterated residue exists
    sc = _l0_pieces()
    f1 = sc.cuts["cut1"].f1
    twice = hl.Poly3(f1.exponents, 2.0 * f1.coeffs)
    lift = LiftedThreeForm(sc.ambient, f1, twice, PolyMultiplier.constant(1.0))
    with pytest.raises(hl.DependentGradients):
        hl.double_leray_residue(lift, sc.curves["c1"])
    with pytest.raises(hl.DependentGradients):
        hl.lift_theta(hl.SurfaceCut(f1, twice, "c1"), sc.ambient,
                      sc.forms["theta1"], sc.curves["c1"])


def test_lift_rejects_a_volume_form_vanishing_on_the_curve():
    # z2 vanishes on all of c1 = (s, 0, 0): the residue at M = 1 is 0
    sc = _l0_pieces()
    ambient = hl.AmbientForm(_poly(((0, 1, 0), 1.0)))
    with pytest.raises(hl.IdenticallyZero):
        hl.lift_theta(sc.cuts["cut1"], ambient, sc.forms["theta1"],
                      sc.curves["c1"])


def test_lift_rejects_rational_ratio():
    sc = _l0_pieces()
    theta = hl.OneForm("c1", np.array([1.0]), np.array([-5.0, 1.0]), (5.0,))
    with pytest.raises(hl.MultiplierNotPolynomial):
        hl.lift_theta(sc.cuts["cut1"], sc.ambient, theta, sc.curves["c1"])


def _parabola_lift(theta1):
    # c1 = (t, 0.3 t^2, 0) cut by z2 - 0.3 z1^2 and z3
    c1 = hl.ParamCurve.complex_affine(
        (np.array([0.0, 1.0]), np.array([0.0, 0.0, 0.3]), np.array([0.0])))
    cut = hl.SurfaceCut(_poly(((0, 1, 0), 1.0), ((2, 0, 0), -0.3)),
                        _poly(((0, 0, 1), 1.0)), "c1")
    return hl.lift_theta(cut, hl.AmbientForm.standard(),
                         hl.OneForm("c1", np.asarray(theta1)), c1)


def test_parabola_lift_pins_the_multiplier_to_z1():
    # theta1 = 1 + 0.5 t lifts to M = 1 + 0.5 z1: z1 is the parabola's
    # coordinate affine in t
    lift = _parabola_lift([1.0, 0.5])
    pts = np.array([[2.0, 0.0, 0.0], [-0.5j, 3.0, 1.0], [1 + 1j, -2j, 4.0]])
    assert lift.multiplier(pts) == pytest.approx(1.0 + 0.5 * pts[:, 0],
                                                 rel=1e-15)


def test_lift_needs_a_coordinate_affine_in_t():
    # on c1 = (t + t^2, t^2, 0), cut by z2 - (z1 - z2)^2 and z3, only the
    # constant z3 is affine in t: theta1 = 1 + 0.5 t has nothing to pin to
    c1 = hl.ParamCurve.complex_affine(
        (np.array([0.0, 1.0, 1.0]), np.array([0.0, 0.0, 1.0]), np.array([0.0])))
    cut = hl.SurfaceCut(_poly(((0, 1, 0), 1.0), ((2, 0, 0), -1.0),
                              ((1, 1, 0), 2.0), ((0, 2, 0), -1.0)),
                        _poly(((0, 0, 1), 1.0)), "c1")
    ambient = hl.AmbientForm.standard()
    lift = hl.lift_theta(cut, ambient, hl.OneForm("c1", np.array([2.0])), c1)
    assert lift.multiplier.degree == 0
    with pytest.raises(hl.MultiplierNotPolynomial):
        hl.lift_theta(cut, ambient, hl.OneForm("c1", np.array([1.0, 0.5])), c1)


def test_closed_form_residue_matches_the_pseudo_inverse_definition(
        tangent_cut_scene):
    # the iterated residue's coefficient is M * ratio * det3(u1, u2, gamma')
    # for (u1, u2) with grad f_i . u_j = delta_ij, here the pseudo-inverse
    # of the stacked gradients
    cases = [scenes.random_line_scene(seed) for seed in range(50)]
    cases.append(tangent_cut_scene(0.0))
    for sc in cases:
        cut, c1 = sc.cuts["cut1"], sc.curves["c1"]
        lift = hl.lift_theta(cut, sc.ambient, sc.forms["theta1"], c1)
        params, coeffs = hl.double_leray_residue(lift, c1)
        pts, vel = c1.eval_batch(params)
        grads = np.stack([np.stack([g(pts) for g in f.grad()], axis=-1)
                          for f in (cut.f1, cut.f2)], axis=-2)
        u = np.linalg.pinv(grads)
        oracle = (lift.multiplier(pts) * sc.ambient.ratio_batch(pts)
                  * hl.det3(u[..., 0], u[..., 1], vel))
        assert np.max(np.abs(coeffs - oracle) / np.abs(oracle)) <= 1e-14
        theta = sc.forms["theta1"].coeff_batch(params)
        assert np.max(np.abs(coeffs - theta) / np.abs(theta)) <= 1e-14


# ---------------------------------------------------------------------------
# residue-route linking

def test_reference_residue_is_one_for_all_admissible_cuts():
    sc = _l0_pieces()
    z2 = _poly(((0, 1, 0), 1.0))
    z3 = _poly(((0, 0, 1), 1.0))
    z2pz3 = _poly(((0, 1, 0), 1.0), ((0, 0, 1), 1.0))
    z2mz3 = _poly(((0, 1, 0), 1.0), ((0, 0, 1), -1.0))
    two_z2pz3 = _poly(((0, 1, 0), 2.0), ((0, 0, 1), 1.0))
    z3mz2 = _poly(((0, 0, 1), 1.0), ((0, 1, 0), -1.0))
    cuts = [(z2, z3), (z2pz3, z3), (z2mz3, z3), (two_z2pz3, z3), (z2, z3mz2)]
    for f1, f2 in cuts:
        cut = hl.SurfaceCut(f1, f2, "c1")
        lift = hl.lift_theta(cut, sc.ambient, sc.forms["theta1"],
                             sc.curves["c1"])
        value = hl.residue_linking(lift, (sc.curves["c2"],
                                          sc.forms["theta2"]), sc.ambient)
        assert abs(value - 1.0) < 1e-10


def test_residue_is_zero_when_the_second_line_misses_the_cut():
    # (t, 5, 1) is parallel to {z2 = 0}: g = f1(gamma2) = 5 is constant,
    # so no intersection contributes
    sc = _l0_pieces()
    lift = hl.lift_theta(sc.cuts["cut1"], sc.ambient, sc.forms["theta1"],
                         sc.curves["c1"])
    parallel = hl.ParamCurve.line((0, 5, 1), (1, 0, 0))
    value = hl.residue_linking(lift, (parallel, sc.forms["theta2"]),
                               sc.ambient)
    assert value == 0


def test_role_swapped_cut_gives_same_value():
    sc = _l0_pieces()
    # cut containing the second line (0, t, 1): {z1 = 0} cap {z3 - 1 = 0}
    f1 = _poly(((1, 0, 0), 1.0))
    f2 = _poly(((0, 0, 1), 1.0), ((0, 0, 0), -1.0))
    cut = hl.SurfaceCut(f1, f2, "c2")
    lift = hl.lift_theta(cut, sc.ambient, sc.forms["theta2"], sc.curves["c2"])
    value = hl.residue_linking(lift, (sc.curves["c1"], sc.forms["theta1"]),
                               sc.ambient)
    assert abs(value - 1.0) < 1e-10


def test_pole_collision_detected():
    sc = _l0_pieces()
    # second cut surface vanishing at the intersection point (0, 0, 1)
    f1 = _poly(((0, 1, 0), 1.0))                     # z2
    f2 = _poly(((0, 0, 1), 1.0), ((0, 0, 0), -1.0))  # z3 - 1
    lift = LiftedThreeForm(sc.ambient, f1, f2, PolyMultiplier.constant(1.0))
    with pytest.raises(hl.PoleCollision):
        hl.residue_linking(lift, (sc.curves["c2"], sc.forms["theta2"]),
                           sc.ambient)


def test_theta_pole_at_intersection_detected():
    sc = _l0_pieces()
    cut = sc.cuts["cut1"]
    lift = LiftedThreeForm(sc.ambient, cut.f1, cut.f2,
                           PolyMultiplier.constant(1.0))
    # theta2 with a pole at the intersection parameter t* = 0
    theta2 = hl.OneForm("c2", np.array([1.0]), np.array([0.0, 1.0]), (0.0,))
    with pytest.raises(hl.PoleCollision):
        hl.residue_linking(lift, (sc.curves["c2"], theta2), sc.ambient)


@pytest.mark.parametrize("delta", [0.0, 1e-9, 1e-6, 1e-3])
def test_tangent_cut_gives_the_exact_sum(tangent_cut_scene, delta):
    # the residues of 1 / ((delta - 0.3 s^2)(1 + 0.2 s)) at the roots of
    # the first factor sum to (2/3) / (1 - 2 delta / 15), also at the
    # double root of delta = 0
    sc = tangent_cut_scene(delta)
    lift = hl.lift_theta(sc.cuts["cut1"], sc.ambient, sc.forms["theta1"],
                         sc.curves["c1"])
    value = hl.residue_linking(lift, (sc.curves["c2"], sc.forms["theta2"]),
                               sc.ambient)
    exact = (2 / 3) / (1 - 2 * delta / 15)
    assert abs(value - exact) <= 1e-14 * exact


def test_curved_pair_matches_symbolic_residue_sum():
    import sympy

    s = sympy.symbols("s")
    a = sympy.Rational(1, 2) + sympy.Rational(1, 5) * sympy.I
    b = sympy.Rational(-3, 10) + sympy.Rational(1, 10) * sympy.I
    theta = (sympy.Rational(3, 10) + s + (sympy.Rational(1, 2)
             - sympy.Rational(1, 5) * sympy.I) * s ** 2
             + sympy.Rational(7, 10) * sympy.I * s ** 3)
    # f1(c2) = s - a (b s^2)^2 and f2(c2) = 1; every finite residue of
    # theta / f1(c2) sits at a root of f1(c2), so their sum is minus the
    # residue at infinity
    expr = theta / (s - a * b ** 2 * s ** 4)
    u = sympy.symbols("u")
    exact = sympy.simplify(sympy.residue(
        expr.subs(s, 1 / u) / u ** 2, u, 0))
    assert exact == sympy.Rational(98, 29) - sympy.Rational(364, 29) * sympy.I

    ac, bc = 0.5 + 0.2j, -0.3 + 0.1j
    c1 = hl.ParamCurve.complex_affine(
        (np.array([0.0, 1.0]), np.array([0.0, 0.0, ac]), np.array([0.0])))
    c2 = hl.ParamCurve.complex_affine(
        (np.array([0.0, 0.0, bc]), np.array([0.0, 1.0]), np.array([1.0])))
    cut = hl.SurfaceCut(_poly(((0, 1, 0), 1.0), ((2, 0, 0), -ac)),
                        _poly(((0, 0, 1), 1.0)), "c1")
    theta2 = hl.OneForm("c2", np.array([0.3, 1.0, 0.5 - 0.2j, 0.7j]))
    ambient = hl.AmbientForm.standard()
    lift = hl.lift_theta(cut, ambient, hl.OneForm("c1", np.array([1.0])), c1)
    value = hl.residue_linking(lift, (c2, theta2), ambient)
    assert abs(value - complex(exact)) <= 1e-13 * abs(complex(exact))


def test_parabola_pair_matches_symbolic_residue_sum():
    import sympy

    s = sympy.symbols("s")
    half, tenth = sympy.Rational(1, 2), sympy.Rational(1, 10)
    p = (2 * tenth + tenth * sympy.I, -3 * tenth + 2 * tenth * sympy.I,
         11 * tenth - 2 * tenth * sympy.I)
    e = (3 * tenth - 2 * tenth * sympy.I, 1 + tenth * sympy.I,
         4 * tenth + 3 * tenth * sympy.I)
    z1, z2, z3 = (p[i] + s * e[i] for i in range(3))
    # M(c2) theta2 / (f1(c2) f2(c2)) with M = 1 + z1 / 2, theta2 = 1: the
    # residues at the roots of f1(c2) sum to minus those at the root of
    # f2(c2) and at infinity
    expr = (1 + half * z1) / ((z2 - 3 * tenth * z1 ** 2) * z3)
    root = sympy.solve(z3, s)[0]
    u = sympy.symbols("u")
    exact = -sympy.simplify(sympy.residue(expr, s, root)
                            + sympy.residue(expr.subs(s, 1 / u) / u ** 2, u, 0))

    c2 = hl.ParamCurve.line((0.2 + 0.1j, -0.3 + 0.2j, 1.1 - 0.2j),
                            (0.3 - 0.2j, 1 + 0.1j, 0.4 + 0.3j))
    lift = _parabola_lift([1.0, 0.5])
    value = hl.residue_linking(lift, (c2, hl.OneForm("c2", np.array([1.0]))),
                               hl.AmbientForm.standard())
    assert abs(value - complex(exact)) <= 1e-13 * abs(complex(exact))


def test_curve_inside_the_cut_surface_is_identically_zero():
    sc = _l0_pieces()
    # z1 vanishes on all of c2 = (0, t, 1)
    lift = LiftedThreeForm(sc.ambient, _poly(((1, 0, 0), 1.0)),
                           _poly(((0, 0, 1), 1.0)), PolyMultiplier.constant(1.0))
    with pytest.raises(hl.IdenticallyZero):
        hl.residue_linking(lift, (sc.curves["c2"], sc.forms["theta2"]),
                           sc.ambient)


def test_near_collision_gives_the_per_root_value():
    # f2 = z3 - 1 + z2 - delta vanishes delta away from the intersection
    # t = 0 of c2 = (0, t, 1) with {z2 = 0}: the one residue is
    # theta2(0) / (g'(0) f2(c2(0))) with g'(0) = 1, which is -1 / delta
    sc = _l0_pieces()
    delta = 1e-6
    f2 = _poly(((0, 0, 1), 1.0), ((0, 1, 0), 1.0), ((0, 0, 0), -1.0 - delta))
    lift = LiftedThreeForm(sc.ambient, _poly(((0, 1, 0), 1.0)), f2,
                           PolyMultiplier.constant(1.0))
    value = hl.residue_linking(lift, (sc.curves["c2"], sc.forms["theta2"]),
                               sc.ambient)
    f2_at_root = complex(f2(np.array([[0.0, 0.0, 1.0]]))[0])
    per_root = complex(sc.forms["theta2"].coeff_batch(np.array([0.0]))[0]) \
        / f2_at_root
    assert abs(value - per_root) <= 1e-9 * abs(per_root)


def _gauss(z):
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _div(a, b):
    size = b[0] ** 2 + b[1] ** 2
    num = _mul(a, (b[0], -b[1]))
    return num[0] / size, num[1] / size


def _exact_line_residue(sc):
    """g1 g2 / det3(e1, e2, p2 - p1) over the Gaussian rationals, on the
    scene's float data, rounded once."""
    (p1, e1), (p2, e2) = sc.curves["c1"].line_frame(), sc.curves["c2"].line_frame()
    e1, e2 = [_gauss(v) for v in e1], [_gauss(v) for v in e2]
    e3 = [_sub(_gauss(b), _gauss(a)) for a, b in zip(p1, p2)]
    det = (0, 0)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        term = _mul(e1[i], _sub(_mul(e2[j], e3[k]), _mul(e2[k], e3[j])))
        det = (det[0] + term[0], det[1] + term[1])
    value = _div((Fraction(1), Fraction(0)), det)
    for name in ("theta1", "theta2"):
        form = sc.forms[name]
        value = _mul(value, _div(_gauss(form.num[0]), _gauss(form.den[0])))
    return complex(float(value[0]), float(value[1]))


def test_line_residue_matches_the_exact_rational_value():
    # residue algebra holds over any field: the float route is within a few
    # roundings of the exact value on its own float inputs
    for seed in range(60):
        sc = scenes.random_line_scene(seed)
        value = hl.compute(sc, "residue", hl.QuadConfig()).value
        exact = _exact_line_residue(sc)
        assert abs(value - exact) <= 1.5e-15 * abs(exact)


def test_residue_route_finds_no_roots(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the residue route called a root finder")

    monkeypatch.setattr(hl.residue, "curve_surface_intersections", refuse)
    monkeypatch.setattr(hl.residue, "_simple_roots", refuse)
    monkeypatch.setattr(hl.residue, "_polish_roots", refuse)
    monkeypatch.setattr(np.polynomial.polynomial, "polyroots", refuse)
    rep = hl.compute(scenes.l0(), "residue", hl.QuadConfig())
    assert abs(rep.value - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# rational closure

def test_restriction_residues_close_to_zero():
    sc = _l0_pieces()
    cut = sc.cuts["cut1"]
    lift = hl.lift_theta(cut, sc.ambient, sc.forms["theta1"], sc.curves["c1"])
    num, g, rest = compose_restriction(lift, sc.curves["c2"],
                                       sc.forms["theta2"], sc.ambient)
    poles, residues, res_inf = hl.rational_all_residues(
        num, np.polynomial.polynomial.polymul(g, rest))
    assert abs(sum(residues) + res_inf) < 1e-10


def test_rational_residues_match_symbolic():
    import sympy

    t = sympy.symbols("t")
    num = np.array([1.0, 0.0, 3.0])     # 3t^2 + 1
    exact_roots = [sympy.Integer(1), sympy.Integer(-2), sympy.I]
    den = np.array([1.0])
    for r in exact_roots:
        den = np.convolve(den, np.array([-complex(r), 1.0]))
    poles, residues, res_inf = hl.rational_all_residues(num, den)
    expr = (3 * t ** 2 + 1) / ((t - 1) * (t + 2) * (t - sympy.I))
    for p, r in zip(poles, residues):
        nearest = min(exact_roots, key=lambda e: abs(complex(e) - p))
        sym = complex(sympy.residue(expr, t, nearest))
        assert r == pytest.approx(sym, rel=1e-9)
    assert abs(sum(residues) + res_inf) < 1e-12


def test_sum_rule_on_random_rationals(rng):
    for _ in range(20):
        den_deg = int(rng.integers(3, 7))
        num_deg = int(rng.integers(0, den_deg - 1))
        num = rng.normal(size=num_deg + 1) + 1j * rng.normal(size=num_deg + 1)
        roots = rng.normal(size=den_deg) + 1j * rng.normal(size=den_deg)
        den = np.array([1.0 + 0j])
        for r in roots:
            den = np.convolve(den, np.array([-r, 1.0]))
        poles, residues, res_inf = hl.rational_all_residues(num, den)
        assert abs(sum(residues) + res_inf) < 1e-9


def test_repeated_pole_rejected():
    den = np.convolve(np.array([-1.0, 1.0]), np.array([-1.0, 1.0]))
    with pytest.raises(hl.NonSimpleRoot):
        hl.rational_all_residues(np.array([1.0]), den)


def _poly_from_roots(roots):
    den = np.array([1.0 + 0j])
    for r in roots:
        den = np.convolve(den, np.array([-r, 1.0]))
    return den


def test_double_roots_rejected_separated_roots_kept(rng):
    num = np.array([1.0])
    for _ in range(200):
        a = rng.normal() + 1j * rng.normal()
        k = int(rng.integers(0, 5))
        q = rng.normal(size=k) + 1j * rng.normal(size=k)
        with pytest.raises(hl.NonSimpleRoot):
            hl.rational_all_residues(num, _poly_from_roots([a, a, *q]))
    for _ in range(200):
        n = int(rng.integers(1, 7))
        roots = rng.normal(size=n) + 1j * rng.normal(size=n)
        poles, residues, _ = hl.rational_all_residues(
            num, _poly_from_roots(roots))
        assert len(poles) == n


def test_residue_at_infinity_simple():
    # 1/t has residue -1 at infinity
    assert hl.residue_at_infinity(np.array([1.0]), np.array([0.0, 1.0])) == \
        pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# projective line pairing

def test_projective_pairing_reference_value():
    value = hl.atiyah_p3(scenes.ATIYAH_L, scenes.ATIYAH_P)
    assert value == pytest.approx(-1.0, rel=1e-12)


def test_projective_pairing_rotated_frame():
    l_forms = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, -1, 0), (0, 1, 0, -1))
    assert hl.atiyah_p3(l_forms, scenes.ATIYAH_P) == pytest.approx(
        -1.0, rel=1e-10)


def test_projective_pairing_mixing_invariance():
    # replacing (l3, l4) by (l3 + l4, l3 - l4) cuts the same second line
    l = [np.array(r, dtype=complex) for r in scenes.ATIYAH_L]
    mixed = (l[0], l[1], l[2] + l[3], l[2] - l[3])
    assert hl.atiyah_p3(mixed, scenes.ATIYAH_P) == pytest.approx(
        -1.0, rel=1e-10)


def test_projective_pairing_intersecting_lines():
    bad = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1))
    with pytest.raises(hl.LinesIntersect):
        hl.atiyah_p3(bad, scenes.ATIYAH_P)


def test_projective_pairing_degenerate_hyperplane():
    # p1 = z2 vanishes identically on the second line {z2 = z3 = 0}
    p = ((0, 0, 1, 0), (0, 1, 0, 3), (1, 0, 0, -1), (0, 1, -1, 0))
    with pytest.raises(hl.NonGenericHyperplanes):
        hl.atiyah_p3(scenes.ATIYAH_L, p)


def _exact_projective_pairing(re, im):
    """-1 / (c0 d1 - c1 d0) over Q(i) for the lines cut by the Gaussian
    integers re + i im, or None when they meet: (q0, q1) is the reduced
    row echelon basis of the nullspace of (l3, l4), c_j = l1 . q_j and
    d_j = l2 . q_j."""
    import sympy
    from sympy.polys.domains import QQ_I
    L = sympy.Matrix(4, 4, [int(a) + int(b) * sympy.I
                            for a, b in zip(re.flat, im.flat)])
    L = L.to_DM().convert_to(QQ_I)
    if L.det() == QQ_I.zero:
        return None
    frame = L[2:, :].nullspace().rref()[0]
    (c0, c1), (d0, d1) = (L[:2, :] * frame.transpose()).to_list()
    return complex(QQ_I.to_sympy(-QQ_I.one / (c0 * d1 - c1 * d0)))


def test_projective_pairing_matches_exact_residue_on_generic_lines(rng):
    # random Gaussian-integer lines put the l1-point in the chart q0 + t q1
    # (c1 != 0), which the reference scenes never reach
    checked = 0
    while checked < 60:
        re, im = rng.integers(-3, 4, size=(2, 4, 4))
        exact = _exact_projective_pairing(re, im)
        if exact is None:
            continue
        try:
            value = hl.atiyah_p3(re + 1j * im, scenes.ATIYAH_P)
        except hl.NonGenericHyperplanes:
            continue
        assert abs(value - exact) <= 1e-13 * abs(exact)
        checked += 1
